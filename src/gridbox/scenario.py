"""Scripted multi-node scenarios.

A scenario is a line-oriented script (``#`` comments, blank lines ignored)
executed against real registry/node child processes::

    start-vo N [SITE ...]         spawn a registry plus N nodes
    gen-cohort SEED [PATIENTS]    generate + upload a cohort per site, keep
                                  the ground-truth manifest
    query-at SITE :: QUERY        run a federated query at SITE
    exec-at SITE NAME :: SELECTOR execute algorithm NAME over SELECTOR
    add-alg-at SITE NAME :: SRC   upload an algorithm (';' separates lines)
    stop-node SITE                kill that node process
    assert-equal                  last two query results byte-identical
    assert-manifest               last query result equals the manifest truth
    assert-warning TEXT           last result's warnings mention TEXT
    assert-written N              last exec wrote exactly N derived records
    assert-no-rquery              no node ever received an RQUERY
    assert-locality               QUERY/RQUERY/EXEC_ALG traffic carried zero
                                  binary payload bytes at every live node

In ``query-at``, a query of the form ``@label`` expands to the manifest's
recorded query text for that label (``@by-id-CAM`` etc.), which is how
scripts reference ids that only exist after generation.

The runner prints one ``ok``/``FAIL`` line per step and returns the number
of failed steps.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from gridbox.client import NodeClient
from gridbox.cohort import manifest_for, spec_for_site, upload_site
from gridbox.config import SiteKey, parse_address
from gridbox.errors import GridError
from gridbox.query import parse_query, print_query
from gridbox.registry import RegistryClient

SITE_POOL = ("CAM", "UDI", "LEE", "OXF")
_USER, _CREDENTIAL = "alice", "wonderland"
_LOCALITY_OPS = ("QUERY", "RQUERY", "EXEC_ALG")


class ScenarioError(Exception):
    pass


@dataclass
class StepResult:
    line_no: int
    step: str
    ok: bool
    detail: str = ""


@dataclass
class _Vo:
    workdir: Path
    registry_proc: subprocess.Popen
    registry_addr: str
    admin_token: str
    nodes: dict = field(default_factory=dict)      # site -> Popen
    addresses: dict = field(default_factory=dict)  # site -> "host:port"
    secrets: dict = field(default_factory=dict)    # site -> bytes


def _wait_for_file(path: Path, proc: subprocess.Popen, what: str,
                   timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                return text
        if proc.poll() is not None:
            raise ScenarioError(f"{what} exited with code {proc.returncode} "
                                f"before becoming ready")
        time.sleep(0.05)
    raise ScenarioError(f"timed out waiting for {what}")


def _child_env() -> dict:
    """This process's environment with ``PYTHONPATH`` led by the directory
    that holds the imported ``gridbox`` package, so the registry and node
    children run the same code as their parent."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


class ScenarioRunner:
    def __init__(self, script_path: str | Path, workdir: str | Path | None = None,
                 out=sys.stdout):
        self.script_path = Path(script_path)
        self._own_workdir = workdir is None
        self.workdir = Path(workdir) if workdir else Path(
            tempfile.mkdtemp(prefix="gridbox-scn-"))
        self.out = out
        self.vo: _Vo | None = None
        self.manifest: dict | None = None
        self.clients: dict[str, NodeClient] = {}
        self.results: list[dict] = []

    # --- lifecycle -----------------------------------------------------------

    def run(self) -> list[StepResult]:
        steps = []
        try:
            for line_no, raw in enumerate(
                    self.script_path.read_text(encoding="utf-8").splitlines(), 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    self._execute(line)
                    result = StepResult(line_no, line, True)
                except (ScenarioError, GridError, OSError) as e:
                    result = StepResult(line_no, line, False, str(e))
                steps.append(result)
                status = "ok  " if result.ok else "FAIL"
                detail = f" — {result.detail}" if result.detail else ""
                print(f"{status} [{line_no:3d}] {result.step}{detail}",
                      file=self.out, flush=True)
            failed = sum(1 for s in steps if not s.ok)
            print(f"{len(steps)} steps, {failed} failed", file=self.out, flush=True)
            return steps
        finally:
            self._teardown()

    def _teardown(self) -> None:
        if self.vo is not None:
            procs = list(self.vo.nodes.values()) + [self.vo.registry_proc]
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # --- steps ------------------------------------------------------------------

    def _execute(self, line: str) -> None:
        head, sep, tail = line.partition(" :: ")
        words = head.split()
        verb = words[0]
        dispatch = {
            "start-vo": self._step_start_vo,
            "gen-cohort": self._step_gen_cohort,
            "query-at": self._step_query_at,
            "exec-at": self._step_exec_at,
            "add-alg-at": self._step_add_alg_at,
            "stop-node": self._step_stop_node,
            "assert-equal": self._step_assert_equal,
            "assert-manifest": self._step_assert_manifest,
            "assert-warning": self._step_assert_warning,
            "assert-written": self._step_assert_written,
            "assert-no-rquery": self._step_assert_no_rquery,
            "assert-locality": self._step_assert_locality,
        }
        fn = dispatch.get(verb)
        if fn is None:
            raise ScenarioError(f"unknown step {verb!r}")
        fn(words[1:], tail if sep else None)

    def _step_start_vo(self, args: list[str], tail) -> None:
        if self.vo is not None:
            raise ScenarioError("start-vo appears twice")
        if not args:
            raise ScenarioError("start-vo needs a node count")
        n = int(args[0])
        sites = args[1:] or list(SITE_POOL[:n])
        if len(sites) != n:
            raise ScenarioError(f"start-vo {n} got {len(sites)} site names")

        reg_dir = self.workdir / "registry"
        reg_dir.mkdir(parents=True, exist_ok=True)
        reg_cfg = self.workdir / "registry.cfg"
        reg_cfg.write_text(f"listen = 127.0.0.1:0\ndata_dir = {reg_dir}\n")
        announce = self.workdir / "registry.addr"
        env = _child_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridbox.run_registry", str(reg_cfg),
             "--announce", str(announce)],
            stdout=(self.workdir / "registry.out").open("wb"),
            stderr=subprocess.STDOUT, env=env)
        registry_addr = _wait_for_file(announce, proc, "registry")
        admin_token = (reg_dir / "admin_token.txt").read_text().strip()
        self.vo = _Vo(self.workdir, proc, registry_addr, admin_token)

        RegistryClient(parse_address(registry_addr)).add_user(
            admin_token, _USER, _CREDENTIAL)

        for site in sites:
            secret = secrets.token_bytes(16)
            self.vo.secrets[site] = secret
            node_dir = self.workdir / f"node-{site}"
            node_dir.mkdir(parents=True, exist_ok=True)
            cfg_path = self.workdir / f"node-{site}.cfg"
            cfg_path.write_text(
                f"site = {site}\n"
                f"listen = 127.0.0.1:0\n"
                f"registry = {registry_addr}\n"
                f"data_dir = {node_dir}\n"
                f"secret = {secret.hex()}\n"
                f"refresh_interval_s = 0.5\n")
            node_announce = self.workdir / f"node-{site}.addr"
            node_proc = subprocess.Popen(
                [sys.executable, "-m", "gridbox.run_node", str(cfg_path),
                 "--announce", str(node_announce)],
                stdout=(self.workdir / f"node-{site}.out").open("wb"),
                stderr=subprocess.STDOUT, env=env)
            self.vo.nodes[site] = node_proc
            announced = _wait_for_file(node_announce, node_proc, f"node {site}")
            self.vo.addresses[site] = announced.split()[1]

        for site in sites:
            client = NodeClient(self.vo.addresses[site],
                                site_key=SiteKey(site, self.vo.secrets[site]))
            client.auth(_USER, _CREDENTIAL)
            self.clients[site] = client

        # early-started nodes only learn of later joiners on their next
        # membership refresh; wait until every node sees the whole VO
        want = sorted(sites)
        deadline = time.monotonic() + 15
        for site, client in self.clients.items():
            while client.stats()["membership"] != want:
                if time.monotonic() > deadline:
                    raise ScenarioError(f"{site} never saw full membership {want}")
                time.sleep(0.1)

    def _require_vo(self) -> _Vo:
        if self.vo is None:
            raise ScenarioError("no VO yet — start-vo must come first")
        return self.vo

    def _client(self, site: str) -> NodeClient:
        if site not in self.clients:
            raise ScenarioError(f"no node for site {site!r}")
        return self.clients[site]

    def _step_gen_cohort(self, args: list[str], tail) -> None:
        vo = self._require_vo()
        if not args:
            raise ScenarioError("gen-cohort needs a seed")
        seed = int(args[0])
        n_patients = int(args[1]) if len(args) > 1 else None
        specs = {site: spec_for_site(site, seed, n_patients)
                 for site in sorted(vo.nodes)}
        self.manifest = manifest_for(specs, vo.secrets)
        for site in sorted(specs):
            upload_site(self._client(site), specs[site])
        (self.workdir / "manifest.json").write_text(
            _dump_manifest(self.manifest), encoding="utf-8")

    def _resolve_query(self, text: str) -> str:
        if text.startswith("@"):
            label = text[1:]
            if self.manifest is None:
                raise ScenarioError("@label queries need gen-cohort first")
            for entry in self.manifest["queries"]:
                if entry["label"] == label:
                    return entry["text"]
            raise ScenarioError(f"manifest has no query labeled {label!r}")
        return text

    def _step_query_at(self, args: list[str], tail) -> None:
        if len(args) != 1 or tail is None:
            raise ScenarioError("usage: query-at SITE :: QUERY")
        text = self._resolve_query(tail.strip())
        rs, warnings = self._client(args[0]).query(text)
        self.results.append({"kind": "query", "site": args[0], "text": text,
                             "rs": rs, "xml": rs.to_xml(), "warnings": warnings})

    def _step_exec_at(self, args: list[str], tail) -> None:
        if len(args) != 2 or tail is None:
            raise ScenarioError("usage: exec-at SITE NAME :: SELECTOR")
        result, warnings = self._client(args[0]).exec_algorithm(
            args[1], tail.strip())
        self.results.append({"kind": "exec", "site": args[0],
                             "written": result["written"], "warnings": warnings})

    def _step_add_alg_at(self, args: list[str], tail) -> None:
        if len(args) != 2 or tail is None:
            raise ScenarioError("usage: add-alg-at SITE NAME :: SOURCE")
        source = tail.strip().replace(";", "\n")
        result, warnings = self._client(args[0]).add_algorithm(args[1], source)
        self.results.append({"kind": "add-alg", "site": args[0],
                             "version": result["version"], "warnings": warnings})

    def _step_stop_node(self, args: list[str], tail) -> None:
        vo = self._require_vo()
        if len(args) != 1 or args[0] not in vo.nodes:
            raise ScenarioError("usage: stop-node SITE")
        proc = vo.nodes[args[0]]
        proc.kill()
        proc.wait()
        self.clients.pop(args[0], None)

    # --- assertions ----------------------------------------------------------------

    def _last(self, kind: str, n: int = 1) -> list[dict]:
        matches = [r for r in self.results if r["kind"] == kind]
        if len(matches) < n:
            raise ScenarioError(f"needs {n} prior {kind} result(s), have {len(matches)}")
        return matches[-n:]

    def _step_assert_equal(self, args: list[str], tail) -> None:
        a, b = self._last("query", 2)
        if a["xml"] != b["xml"]:
            raise ScenarioError(
                f"results differ: {a['site']} returned {len(a['xml'])} bytes, "
                f"{b['site']} returned {len(b['xml'])} bytes")

    def _step_assert_manifest(self, args: list[str], tail) -> None:
        if self.manifest is None:
            raise ScenarioError("assert-manifest needs gen-cohort first")
        last = self._last("query")[0]
        canonical = print_query(parse_query(last["text"]))
        entry = next((e for e in self.manifest["queries"]
                      if e["text"] == canonical), None)
        if entry is None:
            raise ScenarioError(f"manifest records no truth for {canonical!r}")
        rs = last["rs"]
        got_rows = rs.part.ids  # in id order
        if rs.summary != (entry["images"], entry["patients"]):
            raise ScenarioError(f"summary {rs.summary} != manifest "
                                f"({entry['images']}, {entry['patients']})")
        if got_rows != entry["rows"]:
            raise ScenarioError(f"row ids differ from manifest "
                                f"({len(got_rows)} vs {len(entry['rows'])})")

    def _step_assert_warning(self, args: list[str], tail) -> None:
        if not args:
            raise ScenarioError("usage: assert-warning TEXT")
        needle = " ".join(args)
        last = self.results[-1] if self.results else None
        if last is None:
            raise ScenarioError("no prior result")
        if not any(needle in w for w in last["warnings"]):
            raise ScenarioError(f"no warning mentions {needle!r} "
                                f"(warnings: {last['warnings']})")

    def _step_assert_written(self, args: list[str], tail) -> None:
        if len(args) != 1:
            raise ScenarioError("usage: assert-written N")
        last = self._last("exec")[0]
        if last["written"] != int(args[0]):
            raise ScenarioError(f"wrote {last['written']}, expected {args[0]}")

    def _live_stats(self) -> dict[str, dict]:
        vo = self._require_vo()
        out = {}
        for site, proc in vo.nodes.items():
            if proc.poll() is None and site in self.clients:
                out[site] = self.clients[site].stats()
        return out

    def _step_assert_no_rquery(self, args: list[str], tail) -> None:
        for site, stats in self._live_stats().items():
            frames = stats["traffic"].get("RQUERY", {}).get("frames", 0)
            if frames:
                raise ScenarioError(f"{site} saw {frames} RQUERY frames")

    def _step_assert_locality(self, args: list[str], tail) -> None:
        for site, stats in self._live_stats().items():
            for op in _LOCALITY_OPS:
                moved = stats["traffic"].get(op, {}).get("binary_bytes", 0)
                if moved:
                    raise ScenarioError(
                        f"{site} moved {moved} binary bytes over {op}")


def _dump_manifest(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def run_scenario(script_path: str | Path, out=sys.stdout) -> int:
    """Execute a scenario; returns the number of failed steps."""
    steps = ScenarioRunner(script_path, out=out).run()
    return sum(1 for s in steps if not s.ok)
