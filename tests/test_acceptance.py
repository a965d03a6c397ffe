"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single
``CRITERION n PASS/FAIL`` line (visible under ``pytest -s`` and in the
verbose test ids).  Criteria 3 and 6 audit artifacts recorded while the
earlier criteria ran: per-node traffic ledgers and a full capture of every
frame this process sent.
"""

import math
import random
import re
import shutil
import threading
import time
from contextlib import contextmanager
from hashlib import sha256

import numpy as np
import pytest

import oracles
from conftest import build_vo, make_image, make_image_bytes
from gridbox import algorithms as alg
from gridbox.anonymize import anonymize_for_site
from gridbox.cohort import (
    CohortSpec,
    canary_strings,
    manifest_for,
    plan_site,
    spec_for_site,
    upload_site,
)
from gridbox.ids import IdMinter
from gridbox.mgi import parse_mgi, write_mgi
from gridbox.node import GridNode, mint_token
from gridbox.query import parse_query
from gridbox.resultset import ResultSet
from gridbox.wire import add_capture_tap, remove_capture_tap, request

SITE_POOL = ("CAM", "UDI", "LEE", "OXF")

_DATE_RE = re.compile(rb"\d{4}-\d{2}-\d{2}")


class PrivacyScanner:
    """Streaming scan of every sent frame: remembers violations, not frames."""

    def __init__(self):
        self.frames = 0
        self.bytes = 0
        self.violations = []
        self._dates = set()
        self._lock = threading.Lock()

    def expect(self, canaries):
        with self._lock:
            for c in canaries:
                if c != b"Canary-":
                    self._dates.add(c)

    def observe(self, frame: bytes):
        hits = []
        if b"Canary-" in frame:
            hits.append(b"Canary-")
        for found in set(_DATE_RE.findall(frame)):
            if found in self._dates:
                hits.append(found)
        with self._lock:
            self.frames += 1
            self.bytes += len(frame)
            self.violations.extend(hits)


WIRE = PrivacyScanner()
TRIAL_LEDGERS = []  # accountant snapshots from every criterion-1 node


@pytest.fixture(scope="module", autouse=True)
def wire_tap():
    add_capture_tap(WIRE.observe)
    yield
    remove_capture_tap(WIRE.observe)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n} FAIL — {label}", flush=True)
        raise
    print(f"CRITERION {n} PASS — {label}", flush=True)


# --- random query generation for the federation trials ------------------------------

_INT_OPS = ("=", "!=", "<", "<=", ">", ">=")
_ORD_OPS = ("<", "<=", ">", ">=")


def _random_date(rnd):
    return f"{rnd.randint(1994, 2006)}-{rnd.randint(1, 12):02d}-{rnd.randint(1, 28):02d}"


def _random_leaf(rnd, ids):
    roll = rnd.random()
    if roll < 0.08 and ids["patients"]:
        return f"patient.id = {rnd.choice(ids['patients'])}"
    if roll < 0.14 and ids["images"]:
        return f"image.id = {rnd.choice(ids['images'])}"
    if roll < 0.17:
        fake = f"{rnd.choice(SITE_POOL)}:patient:{rnd.getrandbits(128):032x}"
        return f"patient.id = {fake}"
    return rnd.choice([
        lambda: f"patient.sex = {rnd.choice('FM')}",
        lambda: f"patient.sex != {rnd.choice('FM')}",
        lambda: f"patient.age {rnd.choice(_INT_OPS)} {rnd.randint(30, 90)}",
        lambda: "patient.age in [{},{}]".format(*sorted(
            (rnd.randint(30, 90), rnd.randint(30, 90)))),
        lambda: f"study.date {rnd.choice(_ORD_OPS)} {_random_date(rnd)}",
        lambda: f"image.laterality = {rnd.choice(['L', 'R'])}",
        lambda: f"image.view {rnd.choice(['=', '!='])} {rnd.choice(['CC', 'MLO'])}",
        lambda: f"image.dose_mgy {rnd.choice(_ORD_OPS)} {round(rnd.uniform(0, 2.5), 2)}",
        lambda: f"derived.density {rnd.choice(_ORD_OPS)} {round(rnd.uniform(0, 0.01), 4)}",
        lambda: rnd.choice(["true", "false"]),
    ])()


def _random_expr(rnd, ids, depth=0):
    leaf = _random_leaf(rnd, ids)
    if rnd.random() < 0.25:
        leaf = f"not {leaf}"
    if depth >= 2 or rnd.random() < 0.45:
        return leaf
    other = _random_expr(rnd, ids, depth + 1)
    joined = f"{leaf} {rnd.choice(['and', 'or'])} {other}"
    return f"({joined})" if rnd.random() < 0.3 else joined


def _random_query(rnd, ids):
    target = rnd.choice(["images", "images", "images", "patients", "studies"])
    return f"select {target} where {_random_expr(rnd, ids)}"


def _run_trial(index, root):
    rnd = random.Random(7000 + index)
    sites = list(SITE_POOL[:rnd.randint(1, 4)])
    vo = build_vo(root, sites=sites)
    try:
        specs = {site: CohortSpec(seed=rnd.randrange(10**6), site=site,
                                  n_patients=rnd.randint(1, 5),
                                  images_per_patient=rnd.uniform(1.5, 3.5),
                                  dose_missing=0.15)
                 for site in sites}
        WIRE.expect(canary_strings(specs))
        for site in sites:
            upload_site(vo.client(site), specs[site])
        if rnd.random() < 0.25:
            _, exec_warnings = vo.client(rnd.choice(sites)).exec_algorithm(
                "smf-density", "select images where image.laterality = L")
            assert exec_warnings == []

        catalogs = [vo.nodes[s].catalog for s in sites]
        ids = {"patients": [pid for c in catalogs for pid in sorted(
                   {row["attrs"]["patient.id"] for row in oracles.catalog_to_rows(c)})],
               "images": [str(i.id) for c in catalogs for i in c.images()]}
        for _ in range(rnd.randint(5, 12)):
            text = _random_query(rnd, ids)
            want = oracles.expected_ids(parse_query(text), catalogs)
            for site in sites:
                result, warnings = vo.nodes[site].run_query(text)
                assert warnings == [], (text, site, warnings)
                got = {r.id for r in result.rows}
                assert got == want, (index, site, text,
                                     sorted(got ^ want)[:5])
        for site in sites:
            TRIAL_LEDGERS.append(vo.nodes[site].accountant.snapshot())
    finally:
        vo.stop()
        shutil.rmtree(root, ignore_errors=True)


def test_criterion_1_federation_oracle(tmp_path_factory):
    root = tmp_path_factory.mktemp("trials")
    with criterion(1, "federated queries equal the concatenated-catalog oracle "
                      "over 200 randomized trials"):
        started = time.monotonic()
        for index in range(200):
            _run_trial(index, root / f"t{index}")
        elapsed = time.monotonic() - started
        assert elapsed < 300, f"trials took {elapsed:.0f}s (budget 300s)"
    print(f"  (200 trials in {time.monotonic() - started:.1f}s)", flush=True)


# --- criteria 2 and 5 share one generated 2-node VO ---------------------------------

@pytest.fixture(scope="module")
def table2_vo(tmp_path_factory):
    vo = build_vo(tmp_path_factory.mktemp("table2"), sites=("CAM", "UDI"))
    specs = {site: spec_for_site(site, seed=42, n_patients=20)
             for site in vo.nodes}
    WIRE.expect(canary_strings(specs))
    vo.specs = specs
    vo.manifest = manifest_for(specs, vo.secrets)
    for site in vo.nodes:
        upload_site(vo.client(site), specs[site])
    yield vo
    vo.stop()


def test_criterion_2_table_shape(table2_vo):
    with criterion(2, "the four query-battery answers are byte-identical from "
                      "either node and equal the manifest"):
        assert len(table2_vo.manifest["queries"]) == 4
        for entry in table2_vo.manifest["queries"]:
            xml_cam, _ = table2_vo.client("CAM").query_xml(entry["text"])
            xml_udi, _ = table2_vo.client("UDI").query_xml(entry["text"])
            assert xml_cam == xml_udi, entry["label"]
            rs = ResultSet.from_xml(xml_cam)
            assert rs.summary == (entry["images"], entry["patients"]), entry["label"]
            assert sorted(r.id for r in rs.rows) == entry["rows"], entry["label"]


def test_criterion_3_data_locality():
    with criterion(3, "no binary payload ever moved over QUERY/RQUERY/EXEC_ALG "
                      "in the criterion-1 trials"):
        assert TRIAL_LEDGERS, "criterion 1 must have recorded traffic ledgers"
        carried_binary = set()
        for snapshot in TRIAL_LEDGERS:
            for op, row in snapshot.items():
                if row["binary_bytes"]:
                    carried_binary.add(op)
                if op in ("QUERY", "RQUERY", "EXEC_ALG"):
                    assert row["binary_bytes"] == 0, (op, row)
        assert "ADD" in carried_binary  # the accountant demonstrably works
        assert carried_binary <= {"ADD", "RETRIEVE", "PEER_FETCH"}


def test_criterion_4_add_retrieve_roundtrip(tmp_path_factory):
    vo = build_vo(tmp_path_factory.mktemp("roundtrip"), sites=("CAM", "UDI"))
    rnd = random.Random(4040)
    try:
        with criterion(4, "50 random files (1 KB–8 MB) added at A come back "
                          "bit-identical at B, every op under 5 s"):
            minter = vo.nodes["CAM"].minter
            for n in range(50):
                side = int(round(math.exp(rnd.uniform(math.log(23),
                                                      math.log(2040)))))
                rng = np.random.default_rng(rnd.getrandbits(64))
                pixels = rng.integers(0, 1 << 16, size=(side, side),
                                      dtype=np.uint16)
                birth = f"{rnd.randint(1920, 1965)}-{rnd.randint(1, 12):02d}-{rnd.randint(1, 28):02d}"
                WIRE.expect([birth.encode()])
                raw = make_image_bytes(pixels, patient_id=f"P-rt-{n}",
                                       name=f"Canary-RT-{n}", birth=birth,
                                       rows=side, cols=side)
                sent = write_mgi(anonymize_for_site(parse_mgi(raw), minter))
                assert 1024 <= len(sent) <= 8 * 1024 * 1024

                t0 = time.monotonic()
                added = vo.client("CAM").add_bytes(sent)
                add_s = time.monotonic() - t0
                t0 = time.monotonic()
                back = vo.client("UDI").retrieve(added["image"])
                fetch_s = time.monotonic() - t0

                assert back == sent
                assert sha256(back).hexdigest() == added["file"]["sha256"]
                assert add_s < 5 and fetch_s < 5, (n, add_s, fetch_s)
    finally:
        vo.stop()


def test_criterion_5_smf_workflow(table2_vo):
    with criterion(5, "smf-density over the L selector writes per-site "
                      "brute-force counts and density queries match the plans"):
        plans = {site: plan_site(spec) for site, spec in table2_vo.specs.items()}
        l_counts = {site: sum(1 for p in ps for im in p.images
                              if im.laterality == "L")
                    for site, ps in plans.items()}

        result, warnings = table2_vo.client("CAM").exec_algorithm(
            "smf-density", "select images where image.laterality = L")
        assert warnings == []
        assert result["per_site"] == l_counts
        assert result["written"] == sum(l_counts.values())
        for site, node in table2_vo.nodes.items():
            assert node.catalog.stats()["derived"] == l_counts[site]

        # independent join oracle straight off the generation plans
        expected = {}
        for site, ps in plans.items():
            minter = IdMinter(site, table2_vo.secrets[site])
            for p in ps:
                pid = minter.mint_keyed("patient", p.original_id)
                for im in p.images:
                    if im.laterality == "L" and im.n_blocks > 0:
                        gid = str(minter.mint_keyed(
                            "image",
                            f"{pid}|{im.study_id}|{im.series_id}|{im.image_id}"))
                        expected[gid] = (str(pid), 9 * im.n_blocks / 4096)

        for site in table2_vo.nodes:
            rs, warnings = table2_vo.client(site).query(
                "select images where derived.density > 0")
            assert warnings == []
            assert {r.id for r in rs.rows} == set(expected)
            for row in rs.rows:
                assert row.fields["derived.density"] == repr(expected[row.id][1])

        rs, _ = table2_vo.client("UDI").query(
            "select patients where derived.density > 0")
        assert {r.id for r in rs.rows} == {pid for pid, _ in expected.values()}


def test_criterion_6_privacy():
    with criterion(6, "no pre-anonymization name or full birth date appears "
                      "anywhere in the captured wire traffic"):
        probe = PrivacyScanner()  # prove the sensor catches planted leaks
        probe.expect([b"1944-02-11"])
        probe.observe(b"..Canary-Jane Doe 1944-02-11..")
        assert probe.violations == [b"Canary-", b"1944-02-11"]

        assert WIRE.frames > 5_000, "capture looks implausibly small"
        assert WIRE.bytes > 50 * 1024 * 1024
        assert WIRE.violations == []
    print(f"  (scanned {WIRE.frames} frames, {WIRE.bytes / 1e6:.0f} MB)",
          flush=True)


def test_criterion_7_algorithm_determinism():
    rnd = random.Random(707)
    with criterion(7, "1000 random (program, image) pairs equal the pure-"
                      "Python oracle bit-for-bit on every emitted value"):
        for trial in range(1000):
            names = iter("abcdefgh")
            lines = []
            for _ in range(rnd.randint(1, 5)):
                verb = rnd.choice(["threshold", "fraction_above", "mean",
                                   "max", "count_components"])
                t = rnd.choice([0, 1, 8000, 60000, 65535,
                                rnd.randint(0, 65535)])
                if verb == "threshold":
                    lines.append(f"threshold {t}")
                elif verb in ("mean", "max"):
                    lines.append(f"{verb} emit {next(names)}")
                else:
                    lines.append(f"{verb} {t} emit {next(names)}")
            if not any(" emit " in line for line in lines):
                lines.append(f"mean emit {next(names)}")
            program = alg.parse_algorithm("\n".join(lines))

            rng = np.random.default_rng(trial)
            shape = (rnd.randint(1, 32), rnd.randint(1, 32))
            roll = rnd.random()
            if roll < 0.1:
                pixels = np.full(shape, rnd.choice([0, 65535, 8000]), np.uint16)
            else:
                pixels = rng.integers(0, 1 << 16, size=shape, dtype=np.uint16)
                if roll < 0.4:  # plant a few uniform patches
                    for _ in range(rnd.randint(1, 3)):
                        r = rnd.randrange(shape[0])
                        c = rnd.randrange(shape[1])
                        pixels[r:r + 3, c:c + 3] = 60000

            img = make_image(pixels, rows=shape[0], cols=shape[1])
            got = alg.execute_on_image(program, img)
            want = oracles.run_program(program.statements, pixels)
            assert set(got) == set(want), (trial, lines)
            for name in want:
                assert repr(got[name]) == repr(want[name]), \
                    (trial, lines, name, got[name], want[name])


def _state_inventory(node):
    files = sorted((str(p.relative_to(node.config.data_dir)), p.stat().st_size)
                   for p in node.config.data_dir.rglob("*") if p.is_file())
    return node.catalog.stats(), files


def test_criterion_8_auth_contract(tmp_path_factory):
    vo = build_vo(tmp_path_factory.mktemp("auth"), sites=("CAM", "UDI"))
    try:
        with criterion(8, "missing/expired/forged tokens fail every non-AUTH "
                          "op with AuthFailed and change no state"):
            added = vo.client("CAM").add_bytes(
                write_mgi(anonymize_for_site(parse_mgi(make_image_bytes()),
                                             vo.nodes["CAM"].minter)))
            node = vo.nodes["CAM"]
            vo_key = node.vo_key
            now = int(time.time())
            bad_tokens = {
                "missing": "",
                "expired": mint_token(vo_key, "alice", ttl=10, now=now - 3600),
                "forged-key": mint_token(b"\x99" * 32, "alice", ttl=3600),
                "tampered": vo.client("CAM").token[:-4] + "beef",
            }
            payload = write_mgi(anonymize_for_site(
                parse_mgi(make_image_bytes(patient_id="P-denied")), node.minter))
            ops = [
                ("ADD", {}, payload),
                ("RETRIEVE", {"id": added["image"]}, b""),
                ("QUERY", {"text": "select images where true"}, b""),
                ("ADD_ALG", {"name": "denied", "source": "mean emit m"}, b""),
                ("EXEC_ALG", {"name": "smf-density",
                              "selector": "select images where true"}, b""),
                ("STATS", {}, b""),
            ]
            before = _state_inventory(node)
            for op, params, binary in ops:
                for kind, token in bad_tokens.items():
                    response, _ = request(node.address, op, params,
                                          token=token, binary=binary)
                    assert response["status"] == "error", (op, kind)
                    assert response["error_code"] == "AuthFailed", (op, kind)
                assert _state_inventory(node) == before, op
            # peer ops reject missing/forged signatures the same way
            for op in ("RQUERY", "PEER_FETCH"):
                response, _ = request(node.address, op, {"id": added["image"],
                                                         "text": "x", "hop": 1})
                assert response["error_code"] == "AuthFailed", op
                response, _ = request(node.address, op,
                                      {"id": added["image"], "text": "x",
                                       "hop": 1, "peer_site": "UDI",
                                       "peer_sig": "00" * 32})
                assert response["error_code"] == "AuthFailed", op
            assert _state_inventory(node) == before
    finally:
        vo.stop()


def test_criterion_9_partial_failure(tmp_path_factory):
    vo = build_vo(tmp_path_factory.mktemp("partial"), sites=("CAM", "UDI"))
    rnd = random.Random(99)
    try:
        with criterion(9, "killing a node mid-query always yields the "
                          "survivor's rows plus a warning, with zero hangs"):
            specs = {site: CohortSpec(seed=9, site=site, n_patients=3,
                                      images_per_patient=2.0)
                     for site in vo.nodes}
            WIRE.expect(canary_strings(specs))
            for site in vo.nodes:
                upload_site(vo.client(site), specs[site])
            cam = vo.nodes["CAM"]
            text = "select images where patient.sex = F"
            q = parse_query(text)
            cam_ids = oracles.expected_ids(q, [cam.catalog])
            all_ids = oracles.expected_ids(
                q, [cam.catalog, vo.nodes["UDI"].catalog])

            udi_config = vo.nodes["UDI"].config
            warned = 0
            for rep in range(50):
                # every fifth rep kills before dispatch so the degraded
                # path is provably exercised; the rest race the query
                pre_kill = rep % 5 == 0
                outcome = {}

                def ask():
                    result, warnings = cam.run_query(text)
                    outcome["ids"] = {r.id for r in result.rows}
                    outcome["warnings"] = warnings

                if pre_kill:
                    vo.nodes["UDI"].stop()
                asker = threading.Thread(target=ask)
                asker.start()
                if not pre_kill:
                    time.sleep(rnd.uniform(0, 0.004))
                    vo.nodes["UDI"].stop()
                asker.join(timeout=15)
                assert not asker.is_alive(), f"rep {rep}: query hung"

                warnings = outcome["warnings"]
                if warnings:
                    warned += 1
                    assert len(warnings) == 1 and \
                        warnings[0].startswith("UDI unreachable:"), warnings
                    assert outcome["ids"] == cam_ids
                else:
                    assert outcome["ids"] == all_ids
                if pre_kill:
                    assert warnings, f"rep {rep}: dead site went unnoticed"

                vo.nodes["UDI"] = GridNode(udi_config)
                vo.nodes["UDI"].start()
                cam.membership(max_age=0)
            assert warned >= 10
    finally:
        vo.stop()
