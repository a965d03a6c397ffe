"""The two workloads.  Each runs closed loops (a client sends its next
request only after the previous answer) and returns an :class:`Outcome`.

Both start with the same preload: the cohort uploaded batch by batch, with
``smf-density`` run over each batch as it lands.

* ``query-selective``: two clients at two origins, queries that each return
  at most ~2% of images; time goes to the catalog scan.
* ``query-broad``: one client rotating the origin, queries that return at
  least ~50% of rows; time goes to rendering, shipping and parsing XML.

The metrics are medians over upload batches, EXEC_ALG passes, queries and
one-second windows.  Between operations the run samples the host's speed
(see calibrate.py), and records the span of each phase.
"""

from __future__ import annotations

import resource
import threading
import time
from dataclasses import dataclass, field

from gridbox.errors import GridError

import gate
import inputs as inp
from calibrate import Speed
from vo import start_vo


@dataclass
class OpLog:
    """Latencies (s) of one kind of end-to-end operation, split by whether
    the traced run traced them, plus failure counts."""

    lat: list = field(default_factory=list)
    traced_lat: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    images: int = 0      # images uploaded or processed
    wall: float = 0.0    # seconds the loops ran
    user_cpu: float = 0.0  # CPU seconds of the process meanwhile, user mode
    sys_cpu: float = 0.0   # and system (kernel) mode
    # ADD and EXEC_ALG: (images, user CPU s, system CPU s, start, end) per batch or pass
    chunks: list = field(default_factory=list)
    # QUERY: (start, end, text) of each untraced answer, and the loop's span
    intervals: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def record(self, seconds: float, traced: bool) -> None:
        (self.traced_lat if traced else self.lat).append(seconds)

    def add_chunk(self, images: int, start: float, since) -> None:
        """Book one batch or pass begun at ``start``: ``images`` done, using
        the process CPU time spent after ``getrusage`` gave ``since``."""
        end, now = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        user, system = now.ru_utime - since.ru_utime, now.ru_stime - since.ru_stime
        self.images += images
        self.wall += end - start
        self.user_cpu += user
        self.sys_cpu += system
        if images:
            self.chunks.append((images, user, system, start, end))

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


@dataclass
class Outcome:
    setup_s: float
    logs: dict           # "add" / "exec" / "query" -> OpLog
    disk_bytes: int      # catalog.log + blob store + pseudonyms.log, at the end
    after_upload: dict   # {"log": bytes, "store": bytes, "images": n}
    traffic: dict        # accountant totals over the query loop
    query_rows: dict     # query text -> rows in its answer
    speed: Speed         # host-speed samples over the run
    phases: dict         # "setup" / "preload" / "query" -> (start, end)


SETUP_SAMPLES = 10   # host-speed samples before and after the VO start-ups
ADDS_PER_SAMPLE = 8  # uploads between host-speed samples


class Run:
    """State shared by one workload run."""

    def __init__(self, inputs, workdir, seconds: float, tracer):
        self.inputs, self.workdir, self.seconds, self.tracer = inputs, workdir, seconds, tracer
        self.logs = {"add": OpLog(), "exec": OpLog(), "query": OpLog()}
        self.wrong: list = []
        self.speed = Speed()
        self.phases: dict = {}
        self.vo = None
        self.traffic: dict = {}
        self.query_rows: dict = {}  # query text -> rows in its answer

    def op(self, kind: str, traced: bool, fn, *args, count=None):
        """Time one operation; returns its result, or None when it failed."""
        log = self.logs[kind]
        log.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.op(kind, traced, fn, *args, count=count)
        except GridError as e:
            log.fail(f"{kind}: {type(e).__name__}: {e}")
            return None
        log.record(time.perf_counter() - t0, traced)
        return result

    def traced(self, i: int) -> bool:
        """The traced run traces every other operation, so traced and
        untraced latencies interleave and their gap is the tracing overhead."""
        return self.tracer is not None and i % 2 == 0

    # --- phases -------------------------------------------------------------------

    def start(self) -> float:
        t0 = time.perf_counter()
        self._sample_speed(SETUP_SAMPLES)
        self.vo, seconds = start_vo(self.workdir, inp.SITES, self.inputs.secrets)
        self._sample_speed(SETUP_SAMPLES)
        self.phases["setup"] = (t0, time.perf_counter())
        return seconds

    def _sample_speed(self, n: int) -> None:
        for _ in range(n):
            self.speed.sample()

    def upload(self, after_batch) -> dict:
        """Every raw file through ``NodeClient.add_bytes``, one client, batch
        by batch in date order; ``after_batch(i, batch)`` runs after each."""
        log = self.logs["add"]
        start = time.perf_counter()
        i = 0
        for b, batch in enumerate(self.inputs.batches):
            t0, r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
            added = 0
            for site, data in batch.files:
                if self.op("add", self.traced(i), self.vo.clients[site].add_bytes,
                           data) is not None:
                    added += 1
                i += 1
                if i % ADDS_PER_SAMPLE == 0:
                    self.speed.sample()
            log.add_chunk(added, t0, r0)
            after_batch(b, batch)
        self.phases["preload"] = (start, time.perf_counter())
        return {"log": self.vo.disk_bytes(("catalog.log",)),
                "store": self.vo.disk_bytes(("store",)), "images": log.images}

    def exec_pass(self, i: int, origin: str, name: str, version: int,
                  selector: str, covered: set) -> set:
        """One EXEC_ALG pass, checked; ``covered`` holds the images earlier
        passes of the same version processed.  Returns it with this pass's."""
        log = self.logs["exec"]
        t0, r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        got = self.op("exec", self.traced(i), self.vo.clients[origin].exec_algorithm,
                      name, selector, version, count=lambda r: r[0]["written"])
        written = 0 if got is None or got[1] else got[0]["written"]
        log.add_chunk(written, t0, r0)
        self.speed.sample()
        if got is None:
            return covered
        result, warnings = got
        if warnings:
            log.fail(f"exec {name} v{version}: incomplete: {warnings}")
            return covered
        return gate.check_exec(self.vo, self.inputs, result, name, version,
                               selector, covered)

    def query_loop(self, queries: list[str], origins: list[tuple]) -> None:
        """Closed loops for ``seconds``, one thread per entry of ``origins``;
        each entry lists the origin sites that client cycles through."""
        reference, self.query_rows = gate.reference_answers(self.vo, queries)
        log = self.logs["query"]
        before = _traffic(self.vo)
        lock = threading.Lock()
        per_thread = [[self.vo.client(site) for site in sites] for sites in origins]
        start = time.perf_counter()
        deadline = start + self.seconds

        def client_loop(c: int, sites: tuple) -> None:
            clients = per_thread[c]
            i = 0
            while time.perf_counter() < deadline:
                # every query is asked at every origin of this client in turn
                client = clients[i % len(clients)]
                text = queries[(c + i // len(clients)) % len(queries)]
                traced = self.traced(i)
                with lock:
                    log.attempted += 1
                t0 = time.perf_counter()
                try:
                    if self.tracer is None:
                        _, warnings = client.query(text)
                    else:
                        _, warnings = self.tracer.op("query", traced, client.query, text)
                except GridError as e:
                    with lock:
                        log.fail(f"query: {type(e).__name__}: {e}")
                    i += 1
                    continue
                t1 = time.perf_counter()
                with lock:
                    if warnings:
                        log.fail(f"query {text!r}: incomplete: {warnings}")
                    elif client.last_xml != reference[text]:
                        self.wrong.append(f"{text!r} at {sites[i % len(sites)]}")
                    else:
                        log.record(t1 - t0, traced)
                        if not traced:
                            log.intervals.append((t0, t1, text))
                self.speed.sample()
                i += 1

        threads = [threading.Thread(target=client_loop, args=(c, sites), daemon=True)
                   for c, sites in enumerate(origins)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = time.perf_counter()
        log.wall += end - start
        log.spans.append((start, end))
        self.phases["query"] = (start, end)
        after = _traffic(self.vo)
        self.traffic = {k: after[k] - before[k] for k in after}

    def outcome(self, setup_s: float, after_upload: dict) -> Outcome:
        if self.wrong:
            raise gate.GateError(f"{len(self.wrong)} answers differed from the first "
                                 f"answer to the same query: {self.wrong[:3]}")
        gate.check_no_pixels(self.vo)
        return Outcome(setup_s, self.logs, self.vo.disk_bytes(), after_upload,
                       self.traffic, self.query_rows, self.speed, self.phases)


def _traffic(vo) -> dict:
    totals = {"frames": 0, "json_bytes": 0, "binary_bytes": 0}
    for node in vo.nodes.values():
        for row in node.accountant.snapshot().values():
            for k in totals:
                totals[k] += row[k]
    return totals


# --- workloads ---------------------------------------------------------------------

def _query_setup(run: Run) -> tuple[float, dict]:
    """VO start, then the preload: the cohort upload, with ``smf-density``
    run over each batch as it lands.  Only the VO start counts as set-up
    time; the preload is measured by the ingest and exec metrics."""
    setup_s = run.start()
    covered: set = set()

    def density(b: int, batch) -> None:
        nonlocal covered
        covered = run.exec_pass(b, inp.SITES[0], "smf-density", 1, batch.selector,
                                covered)

    after_upload = run.upload(density)
    gate.check_manifest(run.vo, run.inputs)
    return setup_s, after_upload


def query_selective(run: Run) -> Outcome:
    setup_s, after_upload = _query_setup(run)
    run.query_loop(inp.selective_queries(run.inputs),
                   [(inp.SITES[0],), (inp.SITES[1],)])
    return run.outcome(setup_s, after_upload)


def query_broad(run: Run) -> Outcome:
    setup_s, after_upload = _query_setup(run)
    run.query_loop(inp.broad_queries(run.inputs), [inp.SITES])
    return run.outcome(setup_s, after_upload)


WORKLOADS = {
    "query-selective": query_selective,
    "query-broad": query_broad,
}
