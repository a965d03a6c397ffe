"""gridbox benchmark: one command runs one workload by name.

    python3 perfbench/run.py --workload query-selective --seed 1 --seconds 25 --trace 0

Run it from the root of a gridbox checkout; it builds the program from
``src/`` there.  Inputs come from ``--seed``; every answer is checked
against independent references before its timing counts (see gate.py).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last line of standard output is
one JSON object.  Run data lives under ``.perfbench/`` in the working
directory and is removed at exit; a traced run leaves its spans there.
The process runs on one CPU, and its timed figures are given at a
reference host speed measured during the run (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()


def _import_program():
    """Import gridbox from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "gridbox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridbox sources under {src}; "
                 "run from the root of a gridbox checkout")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import gridbox
    if Path(gridbox.__file__).resolve().parent != (src / "gridbox").resolve():
        sys.exit(f"perfbench: imported gridbox from {gridbox.__file__}, not {src}")


def _pin_to_one_cpu() -> int:
    """Keep this process, and every thread it starts, on one CPU.

    All sites share this interpreter, whose lock lets one thread run Python
    at a time, so a second CPU adds little but lock hand-offs and wake-ups
    across CPUs.  On the 2-CPU VM the bounds were set on, those made every
    timed figure about 1.5 times slower and far less steady from run to
    run.  Called before any thread starts; threads inherit the mask."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _tail(values: list) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples beyond
    it, and that percentile."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _one(start: float, end: float) -> float:
    return 1.0


def _latencies(intervals: list, scale) -> list:
    """(latency ms, text) of each query, times ``scale(start, end)``."""
    return [((t1 - t0) * 1e3 * scale(t0, t1), text) for t0, t1, text in intervals]


def _median_of_query_medians(latencies: list) -> float:
    """Median latency of each query text, averaged over the texts, so the
    figure does not jump between texts of different cost."""
    by_text: dict = {}
    for ms, text in latencies:
        by_text.setdefault(text, []).append(ms)
    return statistics.fmean(statistics.median(v) for v in by_text.values())


def _windowed_rate(intervals: list, spans: list, scale) -> tuple[float, int]:
    """Median over the whole one-second windows of each loop span (or over
    the spans, when one is shorter) of the queries answered per second,
    each over ``scale(window)``; a query counts toward each window in
    proportion to the share of its run time inside it.  Also returns the
    number of windows."""
    width = min(1.0, *(b - a for a, b in spans))
    rates = []
    for a, b in spans:
        for k in range(int((b - a) // width)):
            w0, w1 = a + k * width, a + (k + 1) * width
            done = sum(max(0.0, min(t1, w1) - max(t0, w0)) / (t1 - t0)
                       for t0, t1, _ in intervals if t1 > w0 and t0 < w1)
            rates.append(done / width / scale(w0, w1))
    return statistics.median(rates), len(rates)


def _chunk_median(log, user: bool, system: bool, scale) -> float:
    """Median over batches (ADD) or passes (EXEC_ALG) of process CPU ms per
    image, each times ``scale(start, end)``."""
    return statistics.median((u * user + s * system) * 1e3 / n * scale(a, b)
                             for n, u, s, a, b in log.chunks)


def end_to_end(outcome, inputs) -> tuple[dict, list]:
    """Metrics as reported, plus report lines with sample counts."""
    metrics, notes = {}, []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    q, a, e = (outcome.logs[k] for k in ("query", "add", "exec"))
    speed = outcome.speed
    factor = {phase: speed.factor(*span) for phase, span in outcome.phases.items()}

    def figures(scale) -> dict:
        lat = _latencies(q.intervals, scale)
        return {"query_p50_ms": _median_of_query_medians(lat),
                "query_tail_ms": _tail([ms for ms, _ in lat])[0],
                "query_qps": _windowed_rate(q.intervals, q.spans, scale)[0],
                "ingest_user_cpu_ms_per_img": _chunk_median(a, True, False, scale),
                "exec_cpu_ms_per_img": _chunk_median(e, True, True, scale)}

    units = {"query_p50_ms": "ms", "query_tail_ms": "ms", "query_qps": "queries/s",
             "ingest_user_cpu_ms_per_img": "ms/image", "exec_cpu_ms_per_img": "ms/image"}
    put("setup_s", outcome.setup_s * factor["setup"][0], "s")
    for name, value in figures(speed.around).items():
        put(name, value, units[name])
    notes.append(f"unscaled setup_s {outcome.setup_s:.6g}")
    for name, value in figures(_one).items():
        notes.append(f"unscaled {name} {value:.6g}")
    for phase, (f, n) in factor.items():
        notes.append(f"host speed in the {phase} phase: {f:.4g} of the reference "
                     f"({n} samples)")
    lat = [x * 1e3 for x in q.lat]
    tail, pct = _tail(lat)
    windows = _windowed_rate(q.intervals, q.spans, _one)[1]
    notes.append(f"query: {len(lat)} samples over {len(q.spans)} loops, "
                 f"{len({t for _, _, t in q.intervals})} texts; tail at p{pct:.2f}, "
                 f"max {max(lat):.2f} ms; median of all samples {statistics.median(lat):.6g} ms; "
                 f"qps the median of {windows} one-second windows "
                 f"(whole loops: {len(lat) / q.wall:.6g} queries/s)")
    # ADD and EXEC_ALG spend much of their time in kernel file-system calls,
    # whose cost drifts with the host by more than any bound the benchmark
    # may set, and a slow phase of the host can outlast one pass.  So the
    # compared figures are process CPU times per image, as medians over the
    # upload batches and over the EXEC_ALG passes: user plus system for
    # EXEC_ALG, user only for ADD, whose system time (half its CPU) drifts
    # between runs as much as its wall time.  The wall-clock figures and the
    # CPU split are printed for the record.
    put("rss_peak_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    put("disk_bytes_per_input_byte", outcome.disk_bytes / inputs.raw_bytes, "ratio")
    lat = [x * 1e3 for x in a.lat]
    tail, pct = _tail(lat)
    notes.append(f"ingest (reported, not compared): {a.wall:.6g} s wall, ingest_img_per_s "
                 f"{a.images / a.wall:.6g} images/s, ingest_p50_ms "
                 f"{statistics.median(lat):.6g} ms, ingest_tail_ms {tail:.6g} ms "
                 f"at p{pct:.2f}, {len(lat)} samples in {len(a.chunks)} batches")
    for what, log in (("ingest", a), ("exec", e)):
        notes.append(f"{what} CPU per image over all: user {log.user_cpu * 1e3 / log.images:.6g} ms, "
                     f"system {log.sys_cpu * 1e3 / log.images:.6g} ms; "
                     f"median per {'batch' if log is a else 'pass'}: "
                     f"user {_chunk_median(log, True, False, _one):.6g} ms, "
                     f"system {_chunk_median(log, False, True, _one):.6g} ms")
    for what, log in (("ingest user", a), ("exec", e)):
        notes.append(f"{what} CPU ms per image by {'batch' if log is a else 'pass'}: " + " ".join(
            f"{(u + s * (log is e)) * 1e3 / n:.3f}" for n, u, s, _, _ in log.chunks))
    notes.append(f"exec (reported, not compared): {e.wall:.6g} s wall, exec_img_per_s "
                 f"{e.images / e.wall:.6g} images/s, {len(e.chunks)} EXEC_ALG passes, "
                 f"{e.images} images")
    return metrics, notes


def per_layer(outcome, tracer) -> tuple[dict, list]:
    from tracing import LAYER_KINDS, OP_UNIT, Analysis

    a = Analysis(tracer.spans, tracer.counted)
    metrics, notes = {}, []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for kind, layers in LAYER_KINDS.items():
        unit = OP_UNIT[kind]
        for layer in layers:
            put(f"{layer}.self_ms_per_{kind}", a.per(kind, a.layer(kind, layer, "self_ms")),
                f"ms/{unit}")
            put(f"{layer}.busy_ms_per_{kind}", a.per(kind, a.layer(kind, layer, "busy_ms")),
                f"ms/{unit}")
            put(f"{layer}.calls_per_{kind}", a.per(kind, a.layer(kind, layer, "calls")),
                f"calls/{unit}")
    for metric, kind, span in (
            ("catalog.select_ms", "query", "catalog.select"),
            ("catalog.vocabulary_ms", "query", "catalog.vocabulary"),
            ("resultset.to_xml_ms", "query", "resultset.to_xml"),
            ("resultset.from_xml_ms", "query", "resultset.from_xml"),
            ("resultset.merge_ms", "query", "resultset.merge"),
            ("node.run_query_ms", "query", "node.run_query"),
            ("catalog.ingest_tree_ms", "add", "catalog.ingest_tree"),
            ("blobstore.put_ms", "add", "blobstore.put"),
            ("anonymize.client_ms", "add", "anonymize.client"),
            ("anonymize.node_ms", "add", "anonymize.node"),
            ("mgi.write_ms", "add", "mgi.write"),
            ("mgi.parse_ms", "add", "mgi.parse"),
            ("node.add_ms", "add", "node.add"),
            ("algorithms.execute_ms", "exec", "algorithms.execute"),
            ("algorithms.parse_ms", "exec", "algorithms.parse"),
            ("blobstore.get_ms", "exec", "blobstore.get"),
            ("mgi.exec_parse_ms", "exec", "mgi.parse"),
            ("catalog.upsert_ms", "exec", "catalog.upsert")):
        put(metric, a.per(kind, a.span(kind, span).incl_ms), f"ms/{OP_UNIT[kind]}")
    put("node.local_part_ms", a.per("query", a.local_part_ms), "ms/query")
    put("node.peer_wait_ms", a.per("query", a.peer_wait_ms), "ms/query")
    select, render = a.span("query", "catalog.select"), a.span("query", "resultset.to_xml")
    put("catalog.examined_per_returned",
        a.count("query", "catalog.rows_scanned") / select.n1 if select.n1 else 0.0,
        "rows/row")
    put("resultset.xml_bytes_per_row", render.n1 / render.n2 if render.n2 else 0.0, "B/row")
    queries = len(outcome.logs["query"].lat) + len(outcome.logs["query"].traced_lat)
    put("wire.json_bytes_per_query", outcome.traffic["json_bytes"] / queries, "B/query")
    put("wire.frames_per_query", outcome.traffic["frames"] / queries, "frames/query")
    put("registry.list_calls",
        sum(a.span(kind, "registry.list_nodes").calls for kind in OP_UNIT), "count")
    up = outcome.after_upload
    put("catalog.log_bytes_per_image", up["log"] / up["images"], "B/image")
    put("blobstore.bytes_per_image", up["store"] / up["images"], "B/image")
    overhead = {}
    for kind in ("add", "query"):
        log = outcome.logs[kind]
        overhead[kind] = statistics.median(log.traced_lat) / statistics.median(log.lat) - 1
        notes.append(f"tracing overhead on {kind}: {overhead[kind]:+.1%} "
                     f"({len(log.traced_lat)} traced, {len(log.lat)} untraced)")
    put("trace.overhead_frac", overhead["query"], "share")
    notes.append("traced operations: " + ", ".join(
        f"{k} {a.per_op[k]:.0f} {OP_UNIT[k]} units" for k in OP_UNIT))
    if tracer.missing:
        notes.append("entry points not found, not traced: " + ", ".join(tracer.missing))
    for field in ("self_ms", "busy_ms"):
        what = field.split("_")[0]
        for kind in OP_UNIT:
            top = sorted(((getattr(t, field), name) for (k, name), t in a.totals.items()
                          if k == kind), reverse=True)[:6]
            notes.append(f"largest {what} times per {OP_UNIT[kind]} ({kind}): " + ", ".join(
                f"{name} {a.per(kind, v):.3f} ms" for v, name in top))
        largest = max((getattr(t, field), name) for (k, name), t in a.totals.items()
                      if k == "query")[1]
        select_ms = a.per("query", getattr(select, field))
        resultset_ms = a.per("query", a.layer("query", "resultset", field))
        notes.append(f"ordering: catalog.select is {'' if largest == 'catalog.select' else 'NOT '}"
                     f"the largest query {what} time ({largest} is)")
        notes.append(f"ordering: resultset.* {what} time {resultset_ms:.3f} ms/query "
                     f"{'outweighs' if resultset_ms > select_ms else 'does NOT outweigh'} "
                     f"catalog.select {select_ms:.3f} ms/query")
    return metrics, notes


def environment() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}; in-process VO, loopback traffic only; "
            "catalog and pseudonym logs flush() without fsync")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpu = _pin_to_one_cpu()
    _import_program()

    import inputs as inp
    import tracing
    from gate import GateError
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    inputs = inp.make_inputs(args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    base = ROOT / ".perfbench"
    workdir = base / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    run = Run(inputs, workdir, args.seconds, tracer)
    try:
        outcome = WORKLOADS[args.workload](run)
    except GateError as e:
        print(f"correctness gate failed: {e}", file=sys.stderr)
        return 1
    finally:
        if run.vo is not None:
            run.vo.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    logs = outcome.logs
    attempted = sum(log.attempted for log in logs.values())
    failed = sum(log.failed for log in logs.values())
    if args.trace:
        metrics, notes = per_layer(outcome, tracer)
        tracer.write(base / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, notes = end_to_end(outcome, inputs)
    print(f"workload {args.workload} seed {args.seed}: {len(inp.SITES)} sites, "
          f"{inp.PATIENTS_PER_SITE} patients per site, {inputs.n_images} images "
          f"({inputs.raw_bytes} raw bytes)")
    print(f"environment: {environment()}; pinned to CPU {cpu}")
    for kind, log in logs.items():
        print(f"{kind}: attempted {log.attempted}, failed {log.failed}, "
              f"ops_failed_frac {log.failed / log.attempted if log.attempted else 0.0:.4f}"
              + "".join(f"\n  {err}" for err in log.errors))
    print(f"ops_failed_frac {failed / attempted:.4f} share")
    for text, rows in outcome.query_rows.items():
        print(f"  {rows:5d} rows: {text}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
