"""Span tracing from outside the program, for the traced run.

The tracer wraps public entry points of each gridbox layer (and a few node
methods that mark the query and exec phases) from this file; no program
code changes.  A span records its name, start, end, the CPU time its thread spent
inside it, its thread, parent span, the id of the end-to-end operation it
belongs to, and up to two counts.  A few internal calls are counted, not
timed (see :meth:`Tracer.count`).  Spans carry timings and counts only,
never field values.

Parent links cross threads in two ways: a request frame sent inside a span
makes the receiving handler's span its child (matched on the envelope id),
and the node's thread pool is swapped for one that carries the submitting
thread's context.  Work outside a traced operation runs unwrapped.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class _Ctx(NamedTuple):
    span: int
    req: int
    kind: str


class Span(NamedTuple):
    id: int
    parent: int | None
    req: int
    kind: str
    name: str
    start: float
    end: float
    cpu: float
    tid: int
    n1: float
    n2: float


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counted: list = []  # (operation kind, name, count)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._links: dict = {}
        self._undo: list = []

    # --- end-to-end operations -------------------------------------------------

    def op(self, kind: str, traced: bool, fn, *args, count=None):
        """Run one end-to-end operation; as a root span when ``traced``."""
        if not traced:
            return fn(*args)
        sid = next(self._ids)
        token = _CURRENT.set(_Ctx(sid, sid, kind))
        t0, c0 = time.perf_counter(), time.thread_time()
        result = None
        try:
            result = fn(*args)
            return result
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            _CURRENT.reset(token)
            n = count(result) if count is not None and result is not None else 0
            self.spans.append(Span(sid, None, sid, kind, f"client.{kind}", t0, t1,
                                   c1 - c0, threading.get_ident(), n, 0))

    # --- hooks -------------------------------------------------------------------

    def _wrap(self, fn, name: str, counter=None):
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            cur = _CURRENT.get()
            if cur is None:
                return fn(*args, **kwargs)
            sid = next(ids)
            token = _CURRENT.set(_Ctx(sid, cur.req, cur.kind))
            t0, c0 = time.perf_counter(), time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                _CURRENT.reset(token)
                n1, n2 = counter(args, result) if counter and result is not None else (0, 0)
                spans.append(Span(sid, cur.span, cur.req, cur.kind, name, t0, t1,
                                  c1 - c0, threading.get_ident(), n1, n2))

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, orig, new) -> None:
        """Swap ``orig`` for ``new`` in every gridbox module that holds it."""
        for mod in [m for n, m in sys.modules.items() if n.startswith("gridbox")]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, attr, new)

    def function(self, module, attr: str, name: str, counter=None) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._replace_everywhere(orig, self._wrap(orig, name, counter))

    def function_in(self, module, attr: str, name: str, counter=None) -> None:
        """Wrap ``attr`` only as seen from ``module`` (one caller's view)."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._replace(module, attr, self._wrap(orig, name, counter))

    def method(self, cls, attr: str, name: str, counter=None) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, counter))
        else:
            wrapped = self._wrap(raw, name, counter)
        self._replace(cls, attr, wrapped)

    def count(self, cls, attr: str, name: str, counter) -> None:
        """Add ``counter(result)`` of each call made inside a traced operation
        to the counts under ``name``, without a span of its own."""
        orig, counted = cls.__dict__.get(attr), self.counted
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return

        def counting(*args, **kwargs):
            result = orig(*args, **kwargs)
            cur = _CURRENT.get()
            if cur is not None:
                counted.append((cur.kind, name, counter(result)))
            return result

        self._replace(cls, attr, counting)

    def handler(self, cls, attr: str, name: str) -> None:
        """Wrap a server handler ``(self, envelope, binary)`` so a request
        sent from inside a span is traced as that span's child."""
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        inner, links = self._wrap(orig, name), self._links

        def handle(obj, envelope, binary):
            link = links.pop(envelope.get("id"), None)
            if link is None:
                return orig(obj, envelope, binary)
            token = _CURRENT.set(link)
            try:
                return inner(obj, envelope, binary)
            finally:
                _CURRENT.reset(token)

        self._replace(cls, attr, handle)

    def link_requests(self, wire_module) -> None:
        """Remember which span sent each request frame."""
        orig, links = wire_module.send_frame, self._links

        def send_frame(sock, envelope, binary=b""):
            cur = _CURRENT.get()
            if cur is not None and "op" in envelope:
                links[envelope.get("id")] = cur
            return orig(sock, envelope, binary)

        self._replace_everywhere(orig, send_frame)

    def carry_context(self, module) -> None:
        if getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._replace(module, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> None:
    """Hook every layer."""
    from gridbox import algorithms, blobstore, catalog, client, mgi, node, query
    from gridbox import registry, resultset, wire

    tracer.link_requests(wire)
    tracer.carry_context(node)
    # query: parse and lower
    for attr in ("parse_query", "print_query", "decompose", "lower_to_local_plan"):
        tracer.function(query, attr, f"query.{attr}")
    # catalog: select, vocabulary, ingest, upsert, log
    cat = catalog.SiteCatalog
    tracer.method(cat, "select", "catalog.select", lambda a, r: (len(r), 0))
    # the image rows a scan builds and walks
    tracer.count(cat, "_contexts", "catalog.rows_scanned", len)
    tracer.method(cat, "vocabulary", "catalog.vocabulary")
    tracer.method(cat, "ingest_tree", "catalog.ingest_tree")
    tracer.method(cat, "upsert", "catalog.upsert")
    tracer.method(cat, "_log", "catalog.log")
    # resultset: render, parse, merge
    rs = resultset.ResultSet
    tracer.method(rs, "to_xml", "resultset.to_xml", lambda a, r: (len(r), len(a[0].rows)))
    tracer.method(rs, "from_xml", "resultset.from_xml")
    tracer.function(resultset, "merge", "resultset.merge")
    # wire: client requests and node-to-node requests
    tracer.function(wire, "request", "wire.request")
    tracer.method(node.GridNode, "_peer_request", "wire.peer_request")
    # node: handler entry, query phases, ADD and EXEC handlers
    gn = node.GridNode
    tracer.handler(gn, "_handle", "node.handle")
    tracer.method(gn, "run_query", "node.run_query")
    tracer.method(gn, "_local_resultset", "node.local_part")
    tracer.method(gn, "_remote_query", "node.remote_part")
    tracer.method(gn, "_op_add", "node.add")
    tracer.method(gn, "_op_exec_alg", "node.exec")
    tracer.method(gn, "_execute_local", "node.exec_local")
    tracer.method(gn, "_remote_exec", "node.remote_exec")
    # registry: membership refreshes and the registry's own handler
    tracer.method(registry.RegistryClient, "list_nodes", "registry.list_nodes")
    tracer.handler(registry.VoRegistry, "_handle", "registry.handle")
    # anonymize, split by which side runs it
    tracer.function_in(client, "anonymize_for_site", "anonymize.client")
    tracer.function_in(node, "anonymize_for_site", "anonymize.node")
    # mgi
    tracer.function(mgi, "parse_mgi", "mgi.parse")
    tracer.function(mgi, "write_mgi", "mgi.write")
    # blobstore
    bs = blobstore.BlobStore
    tracer.method(bs, "ref_for", "blobstore.ref_for")
    tracer.method(bs, "put", "blobstore.put")
    tracer.method(bs, "get", "blobstore.get")
    # algorithms
    tracer.function(algorithms, "parse_algorithm", "algorithms.parse")
    tracer.function(algorithms, "execute_on_image", "algorithms.execute")


# --- analysis -----------------------------------------------------------------

# (layer, operation kind) pairs that every workload exercises; per-layer
# metrics are reported for these.
LAYER_KINDS = {
    "add": ("anonymize", "mgi", "blobstore", "catalog", "node", "wire"),
    "exec": ("query", "catalog", "mgi", "blobstore", "algorithms", "node", "wire"),
    "query": ("query", "catalog", "resultset", "node", "wire"),
}
OP_UNIT = {"add": "image", "exec": "image", "query": "query"}


def _union(intervals) -> list:
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _length(merged, lo=None, hi=None) -> float:
    total = 0.0
    for a, b in merged:
        if lo is not None:
            a, b = max(a, lo), min(b, hi)
        if b > a:
            total += b - a
    return total


def _minus(a, b) -> float:
    """Length of union ``a`` not covered by union ``b``."""
    return _length(a) - sum(_length(b, lo, hi) for lo, hi in a)


class Totals:
    """Sums over the spans of one (operation kind, span name)."""

    __slots__ = ("self_ms", "busy_ms", "calls", "incl_ms", "n1", "n2")

    def __init__(self):
        self.self_ms = self.busy_ms = self.incl_ms = self.n1 = self.n2 = 0.0
        self.calls = 0


class Analysis:
    """Self time is a span's duration minus the union of its children's
    intervals, clipped to the span; it includes time spent waiting for the
    interpreter lock while other threads run.  Busy time is the CPU time of
    the span's thread minus that of its children on the same thread."""

    def __init__(self, spans: list[Span], counted: list):
        self.counted = counted
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        self.per_op = dict.fromkeys(OP_UNIT, 0.0)  # operation denominators
        self.totals: dict = defaultdict(Totals)    # (kind, span name) -> Totals
        self.peer_wait_ms = self.local_part_ms = 0.0
        for s in spans:
            if s.parent is None:
                self.per_op[s.kind] += s.n1 if s.kind == "exec" else 1
            kids = children.get(s.id, ())
            covered = _length(_union((k.start, k.end) for k in kids), s.start, s.end)
            t = self.totals[s.kind, s.name]
            t.self_ms += (s.end - s.start - covered) * 1e3
            t.busy_ms += (s.cpu - sum(k.cpu for k in kids if k.tid == s.tid)) * 1e3
            t.incl_ms += (s.end - s.start) * 1e3
            t.calls += 1
            t.n1 += s.n1
            t.n2 += s.n2
            if s.name == "node.run_query":
                remote = _union((k.start, k.end) for k in kids if k.name == "node.remote_part")
                own = _union((k.start, k.end) for k in kids if k.name != "node.remote_part")
                self.peer_wait_ms += _minus(remote, own) * 1e3
                self.local_part_ms += sum((k.end - k.start) * 1e3 for k in kids
                                          if k.name == "node.local_part")

    def count(self, kind: str, name: str) -> float:
        return sum(n for k, c, n in self.counted if k == kind and c == name)

    def span(self, kind: str, name: str) -> Totals:
        return self.totals.get((kind, name), Totals())

    def layer(self, kind: str, layer: str, field: str) -> float:
        return sum(getattr(t, field) for (k, name), t in self.totals.items()
                   if k == kind and name.split(".", 1)[0] == layer)

    def per(self, kind: str, total: float) -> float:
        """``total`` per operation of ``kind``."""
        return total / self.per_op[kind] if self.per_op[kind] else 0.0
