"""The host's speed, measured with a fixed pure-Python workload.

On the shared 2-core VM the bounds were set on, every process ran up to
~1.8 times slower for stretches of tens of seconds to minutes, long enough
to cover a whole run, so no median over one run could hide them.
``Speed`` times a small fixed reference workload, which touches no gridbox
code, between the operations of each timed phase: after every query and
every few uploads.  It counts the CPU time of its own thread only, so
time spent waiting for the interpreter lock while another thread runs is
not in it.  The timed metrics are then given at the reference speed:
multiplied by ``REFERENCE_S`` over the median reference time within
``MARGIN_S`` of each sample they are made of (a query, an upload batch, an
EXEC_ALG pass, a one-second window), or of the whole VO start-up phase.  A change to the program moves the scaled figures as much as the
raw ones; a slow stretch of the host slows the reference as well, and
cancels.  Every report prints the raw figures too.

The workload mixes what gridbox spends its time on: building and walking
small objects and dicts, string formatting, JSON, XML, sha256 and sorting,
and a walk over a list bigger than the CPU caches.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import statistics
import threading
import time
import xml.etree.ElementTree as ET

# Median reference time on the VM the bounds were set on, in a quiet
# stretch.  Only a scale: the compared figures are ratios of runs.
REFERENCE_S = 0.0017
MARGIN_S = 1.0  # how far around a timed sample the reference samples count


class _Rec:
    __slots__ = ("id", "site", "age", "dose", "tags")

    def __init__(self, i: int):
        self.id = f"gb:image:{i:08x}"
        self.site = ("CAM", "OXF", "UDI")[i % 3]
        self.age = 40 + i % 37
        self.dose = 0.5 + (i * 7919 % 1000) / 500
        self.tags = {"laterality": "LR"[i % 2], "view": ("CC", "MLO")[i % 2]}


_HEAP = [_Rec(i) for i in range(20000)]


def _workload() -> int:
    walked = sum(1 for r in _HEAP[::23] if r.tags["view"] == "CC" and r.age > 60)
    recs = [_Rec(i) for i in range(200)]
    picked = [r for r in recs if r.age >= 50 and r.dose < 2.0]
    picked.sort(key=lambda r: r.id)
    root = ET.Element("results")
    for r in picked:
        ET.SubElement(root, "row", {"id": r.id, "site": r.site, "age": str(r.age),
                                    "dose": f"{r.dose:.3f}"})
    back = ET.fromstring(ET.tostring(root))
    text = json.dumps([dict(e.attrib) for e in back], sort_keys=True)
    digest = hashlib.sha256(text.encode() * 4).digest()
    return len(json.loads(text)) + digest[0] + walked


class Speed:
    """Reference samples taken over a run: (time taken at, CPU seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []  # of the samples, once sorted
        self._lock = threading.Lock()

    def sample(self) -> None:
        """Time one workload in the calling thread's CPU time, with the
        cyclic garbage collector off: the collections its allocations would
        set off cost in proportion to the program's heap, not the host's
        speed."""
        gc.disable()
        try:
            c0 = time.thread_time()
            _workload()
            cpu = time.thread_time() - c0
        finally:
            gc.enable()
        with self._lock:
            self.samples.append((time.perf_counter(), cpu))

    def factor(self, start: float, end: float) -> tuple[float, int]:
        """``REFERENCE_S`` over the median sample taken from ``start`` to
        ``end``, and the number of samples."""
        if len(self._times) != len(self.samples):
            self.samples.sort()
            self._times = [t for t, _ in self.samples]
        inside = [s for _, s in self.samples[bisect.bisect_left(self._times, start):
                                             bisect.bisect_right(self._times, end)]]
        return REFERENCE_S / statistics.median(inside), len(inside)

    def around(self, start: float, end: float) -> float:
        """The factor for a sample timed from ``start`` to ``end``."""
        return self.factor(start - MARGIN_S, end + MARGIN_S)[0]
