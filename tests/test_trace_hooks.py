"""The benchmark's traced run hooks gridbox by name from outside; a rename
in src/ would silently read as a zero per-layer metric.  This checks that
every hook still resolves, bar the three known dead ones, and that the
counts the hooks take from results still mean what the benchmark reads."""

import importlib.util
from pathlib import Path

from gridbox import resultset
from gridbox.catalog import SiteCatalog
from gridbox.query import parse_query
from test_catalog import build_tree

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# hooks on functions that no longer exist; the next benchmark change deletes them
KNOWN_DEAD = {"gridbox.query.lower_to_local_plan", "SiteCatalog._contexts",
              "SiteCatalog.vocabulary"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    tracing = load_tracing()
    merge = resultset.merge
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert resultset.merge is not merge  # the hooks are really in place
    finally:
        tracer.uninstall()
    assert resultset.merge is merge
    assert set(tracer.missing) <= KNOWN_DEAD


def test_traced_select_books_the_rows_it_returns():
    """The tracer counts a select's rows as ``len()`` of its result."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cat = SiteCatalog("CAM")
    for n in range(3):
        build_tree(cat, n)
    try:
        tracing.install(tracer)
        part = tracer.op("query", True, cat.select, parse_query("select images where true"))
    finally:
        tracer.uninstall()
    [span] = [s for s in tracer.spans if s.name == "catalog.select"]
    assert len(part.ids) == 3 and span.n1 == 3


def test_traced_render_books_the_merged_answers_rows():
    """The tracer counts a render's rows from the answer's ``rows`` view:
    the merged row count of three sites' parts, not one site's."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    q = parse_query("select images where true")
    parts = {}
    for k, site in enumerate(("CAM", "LEE", "UDI")):
        cat = SiteCatalog(site)
        for n in range(k + 1):
            build_tree(cat, n, site=site)
        parts[site] = cat.select(q)
    answer = resultset.merge("select images where true", parts)
    try:
        tracing.install(tracer)
        xml = tracer.op("query", True, resultset.ResultSet.to_xml, answer)
    finally:
        tracer.uninstall()
    [span] = [s for s in tracer.spans if s.name == "resultset.to_xml"]
    assert len(answer.rows) == 6 and (span.n1, span.n2) == (len(xml), 6)
