"""The correctness gate.  Every check raises :class:`GateError` on the first
mismatch, and a run with a mismatch reports no numbers.

The references are independent of the engine: ``tests/oracles.py`` (a
brute-force evaluator over plain dicts), ``gridbox.cohort.manifest_for``
(answers computed by loops over the cohort plan) and the planted pixel
blocks kept in :class:`inputs.Inputs`.
"""

from __future__ import annotations

from gridbox.cohort import manifest_for
from gridbox.query import parse_query

import oracles
from inputs import SITES


class GateError(Exception):
    pass


def _ask(vo, index: int, text: str):
    client = vo.clients[SITES[index % len(SITES)]]
    rs, warnings = client.query(text)
    if warnings:
        raise GateError(f"{text!r}: incomplete answer: {warnings}")
    return rs, client.last_xml


def check_manifest(vo, inputs) -> None:
    """Site statistics and the canonical query battery of the cohort."""
    manifest = manifest_for(inputs.specs, inputs.secrets)
    for site, info in manifest["sites"].items():
        stats = vo.nodes[site].catalog.stats()
        for key in ("patients", "studies", "series", "images", "stored_bytes"):
            if stats[key] != info[key]:
                raise GateError(f"{site} {key}: catalog has {stats[key]}, "
                                f"manifest says {info[key]}")
    for i, entry in enumerate(manifest["queries"]):
        rs, _ = _ask(vo, i, entry["text"])
        if [r.id for r in rs.rows] != entry["rows"]:
            raise GateError(f"manifest query {entry['label']}: rows differ")
        if rs.summary != (entry["images"], entry["patients"]):
            raise GateError(f"manifest query {entry['label']}: summary {rs.summary}")


def reference_answers(vo, queries: list[str]) -> tuple[dict, dict]:
    """Ask each query once, check its row ids against the oracle, and keep
    its XML; every later answer, from any node, must equal it byte for byte.
    Returns the XML and the row count of each query."""
    reference, rows = {}, {}
    for i, text in enumerate(queries):
        rs, xml = _ask(vo, i, text)
        expected = oracles.expected_ids(parse_query(text), vo.catalogs())
        got = {r.id for r in rs.rows}
        if got != expected or len(got) != len(rs.rows):
            raise GateError(f"{text!r}: {len(got)} rows, oracle expects {len(expected)}")
        if not xml:
            raise GateError(f"{text!r}: the client saw no XML")
        reference[text], rows[text] = xml, len(got)
    return reference, rows


def check_exec(vo, inputs, result: dict, name: str, version: int,
               selector: str, covered: set) -> set:
    """One density pass wrote one fresh record per selected image, holding
    the value the planted pixel blocks dictate.  ``covered`` holds the
    images earlier passes of the same version processed; those must keep
    their one record, and no other image may have one.  Returns ``covered``
    with this pass's images added."""
    expected = oracles.expected_ids(parse_query(selector), vo.catalogs())
    if result["written"] != len(expected):
        raise GateError(f"{name} v{version}: wrote {result['written']}, "
                        f"oracle selects {len(expected)}")
    if expected & covered:
        raise GateError(f"{name} v{version}: {selector!r} selects images "
                        "an earlier pass processed")
    covered = covered | expected
    alg_ids = {site: str(vo.nodes[site].catalog.algorithm(name, version).id)
               for site in SITES}
    for gid, planted in inputs.planted.items():
        records = [r for r in vo.nodes[planted.site].catalog.derived_for(gid)
                   if str(r.algorithm) == alg_ids[planted.site]]
        if gid not in covered:
            if records:
                raise GateError(f"{name} v{version} ran on unselected {gid}")
            continue
        if len(records) != 1 or records[0].scalars != {"density": planted.density}:
            raise GateError(f"{name} v{version} on {gid}: "
                            f"{[r.scalars for r in records]} != density {planted.density}")
    return covered


def check_no_pixels(vo) -> None:
    """Pixels never travel on QUERY, RQUERY or EXEC_ALG."""
    for site, node in vo.nodes.items():
        for op in ("QUERY", "RQUERY", "EXEC_ALG"):
            if node.accountant.binary_bytes(op):
                raise GateError(f"{site}: {node.accountant.binary_bytes(op)} "
                                f"binary bytes on {op}")
