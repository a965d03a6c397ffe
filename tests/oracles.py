"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: plain dicts, nested loops, BFS —
no shared code with the engine beyond the parsed ASTs and record types.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from gridbox.errors import BadMagic, MgiFormatError, PayloadSizeMismatch, UnknownHeaderKey
from gridbox.ids import id_kind
from gridbox.mgi import HEADER_KEYS, MAGIC, MgiFile
from gridbox.query import And, BoolLit, Comparison, FormalQuery, Not, Or, RangeTest
from gridbox.resultset import Row

# --- query evaluation over plain attribute dicts ----------------------------------

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_expr(expr, attrs: dict, derived: dict) -> bool:
    """Evaluate a predicate AST against one flat image row.

    ``attrs`` maps static attribute names to values (absent/None never
    matches); ``derived`` maps scalar names to the list of values computed
    for this image (a predicate matches if any value matches).
    """
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Not):
        return not eval_expr(expr.inner, attrs, derived)
    if isinstance(expr, And):
        return all(eval_expr(p, attrs, derived) for p in expr.parts)
    if isinstance(expr, Or):
        return any(eval_expr(p, attrs, derived) for p in expr.parts)
    if isinstance(expr, Comparison):
        if expr.attr.startswith("derived."):
            values = derived.get(expr.attr.split(".", 1)[1], [])
            return any(_OPS[expr.op](v, expr.value) for v in values)
        value = attrs.get(expr.attr)
        if value is None:
            return False
        return _OPS[expr.op](value, expr.value)
    if isinstance(expr, RangeTest):
        if expr.attr.startswith("derived."):
            values = derived.get(expr.attr.split(".", 1)[1], [])
            return any(expr.lo <= v <= expr.hi for v in values)
        value = attrs.get(expr.attr)
        if value is None:
            return False
        return expr.lo <= value <= expr.hi
    raise TypeError(f"unexpected AST node {expr!r}")


def catalog_to_rows(catalog) -> list[dict]:
    """Flatten one site catalog into oracle rows, one per image, resolving
    the series -> study -> patient chain by direct lookups."""
    rows = []
    for image in catalog.images():
        series = catalog.require(image.series)
        study = catalog.require(series.study)
        patient = catalog.require(study.patient)
        derived: dict[str, list[float]] = {}
        for rec in catalog.derived_for(image.id):
            for name, value in rec.scalars.items():
                derived.setdefault(name, []).append(value)
        rows.append({
            "attrs": {
                "patient.sex": patient.sex,
                "patient.age": study.date.year - patient.birth_year,
                "patient.id": str(patient.id),
                "study.date": study.date,
                "image.laterality": image.laterality,
                "image.view": image.view,
                "image.id": str(image.id),
                "image.dose_mgy": image.dose_mgy,
            },
            "derived": derived,
            "ids": {"patients": str(patient.id), "studies": str(study.id),
                    "images": str(image.id)},
        })
    return rows


def expected_ids(q: FormalQuery, catalogs) -> set[str]:
    """Brute-force federation truth: evaluate the query over every image row
    of every catalog and collect the matching target ids."""
    out = set()
    for catalog in catalogs:
        for row in catalog_to_rows(catalog):
            if eval_expr(q.expr, row["attrs"], row["derived"]):
                out.add(row["ids"][q.target])
    return out


def expected_summary(q: FormalQuery, catalogs) -> tuple[int, int]:
    """(num_images, num_patients) as the resultset defines them: image rows
    when the target is images, else matched-group count; patients counted
    distinct across all matches."""
    groups = set()
    patients = set()
    for catalog in catalogs:
        for row in catalog_to_rows(catalog):
            if eval_expr(q.expr, row["attrs"], row["derived"]):
                groups.add(row["ids"][q.target])
                patients.add(row["ids"]["patients"])
    return len(groups), len(patients)


def _referenced(expr) -> set[str]:
    if isinstance(expr, (Comparison, RangeTest)):
        return {expr.attr}
    if isinstance(expr, Not):
        return _referenced(expr.inner)
    if isinstance(expr, (And, Or)):
        return set().union(*(_referenced(p) for p in expr.parts))
    return set()


def _text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int)):
        return str(value)
    return value.isoformat()  # a date


def expected_rows(q: FormalQuery, catalogs) -> list[Row]:
    """Brute-force rows with their fields: per target id, the first matching
    image in image-id order stands for the group; fields are the referenced
    attributes plus ``patient.id`` as text, a derived field carries the
    largest value and an absent one is left out; sorted by row id."""
    names = sorted(_referenced(q.expr) | {"patient.id"})
    rows = {}
    for catalog in catalogs:
        for row in sorted(catalog_to_rows(catalog), key=lambda r: r["ids"]["images"]):
            row_id = row["ids"][q.target]
            if row_id in rows or not eval_expr(q.expr, row["attrs"], row["derived"]):
                continue
            fields = {}
            for name in names:
                if name.startswith("derived."):
                    values = row["derived"].get(name.split(".", 1)[1])
                    value = max(values) if values else None
                else:
                    value = row["attrs"][name]
                if value is not None:
                    fields[name] = _text(value)
            rows[row_id] = Row(row_id, fields)
    return [rows[k] for k in sorted(rows)]


# --- result set bytes --------------------------------------------------------------

def escape(data: str, entities: dict | None = None) -> str:
    """``xml.sax.saxutils.escape``, written out so that importing this module
    does not load ``xml.sax`` (and through it ``urllib.request``, ``ssl`` and
    ``email``): ``&``, then ``>``, then ``<``, then each of ``entities``."""
    data = data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    for chars, entity in (entities or {}).items():
        data = data.replace(chars, entity)
    return data


def reference_xml(rs) -> bytes:
    """The bytes of result set ``rs`` written one row at a time from its
    ``rows``, with the summary counted from those rows."""
    def attr(value: str) -> str:
        return escape(value, {'"': "&quot;"})

    rows = rs.rows
    words = rs.query_text.split()
    if words[:1] == ["select"] and words[1:2] == ["images"]:
        images = len(rows)
    else:
        images = sum(1 for r in rows if id_kind(r.id) == "image")
    patients = {r.fields["patient.id"] if "patient.id" in r.fields else r.id
                for r in rows if "patient.id" in r.fields or id_kind(r.id) == "patient"}
    origin = ",".join(sorted(rs.origin_sites))
    lines = [f'<resultset query="{attr(rs.query_text)}" origin="{attr(origin)}">']
    for row in rows:
        if row.fields:
            lines.append(f'  <row id="{attr(row.id)}">')
            for name in sorted(row.fields):
                lines.append(f'    <field name="{attr(name)}">{escape(row.fields[name])}</field>')
            lines.append("  </row>")
        else:
            lines.append(f'  <row id="{attr(row.id)}"/>')
    lines.append(f'  <summary images="{images}" patients="{len(patients)}"/>')
    lines.append("</resultset>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- MGI files ----------------------------------------------------------------------

def parse_mgi_reference(data: bytes) -> MgiFile:
    """Read an MGI file one header line at a time, decoding and checking
    each line as it comes, and build the file through `MgiFile`'s own
    checks: the reader `gridbox.mgi.parse_mgi` replaced, kept to compare
    with."""
    newline = data.find(b"\n")
    if newline < 0 or data[:newline] != MAGIC:
        raise BadMagic("not an MGI file")
    header: dict[str, str] = {}
    pos = newline + 1
    while True:
        newline = data.find(b"\n", pos)
        if newline < 0:
            raise MgiFormatError("header never ends (no blank line)")
        line = data[pos:newline]
        pos = newline + 1
        if line == b"":
            break
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MgiFormatError(f"undecodable header line: {e}") from e
        key, sep, value = text.partition(" = ")
        if not sep or not key:
            raise MgiFormatError(f"malformed header line {text!r}")
        if key not in HEADER_KEYS:
            raise UnknownHeaderKey(f"unknown header key {key!r}")
        if key in header:
            raise MgiFormatError(f"duplicate header key {key!r}")
        header[key] = value
    for key in ("image.rows", "image.cols", "image.bits"):
        if key not in header:
            raise MgiFormatError(f"missing mandatory header key {key!r}")
    if header["image.bits"] != "16":
        raise MgiFormatError("image.bits must be 16")
    try:
        rows, cols = int(header["image.rows"]), int(header["image.cols"])
    except ValueError as e:
        raise MgiFormatError(f"non-integer image shape: {e}") from e
    if rows <= 0 or cols <= 0:
        raise MgiFormatError("image shape must be positive")
    payload = data[pos:]
    if len(payload) != rows * cols * 2:
        raise PayloadSizeMismatch(
            f"payload is {len(payload)} bytes, header declares {rows * cols * 2}")
    pixels = np.frombuffer(payload, dtype=">u2").reshape(rows, cols)
    return MgiFile(header, pixels.astype(np.uint16))


# --- pixel pipeline -----------------------------------------------------------------

def flood_count(mask: list[list[bool]]) -> int:
    """4-connected component count by BFS over a nested-list mask."""
    if not mask:
        return 0
    n_rows, n_cols = len(mask), len(mask[0])
    seen = [[False] * n_cols for _ in range(n_rows)]
    count = 0
    for r0 in range(n_rows):
        for c0 in range(n_cols):
            if not mask[r0][c0] or seen[r0][c0]:
                continue
            count += 1
            queue = deque([(r0, c0)])
            seen[r0][c0] = True
            while queue:
                r, c = queue.popleft()
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    rr, cc = r + dr, c + dc
                    if (0 <= rr < n_rows and 0 <= cc < n_cols
                            and mask[rr][cc] and not seen[rr][cc]):
                        seen[rr][cc] = True
                        queue.append((rr, cc))
    return count


def run_program(statements, pixels) -> dict[str, float]:
    """Execute the statement pipeline with plain Python ints and loops."""
    buf = [[int(v) for v in row] for row in pixels]
    total = len(buf) * len(buf[0]) if buf else 0
    out: dict[str, float] = {}
    for s in statements:
        if s.verb == "threshold":
            buf = [[65535 if v >= s.t else 0 for v in row] for row in buf]
        elif s.verb == "fraction_above":
            out[s.emit] = sum(v >= s.t for row in buf for v in row) / total
        elif s.verb == "mean":
            out[s.emit] = sum(v for row in buf for v in row) / total
        elif s.verb == "max":
            out[s.emit] = float(max(v for row in buf for v in row))
        elif s.verb == "count_components":
            out[s.emit] = float(flood_count([[v >= s.t for v in row] for row in buf]))
        else:
            raise ValueError(f"unexpected verb {s.verb!r}")
    return out
