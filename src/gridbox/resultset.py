"""XML result sets: serialization, parsing, and order-insensitive merge.

The schema is fixed and bit-exact::

    <resultset query="..." origin="SITE1,SITE2">
      <row id="SITE:image:...">
        <field name="image.laterality">L</field>
        <field name="patient.id">SITE:patient:...</field>
      </row>
      <summary images="1" patients="1"/>
    </resultset>

Attribute order is ``query`` then ``origin``; fields are sorted by name, rows
by id; two-space indentation and LF line ends.  Equal result sets serialize
to identical bytes, so a merged answer assembled at any site compares equal
byte-for-byte.

An answer stays in columns from the merge to its bytes and back.  A site's
answer to a query travels as a :class:`Part`: its row ids plus one column
of texts per projected field.  The merged answer travels to the client the
same way, with its origin sites, and the client renders the XML.
:func:`checked_part` checks a peer's part at the origin and the merged
answer at the client, both as a whole.  :func:`merge` joins the parts column by
column with one sort of the ids, deduplicated on global id; the same id
carrying different fields is a federation bug and raises
``SchemaViolation`` rather than silently preferring one site's copy.  A
:class:`ResultSet` holds the merged part.  ``to_xml`` escapes a column
only when a substring test finds a character that needs it, and writes
the rows as one interleaving of ids, columns and markup; ``ResultSet.rows``
builds `Row` objects only when a caller asks.  Escaping is a
``str.replace`` chain that makes the replacements of ``xml.sax.saxutils``
in the same order, without importing that module and the ``urllib`` and
``email`` packages it loads.  :func:`ResultSet.from_xml` reads any
well-formed document of the schema through ElementTree.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, eq, ge, gt, itemgetter

from gridbox.errors import MalformedXml, SchemaViolation
from gridbox.ids import id_kind, valid_site_code
from gridbox.query import ROW_KIND, FormalQuery, projection


@dataclass(frozen=True)
class Row:
    """One result row: the row id plus projected canonical field values.

    A row takes ownership of ``fields``: the caller hands it a dict built
    for this row alone and does not change it afterwards."""

    id: str
    fields: dict

    def __hash__(self):
        return hash((self.id, tuple(sorted(self.fields.items()))))


@dataclass
class Part:
    """Rows by column: ``ids`` are the row ids in strictly increasing order,
    and ``fields`` maps each field name to a list as long as ``ids`` of that
    field's text per row, None where the row has no value.  ``len()`` is the
    number of rows."""

    ids: list
    fields: dict

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self) -> list[Row]:
        """The part's rows, in id order; a None leaves its field out."""
        fields = [{} for _ in self.ids]
        for name, column in self.fields.items():
            for row_fields, text in zip(fields, column):
                if text is not None:
                    row_fields[name] = text
        return list(map(Row, self.ids, fields))


def _in_id_order(ids: list, fields: dict) -> tuple[list, dict, list]:
    """``ids`` and the columns of ``fields`` stably sorted by id, and the
    positions whose id repeats the one before.  Input already in order, as
    the concatenated parts of disjoint sites are, is not sorted again."""
    if any(map(gt, ids, islice(ids, 1, None))):
        take = itemgetter(*sorted(range(len(ids)), key=ids.__getitem__))
        ids = list(take(ids))
        fields = {name: list(take(column)) for name, column in fields.items()}
    repeats = []
    if any(map(eq, ids, islice(ids, 1, None))):
        repeats = [k for k in range(1, len(ids)) if ids[k] == ids[k - 1]]
    return ids, fields, repeats


def _filled(fields: dict) -> dict:
    """The columns of ``fields`` that hold a value in some row."""
    return {name: column for name, column in fields.items()
            if column.count(None) < len(column)}


_QUOT = {'"': "&quot;"}


def _escape(value: str, entities: dict) -> str:
    """``value`` with ``&``, ``>`` and ``<`` escaped, then each key of
    ``entities`` replaced by its value, as ``xml.sax.saxutils.escape`` does."""
    value = value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    for key, entity in entities.items():
        value = value.replace(key, entity)
    return value


def _attr(value: str) -> str:
    return _escape(value, _QUOT) if any(map(value.__contains__, '&<>"')) else value


def _escaped(values: list, entities: dict) -> list:
    """``values`` with ``&<>`` and ``entities`` escaped and None kept, from
    one substring test per character; the list itself when nothing needs it."""
    if not any(map("".join(filter(None, values)).__contains__, chain("&<>", entities))):
        return values
    return [value and _escape(value, entities) for value in values]


# the markup to_xml writes at the start of a row and of a field, and at
# the end of a row that holds fields
_OPEN, _FIELD, _CLOSE = '  <row id="', '    <field name="', "  </row>"


def _render_rows(ids: list, names: list, columns: list) -> str:
    """The ``<row>`` elements of rows ``ids`` whose field ``names[j]`` holds
    ``columns[j]``, all escaped, fields in ``names`` order: one interleaving
    of the ids, the columns and the markup.  A None leaves out its field's
    line, and a row with no field closes itself."""
    if not any(None in column for column in columns):
        ends = ['">\n', *repeat("</field>\n", len(names))]
        heads = map(add, ends, (f'{_FIELD}{name}">' for name in names))
        marks = map(repeat, [_OPEN, *heads, ends[-1] + _CLOSE + "\n" if names else '"/>\n'])
        streams = [next(marks), *chain.from_iterable(zip([ids, *columns], marks))]
        return "".join(chain.from_iterable(zip(*streams)))
    nones = list(map(tuple.count, zip(*columns), repeat(None)))  # per row
    bare = {len(columns): ""}.get  # bare(n, text): "" for a row with no field, else text
    held = {None: ""}.get  # held(cell, text): "" for a None cell, else text
    streams = [repeat(_OPEN), ids, map(bare, nones, repeat('">\n'))]
    for name, column in zip(names, columns):
        streams += (map(held, column, repeat(f'{_FIELD}{name}">')), map(held, column, column),
                    map(held, column, repeat("</field>\n")))
    closed = {len(columns): '"/>\n'}.get  # the end of a row with no field, else ""
    streams += (map(bare, nones, repeat(_CLOSE + "\n")), map(closed, nones, repeat("")))
    return "".join(chain.from_iterable(zip(*streams)))


def _read_tree(data) -> tuple:
    """``(query, origin, ids, columns, declared summary)`` of any
    well-formed document of the schema, the rows in document order, through
    ElementTree; raises on everything else."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        raise MalformedXml(f"unparseable result set: {e}") from e
    if root.tag != "resultset":
        raise SchemaViolation(f"root element is <{root.tag}>, not <resultset>")
    if set(root.attrib) != {"query", "origin"}:
        raise SchemaViolation("resultset must carry exactly query and origin")
    ids, rows = [], []
    summary_el = None
    for child in root:
        if child.tag == "summary":
            if summary_el is not None:
                raise SchemaViolation("more than one summary")
            summary_el = child
            continue
        if child.tag != "row":
            raise SchemaViolation(f"unexpected element <{child.tag}>")
        if summary_el is not None:
            raise SchemaViolation("row after summary")
        if set(child.attrib) != {"id"}:
            raise SchemaViolation("row must carry exactly an id")
        fields = {}
        for f in child:
            if f.tag != "field" or set(f.attrib) != {"name"}:
                raise SchemaViolation("rows contain only named fields")
            name = f.attrib["name"]
            if name in fields:
                raise SchemaViolation(f"duplicate field {name!r} in row")
            fields[name] = f.text or ""
        ids.append(child.attrib["id"])
        rows.append(fields)
    if summary_el is None:
        raise SchemaViolation("missing summary")
    try:
        declared = (int(summary_el.attrib["images"]),
                    int(summary_el.attrib["patients"]))
    except (KeyError, ValueError) as e:
        raise SchemaViolation(f"bad summary: {e}") from e
    names = dict.fromkeys(name for fields in rows for name in fields)
    columns = {name: [fields.get(name) for fields in rows] for name in names}
    return root.attrib["query"], root.attrib["origin"], ids, columns, declared


def _target_of(query_text: str) -> str | None:
    words = query_text.split()
    if len(words) >= 2 and words[0] == "select":
        return words[1]
    return None


def compute_summary(query_text: str, part: Part) -> tuple[int, int]:
    """(num_images, num_patients) as re-derived from the rows themselves."""
    # an id of a kind holds ":<kind>:", so the substring test only skips
    # rows that id_kind would reject
    ids = part.ids
    if _target_of(query_text) == "images":
        num_images = len(ids)
    else:
        num_images = sum(1 for i in ids if ":image:" in i and id_kind(i) == "image")
    patients = part.fields.get("patient.id") or [None] * len(ids)
    patient_ids = set(patients)
    if None in patient_ids:
        patient_ids.discard(None)
        patient_ids.update(i for i, patient in zip(ids, patients) if patient is None
                           and ":patient:" in i and id_kind(i) == "patient")
    return num_images, len(patient_ids)


@dataclass(frozen=True, eq=False)
class ResultSet:
    """One answer: its query text, the sites that returned rows, and its
    rows as one `Part`.  Two answers are equal when they hold the same rows;
    a column with no value in any row is the same as no column."""

    query_text: str
    origin_sites: frozenset
    part: Part

    def __post_init__(self):
        object.__setattr__(self, "origin_sites", frozenset(self.origin_sites))

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        return ((self.query_text, self.origin_sites, self.part.ids,
                 _filled(self.part.fields))
                == (other.query_text, other.origin_sites, other.part.ids,
                    _filled(other.part.fields)))

    @property
    def rows(self) -> tuple:
        """The answer's rows in id order, built from its columns on each call."""
        return tuple(self.part.rows())

    @property
    def summary(self) -> tuple[int, int]:
        return compute_summary(self.query_text, self.part)

    # --- XML ------------------------------------------------------------------

    def to_xml(self) -> bytes:
        ids, fields = self.part.ids, self.part.fields
        names = sorted(fields)
        origin = ",".join(sorted(self.origin_sites))
        num_images, num_patients = self.summary
        return (f'<resultset query="{_attr(self.query_text)}" origin="{_attr(origin)}">\n'
                + _render_rows(_escaped(ids, _QUOT), [_attr(name) for name in names],
                               [_escaped(fields[name], {}) for name in names])
                + f'  <summary images="{num_images}" patients="{num_patients}"/>\n'
                "</resultset>\n").encode("utf-8")

    @classmethod
    def from_xml(cls, data: bytes) -> "ResultSet":
        """The answer in ``data``, any well-formed document of the schema.
        MalformedXml when it is not well-formed; SchemaViolation when it
        breaks the schema, repeats a row id or misstates its summary."""
        query, origin, ids, fields, declared = _read_tree(data)
        ids, fields, repeats = _in_id_order(ids, fields)
        if repeats:
            raise SchemaViolation(f"duplicate row id {ids[repeats[0]]}")
        origin_sites = frozenset(origin.split(",")) if origin else frozenset()
        result = cls(query, origin_sites, Part(ids, fields))
        summary = result.summary
        if summary != declared:
            raise SchemaViolation(
                f"summary says images={declared[0]} patients={declared[1]}, "
                f"rows say images={summary[0]} patients={summary[1]}")
        return result


_TEXT = frozenset({str})
_TEXT_OR_NULL = frozenset({str, type(None)})  # the types a column may hold

# The characters XML rejects or normalises in a text (\r, the other controls
# but \t and \n, U+FFFE/U+FFFF and the surrogates a str may carry), and in an
# attribute also \t and \n; each with the ASCII bytes that XML carries as they are.
_PRINTABLE = bytes(range(0x20, 0x80))
_UNFIT_TEXT = re.compile(r'[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]'), _PRINTABLE + b"\t\n"
_UNFIT_ATTR = re.compile(r'[\x00-\x1f\ud800-\udfff\ufffe\uffff]'), _PRINTABLE


def checked_part(answer, q: FormalQuery, canonical: str, site: str | None = None) -> Part:
    """The `Part` in ``answer``, a decoded JSON value that answers ``q``,
    whose canonical text is ``canonical``, checked as a whole.

    With ``site``, ``answer`` is that peer's RQUERY part,
    ``{"query", "ids", "fields"}``.  Without, it is an origin's QUERY answer,
    which also carries ``"origin"``, the list of the site codes that returned
    rows.  Any failed check raises SchemaViolation:

    - it carries those keys and answers ``canonical``;
    - the ids are strings in strictly increasing order, each minted for the
      query's target kind by the peer, or by a site of the origin list;
    - the origin list names no site twice, and none that minted no row;
    - the columns are exactly ``projection(q)``, each a list as long as the
      ids that holds only strings or nulls;
    - no id or text holds a character XML rejects or normalises, so the
      answer renders to a document that reads back as the same answer.

    Every check runs over whole lists, so a large answer costs no
    per-row Python code."""
    try:
        text, ids, fields = answer["query"], answer["ids"], answer["fields"]
        sites = [site] if site is not None else answer["origin"]
    except (KeyError, TypeError) as e:
        raise SchemaViolation(f"the answer carries no part: {e!r}") from None
    if text != canonical:
        raise SchemaViolation(f"the answer is to {text!r}, not {canonical!r}")
    if not (isinstance(sites, list) and set(map(type, sites)) <= _TEXT
            and all(map(valid_site_code, sites))):
        raise SchemaViolation("the answer's origin is not a list of site codes")
    if not (isinstance(ids, list) and set(map(type, ids)) <= _TEXT):
        raise SchemaViolation("the answer's ids are not a list of strings")
    if any(map(ge, ids, islice(ids, 1, None))):
        row_id = next(b for a, b in zip(ids, ids[1:]) if a >= b)
        raise SchemaViolation(f"row {row_id} comes twice or out of order")
    # The sorted ids that start with "SITE:kind:" are one run, from that
    # prefix up to the prefix with its last ':' raised to ';'.
    kind = ROW_KIND[q.target]
    runs = {s: bisect_left(ids, f"{s}:{kind};") - bisect_left(ids, f"{s}:{kind}:")
            for s in sites}
    if sum(runs.values()) != len(ids):
        row_id = next(i for i in ids if not i.startswith(tuple(f"{s}:{kind}:" for s in runs)))
        raise SchemaViolation(f"row {row_id!r} is not minted for {q.target} by "
                              f"{' or '.join(sites) or 'a site of the origin'}")
    if site is None and (len(runs) != len(sites) or not all(runs.values())):
        raise SchemaViolation(f"the answer's origin {sites} is not the sites "
                              "that returned rows, each once")
    if not (isinstance(fields, dict) and fields.keys() == set(projection(q))):
        raise SchemaViolation("the answer's columns are not the projection's")
    for name, column in fields.items():
        if not (isinstance(column, list) and len(column) == len(ids)
                and set(map(type, column)) <= _TEXT_OR_NULL):
            raise SchemaViolation(f"column {name} is not {len(ids)} texts or nulls")
    # one test over all ids joined and one over all texts, a byte deletion
    # when they are ASCII; an id is an attribute
    texts = "".join(filter(None, chain.from_iterable(fields.values())))
    for joined, (unfit, fit) in (("".join(ids), _UNFIT_ATTR), (texts, _UNFIT_TEXT)):
        if (joined.encode().translate(None, fit) if joined.isascii()
                else unfit.search(joined)):
            raise SchemaViolation("an id or text of the answer holds a character "
                                  "that XML cannot carry")
    return Part(ids, fields)


def merge(query_text: str, parts: dict[str, Part]) -> ResultSet:
    """The answer to ``query_text`` from ``parts``, site → its `Part`, joined
    column by column.  The origin is the sites with rows, whichever node
    merges; rows may come in any order, identical rows collapse, and the
    ids are sorted once, which takes one pass over parts that are each in
    order and hold other sites' rows.  The answer has a column for every
    name of any part, also a part with no rows, so an empty answer keeps
    the projection's columns."""
    filled = sorted((part for part in parts.values() if part), key=lambda p: p.ids[0])
    names = dict.fromkeys(name for part in parts.values() for name in part.fields)
    ids, fields, repeats = _in_id_order(
        list(chain.from_iterable(part.ids for part in filled)),
        {name: list(chain.from_iterable(
            part.fields[name] if name in part.fields else repeat(None, len(part))
            for part in filled)) for name in names})
    if repeats:
        columns = list(fields.values())
        for k in repeats:
            if any(column[k] != column[k - 1] for column in columns):
                raise SchemaViolation(f"row {ids[k]} differs between sites")
        drop = set(repeats)
        keep = [k for k in range(len(ids)) if k not in drop]
        ids = [ids[k] for k in keep]
        fields = {name: [column[k] for k in keep] for name, column in fields.items()}
    origin_sites = frozenset(site for site, part in parts.items() if part)
    return ResultSet(query_text, origin_sites, Part(ids, fields))
