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

Reading has two paths that return the same result set.  The fast path
matches the input against the canonical form above: UTF-8, exactly these
attributes in this order, this indentation, and values that hold only the
four entities ``to_xml`` writes and no character an XML parser would
reject or normalise.  Any input it does not consume in full goes to the
ElementTree path, which accepts every well-formed document of the schema
and is the reference for what a document means and for every error.  Both
paths then sort the rows by id, refuse duplicate ids and check the summary.

A site's answer to a query travels as a :class:`Part`: its row ids plus one
column of texts per projected field.  Merging builds each answer row once,
from the parts, deduplicated on global id; the same id carrying different
field maps is a federation bug and raises ``SchemaViolation`` rather than
silently preferring one site's copy.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, unescape

from gridbox.errors import MalformedXml, SchemaViolation
from gridbox.ids import id_kind


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
    """One site's answer to a query, by column: ``ids`` are its row ids in
    strictly increasing order, and ``fields`` maps each projected field name
    to a list as long as ``ids`` of that field's text per row, None where
    the row has no value.  ``len()`` is the number of rows."""

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


_SPECIAL = re.compile('[&<>"]')


def _attr(value: str) -> str:
    return escape(value, {'"': "&quot;"}) if _SPECIAL.search(value) else value


def _text(value: str) -> str:
    return escape(value) if _SPECIAL.search(value) else value


# The canonical form as to_xml writes it.  A value holds no character that
# XML rejects or normalises (\r, other controls, U+FFFE/U+FFFF, and the
# surrogates a str may carry; in an attribute also \t and \n), no raw '>',
# and '&' only as one of the entities to_xml writes.
_ATTR = r'[^"<>\x00-\x1f\ud800-\udfff\ufffe\uffff]*'
_TEXT = r'[^<>\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]*'
_HEAD = re.compile(rf'<resultset query="({_ATTR})" origin="({_ATTR})">\n')
_ROW = re.compile(rf'  <row id="({_ATTR})"(?:/>\n|>\n'
                  rf'((?:    <field name="{_ATTR}">{_TEXT}</field>\n)+)  </row>\n)')
_FIELD = re.compile(rf'    <field name="({_ATTR})">({_TEXT})</field>\n')
_COUNT = r'(0|[1-9][0-9]{0,17})'  # a longer count goes to ElementTree
_TAIL = re.compile(rf'  <summary images="{_COUNT}" patients="{_COUNT}"/>\n</resultset>\n')
_BAD_AMP = re.compile(r'&(?!(?:amp|lt|gt|quot);)')


def _unescape(value: str) -> str:
    return unescape(value, {"&quot;": '"'}) if "&" in value else value


def _read_canonical(data) -> tuple | None:
    """``(query, origin, rows, declared summary)`` of a document in the
    canonical form, or None if the input is anything else."""
    try:
        text = data if isinstance(data, str) else str(data, "utf-8")
    except UnicodeDecodeError:
        return None
    plain = "&" not in text  # then no value needs unescaping
    if not plain and _BAD_AMP.search(text):
        return None
    head = _HEAD.match(text)
    if head is None:
        return None
    rows, pos, match_row = [], head.end(), _ROW.match
    while (m := match_row(text, pos)) is not None:
        pos = m.end()
        fields = {}
        if m[2] is not None:
            pairs = _FIELD.findall(m[2])
            fields = (dict(pairs) if plain else
                      {_unescape(name): _unescape(value) for name, value in pairs})
            if len(fields) != len(pairs):
                return None  # a repeated field name
        rows.append(Row(m[1] if plain else _unescape(m[1]), fields))
    tail = _TAIL.fullmatch(text, pos)
    if tail is None:
        return None
    query, origin = head[1], head[2]
    if not plain:
        query, origin = _unescape(query), _unescape(origin)
    return query, origin, rows, (int(tail[1]), int(tail[2]))


def _read_tree(data) -> tuple:
    """``(query, origin, rows, declared summary)`` of any well-formed
    document of the schema, through ElementTree; raises on everything else."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        raise MalformedXml(f"unparseable result set: {e}") from e
    if root.tag != "resultset":
        raise SchemaViolation(f"root element is <{root.tag}>, not <resultset>")
    if set(root.attrib) != {"query", "origin"}:
        raise SchemaViolation("resultset must carry exactly query and origin")
    rows = []
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
        rows.append(Row(child.attrib["id"], fields))
    if summary_el is None:
        raise SchemaViolation("missing summary")
    try:
        declared = (int(summary_el.attrib["images"]),
                    int(summary_el.attrib["patients"]))
    except (KeyError, ValueError) as e:
        raise SchemaViolation(f"bad summary: {e}") from e
    return root.attrib["query"], root.attrib["origin"], rows, declared


def _target_of(query_text: str) -> str | None:
    words = query_text.split()
    if len(words) >= 2 and words[0] == "select":
        return words[1]
    return None


def compute_summary(query_text: str, rows: tuple) -> tuple[int, int]:
    """(num_images, num_patients) as re-derived from the rows themselves."""
    # an id of a kind holds ":<kind>:", so the substring test only skips
    # rows that id_kind would reject
    if _target_of(query_text) == "images":
        num_images = len(rows)
    else:
        num_images = sum(1 for r in rows
                         if ":image:" in r.id and id_kind(r.id) == "image")
    patient_ids = set()
    for r in rows:
        if "patient.id" in r.fields:
            patient_ids.add(r.fields["patient.id"])
        elif ":patient:" in r.id and id_kind(r.id) == "patient":
            patient_ids.add(r.id)
    return num_images, len(patient_ids)


@dataclass(frozen=True)
class ResultSet:
    query_text: str
    origin_sites: frozenset = field(default_factory=frozenset)
    rows: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "origin_sites", frozenset(self.origin_sites))
        rows = tuple(sorted(self.rows, key=lambda r: r.id))
        for r, after in zip(rows, rows[1:]):
            if r.id == after.id:
                raise SchemaViolation(f"duplicate row id {r.id}")
        object.__setattr__(self, "rows", rows)

    @property
    def summary(self) -> tuple[int, int]:
        return compute_summary(self.query_text, self.rows)

    # --- XML ------------------------------------------------------------------

    def to_xml(self) -> bytes:
        origin = ",".join(sorted(self.origin_sites))
        lines = [f'<resultset query="{_attr(self.query_text)}" origin="{_attr(origin)}">']
        for row in self.rows:
            if row.fields:
                lines.append(f'  <row id="{_attr(row.id)}">')
                for name in sorted(row.fields):
                    lines.append(f'    <field name="{_attr(name)}">'
                                 f'{_text(row.fields[name])}</field>')
                lines.append("  </row>")
            else:
                lines.append(f'  <row id="{_attr(row.id)}"/>')
        num_images, num_patients = self.summary
        lines.append(f'  <summary images="{num_images}" patients="{num_patients}"/>')
        lines.append("</resultset>")
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_xml(cls, data: bytes) -> "ResultSet":
        query, origin, rows, declared = _read_canonical(data) or _read_tree(data)
        origin_sites = frozenset(origin.split(",")) if origin else frozenset()
        result = cls(query, origin_sites, tuple(rows))
        summary = result.summary
        if summary != declared:
            raise SchemaViolation(
                f"summary says images={declared[0]} patients={declared[1]}, "
                f"rows say images={summary[0]} patients={summary[1]}")
        return result


def merge(query_text: str, parts: dict[str, Part]) -> ResultSet:
    """The answer to ``query_text`` from ``parts``, site → its `Part`; each
    answer row is built here, once.  The origin is the sites with rows,
    whichever node merges; identical rows collapse, and the answer's
    ``ResultSet`` sorts the union once."""
    rows: dict[str, Row] = {}
    for part in parts.values():
        for r in part.rows():
            prior = rows.setdefault(r.id, r)
            if prior is not r and prior.fields != r.fields:
                raise SchemaViolation(f"row {r.id} differs between sites")
    origin_sites = frozenset(site for site, part in parts.items() if part)
    return ResultSet(query_text, origin_sites, tuple(rows.values()))
