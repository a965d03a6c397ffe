import itertools
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridbox import resultset
from gridbox.errors import GridError, MalformedXml, SchemaViolation
from gridbox.resultset import (
    Part,
    ResultSet,
    Row,
    checked_part,
    compute_summary,
    merge,
)
from gridbox.query import parse_query, projection

Q = "select images where patient.sex = F"


def image_row(n, site="CAM", patient=0, **fields):
    fields.setdefault("patient.id", f"{site}:patient:{patient:032x}")
    return Row(f"{site}:image:{n:032x}", fields)


def part_of(rows):
    """The part holding ``rows`` in their order; a field a row lacks is None."""
    names = sorted({name for r in rows for name in r.fields})
    return Part([r.id for r in rows], {name: [r.fields.get(name) for r in rows]
                                       for name in names})


def answer(query, origin_sites, rows):
    """The result set of ``rows``, whose ids differ, in id order."""
    return ResultSet(query, origin_sites, part_of(sorted(rows, key=lambda r: r.id)))


# --- serialization ----------------------------------------------------------------

def test_exact_bytes():
    rs = answer(Q, {"CAM"}, (image_row(1, patient=7, **{"patient.sex": "F"}),))
    pid = f"CAM:patient:{7:032x}"
    assert rs.to_xml().decode() == (
        f'<resultset query="{Q}" origin="CAM">\n'
        f'  <row id="CAM:image:{1:032x}">\n'
        f'    <field name="patient.id">{pid}</field>\n'
        f'    <field name="patient.sex">F</field>\n'
        f'  </row>\n'
        f'  <summary images="1" patients="1"/>\n'
        f'</resultset>\n')


def test_empty_resultset_bytes():
    rs = answer(Q, frozenset(), ())
    assert rs.to_xml() == (
        f'<resultset query="{Q}" origin="">\n'
        f'  <summary images="0" patients="0"/>\n'
        f'</resultset>\n').encode()


def test_fieldless_row_self_closes():
    rs = answer(Q, {"CAM"}, (Row(f"CAM:image:{0:032x}", {}),))
    assert f'<row id="CAM:image:{0:032x}"/>' in rs.to_xml().decode()


def test_rows_sorted_and_origin_sorted():
    rs = merge(Q, {"UDI": part_of([image_row(9, "UDI")]),
                   "CAM": part_of([image_row(1, "CAM")])})
    xml = rs.to_xml().decode()
    assert xml.index("CAM:image") < xml.index("UDI:image")
    assert 'origin="CAM,UDI"' in xml


def test_quotes_in_query_text_escape():
    rs = answer('select images where patient.sex = "F"', {"CAM"}, ())
    xml = rs.to_xml()
    assert b'query="select images where patient.sex = &quot;F&quot;"' in xml
    assert ResultSet.from_xml(xml).query_text == rs.query_text


def test_duplicate_row_ids_rejected():
    """from_xml refuses a document that holds one row id twice, in the
    canonical form and in another."""
    xml = answer(Q, {"CAM"}, [image_row(1), image_row(2)]).to_xml()
    twice = xml.replace(f"{2:032x}".encode(), f"{1:032x}".encode())
    for doc in (twice, twice.replace(b"\n", b"\r\n")):
        with pytest.raises(SchemaViolation, match="duplicate row id"):
            ResultSet.from_xml(doc)


# --- summary ----------------------------------------------------------------------

def test_summary_counts_distinct_patients():
    rows = (image_row(1, patient=1), image_row(2, patient=1), image_row(3, patient=2))
    assert compute_summary(Q, part_of(rows)) == (3, 2)


def test_summary_for_patient_target_counts_row_ids():
    rows = (Row(f"CAM:patient:{1:032x}", {}), Row(f"CAM:patient:{2:032x}", {}))
    assert compute_summary("select patients where true", part_of(rows)) == (0, 2)


def test_summary_same_patient_two_images():
    rows = (image_row(1, patient=5), image_row(2, patient=5))
    rs = answer(Q, {"CAM"}, rows)
    assert rs.summary == (2, 1)


# --- round trip --------------------------------------------------------------------

row_strategy = st.builds(
    image_row,
    n=st.integers(0, 2**32),
    site=st.sampled_from(["CAM", "UDI", "LEE"]),
    patient=st.integers(0, 5),
)


@given(st.lists(row_strategy, max_size=12,
                unique_by=lambda r: r.id))
def test_xml_roundtrip(rows):
    rs = answer(Q, {r.id.split(":")[0] for r in rows}, tuple(rows))
    again = ResultSet.from_xml(rs.to_xml())
    assert again == rs
    assert again.to_xml() == rs.to_xml()


# --- escaping ----------------------------------------------------------------------

# text of any plane joined from pieces of entities, so that escapes of escapes
# such as "&amp;lt;" and entities cut short turn up
entity_pieces = st.sampled_from(['&', '<', '>', '"', ';', "amp", "lt", "gt", "quot",
                                 "&amp;", "&lt;", "&gt;", "&quot;", "&amp;lt;", "&amp;quot;"])
entity_texts = st.lists(st.one_of(entity_pieces, st.characters()), max_size=16).map("".join)


@given(entity_texts)
def test_escape_makes_the_replacements_of_saxutils(text):
    for entities in ({}, resultset._QUOT):
        assert resultset._escape(text, entities) == saxutils.escape(text, entities)
    # which saxutils.unescape undoes
    assert saxutils.unescape(resultset._escape(text, resultset._QUOT), {"&quot;": '"'}) == text


@given(entity_texts)
def test_the_oracles_escape_is_saxutils_escape(text):
    for entities in (None, {'"': "&quot;"}, {'"': "&quot;", "&amp;": "&"}):
        assert oracles.escape(text, entities) == saxutils.escape(text, entities or {})


# --- characters that XML cannot carry -----------------------------------------------

# characters of any plane bar those XML rejects; ones that need escaping or
# that XML keeps although they look special; ones it normalises or rejects
plain_chars = st.characters(blacklist_categories=("Cs", "Cc"),
                            blacklist_characters="\ufffe\uffff")
SPECIAL = '&<>"\' ;#ampltgquot\x7f\x85\u2028'
NORMALISED = "\t\n\r"  # XML turns these into a space in an attribute; \r also in text
REJECTED = "\x00\x01\x0b\x1f\ufffe\uffff"


def texts(draw):
    """Text over escaped characters only, or also ones XML normalises, or
    also ones it rejects."""
    extra = draw(st.sampled_from(["", NORMALISED, NORMALISED + REJECTED]))
    return st.text(st.one_of(plain_chars, st.sampled_from(SPECIAL + extra)), max_size=10)


special = st.text(st.one_of(plain_chars, st.sampled_from(SPECIAL)), max_size=12)


@given(st.lists(st.builds(Row, special, st.dictionaries(special, special, max_size=3)),
                max_size=6, unique_by=lambda r: r.id), special)
def test_canonical_reader_reads_what_to_xml_writes(rows, query):
    """Escaped characters and text of any plane read back as they were written."""
    rs = answer(query, {"CAM"}, rows)
    assert ResultSet.from_xml(rs.to_xml()) == rs


@pytest.mark.parametrize("char", list(SPECIAL + NORMALISED + REJECTED))
@pytest.mark.parametrize("where", ["query", "id", "name", "text"])
def test_canonical_reader_on_each_awkward_character(char, where):
    """A document that holds ``char`` reads back as the answer written
    unless XML rejects the character or normalises it where it stands: the
    query text, an id and a field name are attributes, where XML turns \\t,
    \\n and \\r into a space; in a text it turns \\r into \\n."""
    value = {"query": Q, "id": "CAM:image:x", "name": "image.view", "text": "CC"}
    value[where] += char
    rs = answer(value["query"], {"CAM"}, (Row(value["id"], {value["name"]: value["text"]}),))
    try:
        read = ResultSet.from_xml(rs.to_xml())
    except MalformedXml:
        read = None
    assert (read == rs) == (char not in REJECTED + ("\r" if where == "text" else NORMALISED))


@st.composite
def query_answers(draw):
    """QUERY answers to Q as an origin sends them, checked or not, whose id
    tails and column texts draw on alphabets of their own."""
    tail, text = texts(draw), texts(draw)
    ids = sorted({f"{site}:image:{t}" for site, t in draw(st.lists(
        st.tuples(st.sampled_from(["CAM", "UDI"]), tail), max_size=6))})
    fields = {name: draw(st.lists(st.none() | text, min_size=len(ids), max_size=len(ids)))
              for name in projection(parse_query(Q))}
    return {"query": Q, "origin": sorted({i.split(":")[0] for i in ids}),
            "ids": ids, "fields": fields}


@settings(max_examples=300)
@given(query_answers())
def test_a_checked_answer_reads_back_from_its_xml(answer):
    """checked_part refuses an answer exactly when an id holds a character
    XML rejects or normalises in an attribute, or a text one it rejects or
    normalises in a text; any answer it lets pass reads back from its XML."""
    column_texts = filter(None, itertools.chain.from_iterable(answer["fields"].values()))
    carried = not (set("".join(answer["ids"])) & set(NORMALISED + REJECTED)
                   or set("".join(column_texts)) & set("\r" + REJECTED))
    try:
        part = checked_part(answer, parse_query(Q), Q)
    except SchemaViolation:
        assert not carried
        return
    assert carried
    rs = ResultSet(Q, answer["origin"], part)
    assert rs.to_xml() == oracles.reference_xml(rs)
    assert ResultSet.from_xml(rs.to_xml()) == rs


PID = f"CAM:patient:{7:032x}"
IID = f"CAM:image:{1:032x}"
EXPECTED = answer("q <&>", {"CAM"}, (Row(IID, {"patient.id": PID, "image.view": "CC"}),))
CANONICAL = EXPECTED.to_xml().decode()


@pytest.mark.parametrize("xml", [
    '<?xml version="1.0" encoding="UTF-8"?>\n' + CANONICAL,
    "\ufeff" + CANONICAL,
    CANONICAL.replace("\n", "\r\n"),
    CANONICAL.replace("\n", "").replace("  ", ""),
    CANONICAL.rstrip("\n"),
    CANONICAL + "\n\n",
    CANONICAL.replace('query="q &lt;&amp;&gt;" origin="CAM"', 'origin="CAM" query="q &lt;&amp;&gt;"'),
    CANONICAL.replace('"', "'"),
    CANONICAL.replace(">CC<", ">&#67;&#x43;<"),
    CANONICAL.replace(">CC<", "><![CDATA[CC]]><"),
    CANONICAL.replace("q &lt;&amp;&gt;", "q &lt;&amp;>"),
    CANONICAL.replace("  </row>", "  <!-- a comment -->\n  </row>"),
    CANONICAL.replace('images="1"', 'images="01"'),
    CANONICAL.replace('"image.view">CC</field>', '"image.view">C&#x43;</field>'),
    CANONICAL.replace("<summary", "<summary  "),
], ids=["declaration", "bom", "crlf", "unindented", "no-final-newline",
        "trailing-blank-lines", "attribute-order", "single-quotes", "char-refs",
        "cdata", "raw-gt-in-attribute", "comment", "leading-zero", "hex-char-ref",
        "space-in-tag"])
def test_valid_non_canonical_documents_parse_through_the_fallback(xml):
    """Any well-formed document of the schema means what its canonical form does."""
    assert ResultSet.from_xml(xml.encode()) == EXPECTED


def test_a_repeated_field_name_is_declined():
    xml = CANONICAL.replace('"image.view"', '"patient.id"').encode()
    with pytest.raises(SchemaViolation, match="duplicate field"):
        ResultSet.from_xml(xml)


def test_empty_field_forms_parse_alike():
    fieldless = answer(Q, {"CAM"}, (Row(IID, {}),))
    not_self_closed = fieldless.to_xml().replace(b"/>\n  <summary", b"></row>\n  <summary", 1)
    assert ResultSet.from_xml(not_self_closed) == fieldless
    empty = answer(Q, {"CAM"}, (image_row(1, **{"image.view": ""}),))
    self_closed = empty.to_xml().replace(b'"image.view"></field>', b'"image.view"/>')
    assert ResultSet.from_xml(self_closed) == empty == ResultSet.from_xml(empty.to_xml())


def test_from_xml_rejects_garbage():
    with pytest.raises(MalformedXml):
        ResultSet.from_xml(b"this is not xml")
    with pytest.raises(SchemaViolation):
        ResultSet.from_xml(b"<wrong/>")


@pytest.mark.parametrize("xml", [
    '<resultset query="q"><summary images="0" patients="0"/></resultset>',
    '<resultset query="q" origin="" extra="1"><summary images="0" patients="0"/></resultset>',
    '<resultset query="q" origin=""/>',
    '<resultset query="q" origin=""><summary images="0" patients="0"/>'
    '<summary images="0" patients="0"/></resultset>',
    '<resultset query="q" origin=""><summary images="0" patients="0"/>'
    '<row id="x"/></resultset>',
    '<resultset query="q" origin=""><row id="x" extra="1"/>'
    '<summary images="0" patients="1"/></resultset>',
    '<resultset query="q" origin=""><other/><summary images="0" patients="0"/></resultset>',
    '<resultset query="q" origin=""><summary images="3" patients="0"/></resultset>',
])
def test_from_xml_enforces_schema(xml):
    with pytest.raises(SchemaViolation):
        ResultSet.from_xml(xml.encode())


@pytest.mark.parametrize("digits", [19, 5000])
def test_overlong_summary_count_is_a_schema_violation(digits):
    """A count is reported as a bad summary, or one that the rows
    contradict, even past the length ``int`` accepts from a string."""
    xml = CANONICAL.replace('images="1"', f'images="{"9" * digits}"').encode()
    with pytest.raises(SchemaViolation):
        ResultSet.from_xml(xml)


def test_from_xml_checks_declared_summary_against_rows():
    rs = answer(Q, {"CAM"}, (image_row(1),))
    tampered = rs.to_xml().replace(b'images="1"', b'images="2"')
    with pytest.raises(SchemaViolation):
        ResultSet.from_xml(tampered)


# --- the columnar render against the row-by-row reference ---------------------------

cells = st.none() | special


@st.composite
def columnar_answers(draw, nulls=True):
    """Answers with null cells, all-null columns and rows with no fields,
    and ``&<>"`` in ids, field names, values, origin and query text; with
    ``nulls`` false, answers whose columns hold no null."""
    ids = sorted(draw(st.sets(st.sampled_from([IID, PID, f"UDI:image:{2:032x}"]) | special,
                              max_size=6)))
    names = draw(st.sets(st.sampled_from(["patient.id", "image.view"]) | special, max_size=3))
    fields = {name: draw(st.lists(st.none() if nulls and draw(st.booleans()) else
                                  cells if nulls else special,
                                  min_size=len(ids), max_size=len(ids)))
              for name in names}
    query = draw(st.sampled_from([Q, "select patients where true"]) | special)
    origin_sites = draw(st.frozensets(st.sampled_from(["CAM", "UDI", "A&B", 'Q"<>']),
                                      max_size=3))
    return ResultSet(query, origin_sites, Part(ids, fields))


@settings(max_examples=300)
@given(columnar_answers())
def test_to_xml_writes_the_reference_bytes(rs):
    assert rs.to_xml() == oracles.reference_xml(rs)
    assert ResultSet.from_xml(rs.to_xml()) == rs


@settings(max_examples=300)
@given(columnar_answers(nulls=False))
def test_to_xml_writes_the_reference_bytes_of_null_free_columns(rs):
    """Columns with no null, the rows all of one shape, as broad answers are."""
    assert rs.to_xml() == oracles.reference_xml(rs)
    assert ResultSet.from_xml(rs.to_xml()) == rs


@pytest.mark.parametrize("ids,fields", [
    ([], {}),
    ([], {"patient.id": [], "image.view": []}),
    ([IID, PID], {}),
    ([IID, PID], {"image.view": [None, None]}),
    ([IID, PID], {"image.view": [None, "CC"], "patient.id": [None, None]}),
    ([IID, PID], {"image.view": ["", "CC"]}),
], ids=["no-rows", "no-rows-with-columns", "no-fields", "null-column", "a-row-with-no-field",
        "empty-text"])
def test_to_xml_writes_the_reference_bytes_at_the_edges(ids, fields):
    for query in (Q, "select patients where true"):
        rs = ResultSet(query, {"CAM"}, Part(ids, fields))
        assert rs.to_xml() == oracles.reference_xml(rs)
        assert ResultSet.from_xml(rs.to_xml()) == rs


edit_chars = (st.sampled_from('<>"&\n\t\r')
              | st.characters(whitelist_categories=("Cc",))
              | st.characters(min_codepoint=0x80, blacklist_categories=("Cs",))
              | st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x7f))


@settings(max_examples=100)
@given(columnar_answers(), edit_chars, st.sampled_from(["delete", "insert", "replace"]))
def test_from_xml_reads_or_refuses_a_document_after_one_edit(rs, char, edit):
    """A canonical document with one character deleted, inserted or
    replaced, at every offset, is read or refused with a GridError."""
    xml = rs.to_xml().decode()
    for at in range(len(xml) + 1):
        kept = xml[at + (edit != "insert"):]
        try:
            ResultSet.from_xml((xml[:at] + ("" if edit == "delete" else char) + kept).encode())
        except GridError:
            pass


# --- merge -------------------------------------------------------------------------

def test_merge_disjoint_counts_add():
    cam = [image_row(i, "CAM") for i in range(8)]
    udi = [image_row(i, "UDI") for i in range(16)]
    merged = merge(Q, {"CAM": part_of(cam), "UDI": part_of(udi)})
    assert len(merged.rows) == 24
    assert merged.origin_sites == {"CAM", "UDI"}
    assert merged.query_text == Q


def test_merge_identity_with_empty():
    rows = [image_row(1)]
    merged = merge(Q, {"CAM": part_of(rows), "UDI": part_of([])})
    assert merged == merge(Q, {"UDI": part_of([]), "CAM": part_of(rows)})
    assert merged.rows == tuple(rows)
    assert merged.origin_sites == {"CAM"}
    assert merge(Q, {"UDI": part_of([])}) == answer(Q, frozenset(), ())


def test_merge_dedups_identical_rows():
    merged = merge(Q, {"CAM": part_of([image_row(1)]), "UDI": part_of([image_row(1)])})
    assert len(merged.rows) == 1
    assert merged.origin_sites == {"CAM", "UDI"}


def test_merge_conflicting_fields_is_an_error():
    with pytest.raises(SchemaViolation):
        merge(Q, {"CAM": part_of([image_row(1, **{"patient.sex": "F"})]),
                  "UDI": part_of([image_row(1, **{"patient.sex": "M"})])})


@given(st.lists(st.lists(row_strategy, max_size=10, unique_by=lambda r: r.id),
                min_size=1, max_size=3))
def test_merge_is_independent_of_part_order(lists):
    """Parts in every order give the answer that holds each row once.  Each
    part's ids are strictly increasing, as checked_part and select make
    them; the parts may share rows or interleave their ids."""
    # identical ids appearing in several parts carry identical fields here
    pool = {r.id: r for rows in lists for r in rows}
    parts = {site: part_of(sorted((pool[r.id] for r in rows), key=lambda r: r.id))
             for site, rows in zip(("CAM", "UDI", "LEE"), lists)}
    expected = answer(Q, {site for site, part in parts.items() if part}, pool.values())
    for order in itertools.permutations(parts):
        merged = merge(Q, {site: parts[site] for site in order})
        assert merged == expected
        assert merged.to_xml() == expected.to_xml()


@pytest.fixture
def sorts(monkeypatch):
    """The calls merge makes of the sort it falls back to."""
    calls = []

    def spy(ids, fields):
        calls.append(list(ids))
        return in_id_order(ids, fields)

    in_id_order = resultset._in_id_order
    monkeypatch.setattr(resultset, "_in_id_order", spy)
    return calls


def rows_numbered(numbers, site="CAM", **fields):
    return part_of([image_row(n, site, **fields) for n in numbers])


def test_parts_that_do_not_overlap_are_laid_end_to_end(sorts):
    """With each part's last id below the next part's first, whichever
    order the parts come in, merge sorts nothing."""
    parts = {"CAM": rows_numbered([5, 6, 9], **{"image.view": "CC"}),
             "UDI": rows_numbered([1, 2, 4], "UDI", **{"image.view": "MLO"}),
             "LEE": rows_numbered([10, 12])}  # CAM's rows, without image.view
    in_order = [parts[site] for site in ("CAM", "LEE", "UDI")]
    for order in itertools.permutations(parts):
        merged = merge(Q, {site: parts[site] for site in order})
        assert merged.part.ids == [i for part in in_order for i in part.ids]
        assert merged.part.fields == {
            "image.view": ["CC"] * 3 + [None] * 2 + ["MLO"] * 3,
            "patient.id": [p for part in in_order for p in part.fields["patient.id"]]}
    assert sorts == []


def test_interleaved_parts_merge_in_id_order(sorts):
    merged = merge(Q, {"CAM": rows_numbered([1, 3, 5], **{"image.view": "CC"}),
                       "UDI": rows_numbered([2, 4], **{"image.view": "MLO"})})
    assert merged.part.ids == [image_row(n).id for n in range(1, 6)]
    assert merged.part.fields["image.view"] == ["CC", "MLO", "CC", "MLO", "CC"]
    assert len(sorts) == 1


def test_overlapping_parts_collapse_their_identical_rows(sorts):
    merged = merge(Q, {"CAM": rows_numbered([1, 2, 3], **{"image.view": "CC"}),
                       "UDI": rows_numbered([2, 3, 4], **{"image.view": "CC"})})
    assert merged.part.ids == [image_row(n).id for n in range(1, 5)]
    assert merged.part.fields["image.view"] == ["CC"] * 4
    assert merged.origin_sites == {"CAM", "UDI"}
    assert len(sorts) == 1
    # a part that only touches the next one at a shared id overlaps it too
    assert merge(Q, {"CAM": rows_numbered([1, 2]), "UDI": rows_numbered([2, 3])}) == \
        answer(Q, {"CAM", "UDI"}, [image_row(n) for n in (1, 2, 3)])
    assert len(sorts) == 2


def test_overlapping_parts_with_differing_rows_are_an_error(sorts):
    cam = rows_numbered([1, 2, 3], **{"image.view": "CC"})
    udi = rows_numbered([2, 4], **{"image.view": "CC"})
    udi.fields["image.view"][0] = "MLO"
    with pytest.raises(SchemaViolation, match=f"row {image_row(2).id} differs between sites"):
        merge(Q, {"CAM": cam, "UDI": udi})
    assert len(sorts) == 1


@given(st.data())
def test_merge_builds_the_rows_a_part_holds(data):
    ids = sorted(f"CAM:image:{n:032x}"
                 for n in data.draw(st.sets(st.integers(0, 2**32), max_size=8)))
    names = data.draw(st.sets(st.sampled_from(
        ["derived.density", "image.dose_mgy", "patient.id", "patient.sex"])))
    fields = {name: data.draw(st.lists(st.none() | st.text(max_size=4),
                                       min_size=len(ids), max_size=len(ids)))
              for name in names}
    part = Part(ids, fields)
    by_hand = tuple(Row(row_id, {name: column[i] for name, column in fields.items()
                                 if column[i] is not None})
                    for i, row_id in enumerate(ids))
    merged = merge(Q, {"CAM": part})
    assert len(part) == len(ids)
    assert merged.rows == by_hand
    assert merged.origin_sites == ({"CAM"} if ids else set())


def test_an_empty_merge_keeps_the_projections_columns():
    merged = merge(Q, {"CAM": Part([], {"patient.id": [], "patient.sex": []})})
    assert merged.part.fields == {"patient.id": [], "patient.sex": []}
    assert merged.to_xml() == answer(Q, frozenset(), ()).to_xml()


# --- the check of a part or an answer ---------------------------------------------

def answer_of(rs: ResultSet) -> dict:
    """The QUERY answer an origin sends for ``rs``."""
    return {"query": rs.query_text, "origin": sorted(rs.origin_sites),
            "ids": rs.part.ids, "fields": rs.part.fields}


TWO_SITES = merge(Q, {"CAM": part_of([image_row(1, "CAM", **{"patient.sex": "F"})]),
                      "UDI": part_of([image_row(2, "UDI", **{"patient.sex": "F"})])})


def test_a_checked_answer_renders_the_merged_bytes():
    got = resultset.checked_part(answer_of(TWO_SITES), parse_query(Q), Q)
    assert ResultSet(Q, ["CAM", "UDI"], got).to_xml() == TWO_SITES.to_xml()


def test_a_peer_part_holds_only_its_own_rows():
    honest = {"query": Q, "ids": TWO_SITES.part.ids, "fields": TWO_SITES.part.fields}
    with pytest.raises(SchemaViolation, match="not minted for images by UDI"):
        resultset.checked_part(honest, parse_query(Q), Q, "UDI")


@pytest.mark.parametrize("bad", [
    None, [], "text", 7,
    {"query": Q, "ids": [], "fields": {"patient.id": [], "patient.sex": []}},
    dict(answer_of(TWO_SITES), origin="CAM,UDI"),
    dict(answer_of(TWO_SITES), origin=["CAM", 7]),
    dict(answer_of(TWO_SITES), origin=["CAM", "udi"]),
    dict(answer_of(TWO_SITES), origin=["CAM", "UDI", "X,Y"]),
    dict(answer_of(TWO_SITES), origin=["CAM"]),
    dict(answer_of(TWO_SITES), ids=[7, 8]),
    dict(answer_of(TWO_SITES), fields=None),
    dict(answer_of(TWO_SITES), fields={"patient.id": None, "patient.sex": ["F", "F"]}),
], ids=["null", "list", "text", "number", "no-origin", "origin-text", "origin-number",
        "origin-lowercase", "origin-comma", "origin-short", "number-ids", "null-fields", "null-column"])
def test_a_bad_answer_is_a_schema_violation(bad):
    with pytest.raises(SchemaViolation):
        resultset.checked_part(bad, parse_query(Q), Q)


THREE_ROWS = merge(Q, {"CAM": part_of([image_row(1, "CAM", **{"patient.sex": "F"}),
                                       image_row(3, "CAM", **{"patient.sex": "M"})]),
                       "UDI": part_of([image_row(2, "UDI", **{"patient.sex": "F"})])})
NOT_TEXT = [0, False, [], {}, 1, True, 1.5, ["x"]]


@pytest.mark.parametrize("cell", NOT_TEXT, ids=repr)
@pytest.mark.parametrize("column", [["F", "X", "M"], ["F", "X", None], [None, "X", "M"],
                                    ["X", None, "M"], ["F", "M", "X"]])
def test_a_column_cell_that_is_not_a_text_or_null_is_refused(cell, column):
    """Each column is checked by joining it; a falsy cell that a join of the
    non-null cells would skip is refused too, with or without a null beside it."""
    good = answer_of(THREE_ROWS)
    assert resultset.checked_part(good, parse_query(Q), Q) == THREE_ROWS.part
    bad = dict(good, fields=dict(good["fields"], **{
        "patient.sex": [cell if text == "X" else text for text in column]}))
    with pytest.raises(SchemaViolation, match="column patient.sex is not 3 texts or nulls"):
        resultset.checked_part(bad, parse_query(Q), Q)


@pytest.mark.parametrize("item", [*NOT_TEXT, None], ids=repr)
@pytest.mark.parametrize("at", [0, 1, 2])
def test_an_id_that_is_not_a_text_is_refused(item, at):
    ids = list(THREE_ROWS.part.ids)
    ids[at] = item
    with pytest.raises(SchemaViolation, match="ids are not a list of strings"):
        resultset.checked_part(dict(answer_of(THREE_ROWS), ids=ids), parse_query(Q), Q)


# --- the escape record of a checked part -------------------------------------------

@pytest.mark.parametrize("char", '&<>"')
@pytest.mark.parametrize("where", ["id", "text"])
def test_each_escaped_character_renders_the_reference_bytes(char, where):
    """An id or a text holding ``char`` renders the reference bytes, whether
    the part came through checked_part, which records the columns that need
    no escape, or through merge or from_xml, which record none."""
    ids = [IID, f"CAM:image:{2:032x}" + (char if where == "id" else "")]
    fields = {"patient.id": [PID, PID],
              "patient.sex": ["F", "M" + (char if where == "text" else "")]}
    part = checked_part({"query": Q, "origin": ["CAM"], "ids": ids, "fields": fields},
                        parse_query(Q), Q)
    # the ids are an attribute, which escapes '"'; a text keeps it as it is
    escaped = {"id": {None}, "text": set() if char == '"' else {"patient.sex"}}[where]
    assert part.plain == {None, "patient.id", "patient.sex"} - escaped
    checked = ResultSet(Q, ["CAM"], part)
    merged = merge(Q, {"CAM": Part(list(ids), {k: list(v) for k, v in fields.items()})})
    parsed = ResultSet.from_xml(checked.to_xml())
    for rs in (checked, merged, parsed):
        assert rs.to_xml() == oracles.reference_xml(rs)
    assert merged.part.plain == parsed.part.plain == frozenset()
    assert checked == merged == parsed


def test_the_escape_record_is_not_part_of_equality():
    part = checked_part(answer_of(THREE_ROWS), parse_query(Q), Q)
    assert part.plain == {None, "patient.id", "patient.sex"}
    bare = Part(part.ids, part.fields)
    assert part == bare
    assert ResultSet(Q, ["CAM", "UDI"], part) == ResultSet(Q, ["CAM", "UDI"], bare)
    assert ResultSet(Q, ["CAM", "UDI"], part).to_xml() == THREE_ROWS.to_xml()


def test_rendering_a_checked_part_joins_no_column_again(monkeypatch):
    part = checked_part(answer_of(THREE_ROWS), parse_query(Q), Q)
    expected = THREE_ROWS.to_xml()
    joins = []
    joined_texts = resultset._joined_texts
    monkeypatch.setattr(resultset, "_joined_texts",
                        lambda column, *a: joins.append(column) or joined_texts(column, *a))
    assert ResultSet(Q, ["CAM", "UDI"], part).to_xml() == expected
    assert joins == []
    THREE_ROWS.to_xml()  # a merged answer tests each of its columns itself
    assert len(joins) == 3


def checked_site_part(rows, site):
    part = part_of(rows)
    return checked_part({"query": Q, "ids": part.ids, "fields": part.fields},
                        parse_query(Q), Q, site)


def test_rendering_a_merge_of_checked_parts_joins_no_column_again(monkeypatch):
    """merge keeps the escape record: a column is plain in the merged part
    when it is plain in every part with rows, so the client, which merges
    the checked parts of the sites, renders without joining a column again."""
    parts = {"CAM": checked_site_part([image_row(1, "CAM", **{"patient.sex": "F"}),
                                       image_row(3, "CAM", **{"patient.sex": "M"})], "CAM"),
             "UDI": checked_site_part([image_row(2, "UDI", **{"patient.sex": "F"})], "UDI"),
             "LEE": checked_part({"query": Q, "ids": [], "fields": {
                 "patient.id": [], "patient.sex": []}}, parse_query(Q), Q, "LEE")}
    merged = merge(Q, parts)
    assert merged == THREE_ROWS
    assert merged.part.plain == {None, "patient.id", "patient.sex"}
    # a column that one part must escape is escaped in the merge
    escaping = merge(Q, dict(parts, UDI=checked_site_part(
        [image_row(2, "UDI", **{"patient.sex": "F&M"})], "UDI")))
    assert escaping.part.plain == {None, "patient.id"}
    expected, reference = THREE_ROWS.to_xml(), oracles.reference_xml(escaping)
    joins = []
    joined_texts = resultset._joined_texts
    monkeypatch.setattr(resultset, "_joined_texts",
                        lambda column, *a: joins.append(column) or joined_texts(column, *a))
    assert merged.to_xml() == expected
    assert joins == []
    assert escaping.to_xml() == reference
    assert joins == [escaping.part.fields["patient.sex"]]
