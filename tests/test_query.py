from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridbox.errors import NotAMember, QuerySyntaxError, TypeMismatch, UnknownAttribute
from gridbox.query import (
    And,
    BoolLit,
    Comparison,
    FormalQuery,
    Not,
    Or,
    RangeTest,
    decompose,
    parse_query,
    print_query,
    projection,
    referenced_attrs,
)


def gid_str(site="CAM", kind="patient", n=0):
    return f"{site}:{kind}:{n:032x}"


# --- parsing ------------------------------------------------------------------

def test_table2_queries_parse():
    q = parse_query("select images where patient.age in [50,60] "
                    "and image.laterality = L")
    assert q.target == "images"
    assert q.expr == And((RangeTest("patient.age", 50, 60),
                          Comparison("image.laterality", "=", "L")))

    q = parse_query("select images where patient.sex = F")
    assert q.expr == Comparison("patient.sex", "=", "F")


def test_precedence_and_binds_tighter_than_or():
    q = parse_query("select images where patient.sex = F or patient.sex = M "
                    "and image.view = CC")
    assert isinstance(q.expr, Or)
    assert isinstance(q.expr.parts[1], And)


def test_not_binds_tightest():
    q = parse_query("select images where not patient.sex = F and image.view = CC")
    assert isinstance(q.expr, And)
    assert isinstance(q.expr.parts[0], Not)


def test_parens_override():
    q = parse_query("select images where (patient.sex = F or patient.sex = M) "
                    "and image.view = CC")
    assert isinstance(q.expr, And)
    assert isinstance(q.expr.parts[0], Or)


def test_values_carry_types():
    q = parse_query('select images where study.date >= 2001-01-01 '
                    'and image.dose_mgy < 1.5 and patient.age = 50 '
                    'and patient.sex = "F"')
    parts = q.expr.parts
    assert parts[0].value == date(2001, 1, 1)
    assert parts[1].value == 1.5
    assert parts[2].value == 50
    assert parts[3].value == "F"


def test_quoted_and_bareword_strings_agree():
    a = parse_query("select images where patient.sex = F")
    b = parse_query('select images where patient.sex = "F"')
    assert a == b


@pytest.mark.parametrize("text", [
    "select images where",
    "select where patient.sex = F",
    "select rows where patient.sex = F",
    "select images patient.sex = F",
    "select images where patient.sex =",
    "select images where patient.sex ! F",
    "select images where (patient.sex = F",
    "select images where patient.sex = F extra",
    'select images where patient.sex = "F',
    "select images where patient.age in [50 60]",
    "select images where and",
])
def test_syntax_errors(text):
    with pytest.raises(QuerySyntaxError):
        parse_query(text)


def test_syntax_error_carries_position_and_expectations():
    try:
        parse_query("select images where patient.sex = F extra")
    except QuerySyntaxError as e:
        assert "extra" in str(e)
    try:
        parse_query("select images wh")
    except QuerySyntaxError as e:
        assert "where" in str(e)


@pytest.mark.parametrize("text,exc", [
    ("select images where patient.height = 170", UnknownAttribute),
    ("select images where patient.sex = X", TypeMismatch),
    ("select images where patient.sex < F", TypeMismatch),
    ("select images where patient.sex in [A,B]", TypeMismatch),
    ("select images where patient.age in [60,50]", TypeMismatch),
    ("select images where patient.age = F", TypeMismatch),
    ("select images where study.date = notadate", TypeMismatch),
    ("select images where patient.id = nonsense", TypeMismatch),
    ("select images where image.id = CAM:patient:" + "0" * 32, TypeMismatch),
    ("select images where patient.id != CAM:study:" + "0" * 32, TypeMismatch),
])
def test_vocabulary_and_type_checks(text, exc):
    with pytest.raises(exc):
        parse_query(text)


def test_derived_attributes_are_open_vocabulary():
    q = parse_query("select images where derived.density > 0.25")
    assert q.expr == Comparison("derived.density", ">", 0.25)
    with pytest.raises(UnknownAttribute):
        parse_query("select images where derived.Bad = 1")


# --- canonical printer ------------------------------------------------------------

CANONICAL_CASES = [
    "select images where patient.sex = F",
    "select patients where patient.age in [50,60]",
    "select images where not (patient.sex = F and image.view = CC)",
    "select images where patient.sex = F and image.view = CC or image.view = MLO",
    "select images where (patient.sex = F or image.view = CC) and image.view = MLO",
    "select studies where study.date >= 1999-01-31",
    "select images where derived.density > 0.25 or derived.count = 2.0",
    "select images where true",
    "select images where not false",
    'select images where patient.id = CAM:patient:' + "0" * 32,
]


@pytest.mark.parametrize("text", CANONICAL_CASES)
def test_print_parse_roundtrip(text):
    q = parse_query(text)
    assert parse_query(print_query(q)) == q
    # canonical form is a fixpoint
    assert print_query(parse_query(print_query(q))) == print_query(q)


# random well-typed ASTs, then the printer must round-trip them

attrs_typed = st.sampled_from([
    ("patient.sex", st.sampled_from(["F", "M"])),
    ("image.laterality", st.sampled_from(["L", "R"])),
    ("image.view", st.sampled_from(["CC", "MLO"])),
    ("patient.age", st.integers(-5, 120)),
    ("image.dose_mgy", st.one_of(
        st.integers(0, 10),
        st.floats(0, 100, allow_nan=False).map(lambda x: float(repr(x))))),
    ("study.date", st.dates(date(1900, 1, 1), date(2100, 1, 1))),
    ("derived.density", st.floats(0, 1, allow_nan=False).map(lambda x: float(repr(x)))),
])


@st.composite
def predicates(draw):
    attr, values = draw(attrs_typed)
    value = draw(values)
    if isinstance(value, str):
        op = draw(st.sampled_from(["=", "!="]))
        return Comparison(attr, op, value)
    if draw(st.booleans()):
        lo = draw(values)
        hi = draw(values)
        if hi < lo:
            lo, hi = hi, lo
        return RangeTest(attr, lo, hi)
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    return Comparison(attr, op, value)


def exprs():
    return st.recursive(
        predicates() | st.builds(BoolLit, st.booleans()),
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(lambda ps: And(tuple(ps)),
                      st.lists(children, min_size=2, max_size=4)),
            st.builds(lambda ps: Or(tuple(ps)),
                      st.lists(children, min_size=2, max_size=4)),
        ),
        max_leaves=12)


@given(st.sampled_from(["patients", "studies", "images"]), exprs())
def test_printer_roundtrips_random_asts(target, expr):
    q = FormalQuery(target, expr)
    text = print_query(q)
    again = parse_query(text)
    assert again == q
    assert print_query(again) == text


def test_huge_literal_still_roundtrips():
    q = parse_query("select images where image.dose_mgy < 123456789012345678.9")
    assert parse_query(print_query(q)) == q


# --- decomposition ---------------------------------------------------------------

MEMBERS = ["CAM", "LEE", "UDI"]


def test_broadcast_to_all_other_members():
    q = parse_query("select images where patient.sex = F")
    assert decompose(q, MEMBERS, "CAM") == ["LEE", "UDI"]


def test_single_node_vo_has_no_remotes():
    q = parse_query("select images where true")
    assert decompose(q, ["CAM"], "CAM") == []


def test_not_a_member():
    q = parse_query("select images where true")
    with pytest.raises(NotAMember):
        decompose(q, ["CAM"], "OXF")


@pytest.mark.parametrize("attr", ["patient.id", "image.id"])
def test_id_conjunct_prunes_to_minting_site(attr):
    kind = attr.split(".")[0]
    q = parse_query(f"select images where {attr} = {gid_str('UDI', kind)} "
                    f"and patient.sex = F")
    assert decompose(q, MEMBERS, "CAM") == ["UDI"]


def test_self_owned_id_needs_no_remotes():
    q = parse_query(f"select images where patient.id = {gid_str('CAM')}")
    assert decompose(q, MEMBERS, "CAM") == []


def test_conflicting_pins_fan_out_nowhere():
    q = parse_query(f"select images where patient.id = {gid_str('CAM')} "
                    f"and image.id = {gid_str('UDI', 'image')}")
    assert decompose(q, MEMBERS, "LEE") == []


def test_id_disjunct_does_not_prune():
    q = parse_query(f"select images where patient.id = {gid_str('UDI')} "
                    f"or patient.sex = F")
    assert decompose(q, MEMBERS, "CAM") == ["LEE", "UDI"]


def test_negated_id_does_not_prune():
    q = parse_query(f"select images where not patient.id = {gid_str('UDI')}")
    assert decompose(q, MEMBERS, "CAM") == ["LEE", "UDI"]


# --- projection ---------------------------------------------------------------

def test_projection_is_referenced_attrs_plus_patient_id():
    q = parse_query("select images where patient.age in [50,60] "
                    "and image.laterality = L")
    assert projection(q) == ("image.laterality", "patient.age", "patient.id")


def test_referenced_attrs_walks_all_nodes():
    q = parse_query("select images where not (patient.sex = F "
                    "or derived.density > 0.5) and study.date < 2000-01-01")
    assert referenced_attrs(q.expr) == {"patient.sex", "derived.density",
                                        "study.date"}


def test_projection_includes_derived_attrs():
    q = parse_query("select images where derived.novel > 0")
    assert "derived.novel" in projection(q)
