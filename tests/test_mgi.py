import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import header_for, make_image
from oracles import parse_mgi_reference
from gridbox.errors import BadMagic, MgiFormatError, PayloadSizeMismatch, UnknownHeaderKey
from gridbox.mgi import HEADER_KEYS, MAGIC, MgiFile, parse_mgi, write_mgi

shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))
header_values = st.text(
    st.characters(codec="utf-8", exclude_characters="\n"), max_size=20)


@st.composite
def mgi_files(draw):
    rows, cols = draw(shapes)
    pixels = draw(arrays(np.uint16, (rows, cols)))
    optional = [k for k in HEADER_KEYS
                if k not in ("image.rows", "image.cols", "image.bits")]
    header = {}
    for key in draw(st.lists(st.sampled_from(optional), unique=True)):
        header[key] = draw(header_values)
    header["image.rows"] = str(rows)
    header["image.cols"] = str(cols)
    header["image.bits"] = "16"
    return MgiFile(header, pixels)


@given(mgi_files())
def test_write_parse_inverse(f):
    again = parse_mgi(write_mgi(f))
    assert again == f
    assert write_mgi(again) == write_mgi(f)


@given(mgi_files())
def test_parse_write_identity_on_valid_bytes(f):
    data = write_mgi(f)
    assert write_mgi(parse_mgi(data)) == data


def test_fixed_layout():
    f = make_image(np.array([[1, 2], [3, 4]], dtype=np.uint16), rows=2, cols=2)
    data = write_mgi(f)
    assert data.startswith(b"MGIMG 1\n")
    head, _, payload = data.partition(b"\n\n")
    assert b"patient.id = P-1001" in head
    assert payload == b"\x00\x01\x00\x02\x00\x03\x00\x04"  # big-endian


def test_pixels_are_big_endian_on_the_wire():
    f = make_image(np.array([[0x1234]], dtype=np.uint16), rows=1, cols=1)
    assert write_mgi(f).endswith(b"\x12\x34")


def test_header_order_is_preserved():
    a = MgiFile({"image.rows": "1", "image.cols": "1", "image.bits": "16",
                 "patient.id": "x"}, np.zeros((1, 1), np.uint16))
    b = MgiFile({"patient.id": "x", "image.rows": "1", "image.cols": "1",
                 "image.bits": "16"}, np.zeros((1, 1), np.uint16))
    assert write_mgi(a) != write_mgi(b)
    assert parse_mgi(write_mgi(a)) == a
    assert parse_mgi(write_mgi(b)) == b


@pytest.mark.parametrize("mutate,exc", [
    (lambda d: b"XXIMG 1\n" + d[8:], BadMagic),
    (lambda d: d.replace(b"\n\n", b"\n", 1), (MgiFormatError, PayloadSizeMismatch)),
    (lambda d: d + b"\x00", PayloadSizeMismatch),
    (lambda d: d[:-1], PayloadSizeMismatch),
    (lambda d: d.replace(b"patient.id", b"patient.ssn"), UnknownHeaderKey),
    (lambda d: d.replace(b"patient.id = ", b"patient.id \xff= "), MgiFormatError),
])
def test_rejects_corrupted_bytes(mutate, exc):
    data = write_mgi(make_image())
    with pytest.raises(exc):
        parse_mgi(mutate(data))


def test_duplicate_header_key_rejected():
    data = write_mgi(make_image())
    dup = data.replace(b"\n\n", b"\npatient.sex = M\n\n", 1)
    with pytest.raises(MgiFormatError):
        parse_mgi(dup)


def test_bits_must_be_16():
    with pytest.raises(MgiFormatError):
        MgiFile({"image.rows": "1", "image.cols": "1", "image.bits": "8"},
                np.zeros((1, 1), np.uint16))


def test_shape_must_match_payload():
    with pytest.raises(MgiFormatError):
        MgiFile(header_for(rows=4, cols=4), np.zeros((2, 2), np.uint16))


def test_missing_mandatory_key():
    h = header_for()
    del h["image.bits"]
    with pytest.raises(MgiFormatError):
        MgiFile(h, np.zeros((8, 8), np.uint16))


# --- the one-pass reader against the line-by-line reference ------------------------

_BAD_UTF8 = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf")


MUTATIONS = ("flip", "insert", "delete", "duplicate", "bad-utf8", "no-blank-line",
             "cut-in-header", "short-payload", "long-payload")


def mutate(draw, data: bytes, kind: str) -> bytes:
    """``data`` with one mutation of its header or its payload's length."""
    if not data:
        return data
    end = data.find(b"\n\n")  # the blank line starts at end + 1
    if end < 0:
        end = max(len(data) - 2, 0)
    header = st.integers(0, min(end + 1, len(data) - 1))  # a position before the payload
    if kind == "flip":
        i = draw(header)
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    if kind == "insert":
        i = draw(header)
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]
    if kind == "delete":
        i = draw(header)
        return data[:i] + data[i + 1:]
    if kind == "duplicate":
        line = draw(st.sampled_from(data[len(MAGIC) + 1:end].split(b"\n")))
        return data[:end] + b"\n" + line + data[end:]
    if kind == "bad-utf8":
        i = draw(st.integers(min(len(MAGIC) + 1, end), end))
        return data[:i] + draw(st.sampled_from(_BAD_UTF8)) + data[i:]
    if kind == "no-blank-line":
        return data[:end] + data[end + 1:]
    if kind == "cut-in-header":
        return data[:draw(header)]
    if kind == "short-payload":
        return data[:len(data) - draw(st.integers(1, max(len(data) - end - 2, 1)))]
    if kind == "long-payload":
        return data + draw(st.binary(min_size=1, max_size=8))
    return data


@st.composite
def mgi_bytes_and_mutations(draw):
    """The bytes of a valid file, unchanged or with up to three mutations."""
    data = write_mgi(draw(mgi_files()))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        data = mutate(draw, data, kind)
    return data


@given(mgi_bytes_and_mutations())
@settings(max_examples=300)
def test_parse_agrees_with_the_line_by_line_reference(data):
    try:
        expected = parse_mgi_reference(data)
    except MgiFormatError as e:
        with pytest.raises(MgiFormatError) as raised:
            parse_mgi(data)
        assert type(raised.value) is type(e)
        return
    got = parse_mgi(data)
    assert got == expected
    assert list(got.header) == list(expected.header)
    assert got.pixels.dtype == np.uint16 and got.pixels.flags.c_contiguous
    assert write_mgi(got) == data


@pytest.mark.parametrize("data,exc", [
    (b"MGIMG 1\npatient.ssn = 1\n\xff\n", UnknownHeaderKey),  # the first bad line wins
    (b"MGIMG 1\npatient.id = \xff\npatient.ssn = 1\n\n", MgiFormatError),
    (b"MGIMG 1\npatient.ssn = 1\nimage.rows = 1", UnknownHeaderKey),
    (b"MGIMG 1\nimage.rows = 1\nimage.rows", MgiFormatError),
    (b"MGIMG 1\nimage.rows = 1\npatient.ssn = 2", MgiFormatError),  # never read
    (b"MGIMG 1\n\n", MgiFormatError),
])
def test_the_first_bad_line_decides_the_error(data, exc):
    with pytest.raises(MgiFormatError) as raised:
        parse_mgi(data)
    assert type(raised.value) is exc
    with pytest.raises(exc):
        parse_mgi_reference(data)
