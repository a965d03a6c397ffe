import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridbox.ids import KINDS, GlobalId, IdMinter, id_kind, looks_like_global_id, valid_site_code

site_codes = st.from_regex(r"[A-Z][A-Z0-9]{1,7}", fullmatch=True)
hex32 = st.text("0123456789abcdef", min_size=32, max_size=32)
kinds = st.sampled_from(KINDS)


@given(site_codes, kinds, hex32)
def test_render_parse_roundtrip(site, kind, local):
    gid = GlobalId(site, kind, local)
    assert GlobalId.parse(str(gid)) == gid
    assert looks_like_global_id(str(gid))
    assert id_kind(str(gid)) == kind


@pytest.mark.parametrize("bad", [
    "cam:patient:" + "0" * 32,      # lowercase site
    "C:patient:" + "0" * 32,        # site too short
    "CAM:nonsense:" + "0" * 32,     # unknown kind
    "CAM:patient:xyz",              # local not hex32
    "CAM:patient",                  # missing part
    "CAM:patient:" + "0" * 32 + ":extra",
    "",
])
def test_rejects_malformed(bad):
    assert not looks_like_global_id(bad)
    assert id_kind(bad) is None


def test_parse_refuses_what_is_not_text():
    with pytest.raises(ValueError):
        GlobalId.parse(7)
    assert not looks_like_global_id(7)


@pytest.mark.parametrize("text", ["CAM:image:" + "0" * 32 + "\n",
                                  "CAM\n:image:" + "0" * 32, "CAM:image\n:" + "0" * 32])
def test_parse_refuses_a_trailing_newline(text):
    """``re.match`` with ``$`` also matched before a final newline."""
    with pytest.raises(ValueError):
        GlobalId.parse(text)
    assert not looks_like_global_id(text)


def test_valid_site_code():
    assert valid_site_code("CAM")
    assert valid_site_code("UDI2")
    assert valid_site_code("A2345678")
    assert not valid_site_code("A23456789")  # 9 chars
    assert not valid_site_code("2AM")        # leading digit
    assert not valid_site_code("cam")


@given(kinds, st.text(min_size=0, max_size=40))
def test_keyed_minting_is_deterministic_per_secret(kind, key):
    a = IdMinter("CAM", b"\x01" * 16)
    b = IdMinter("CAM", b"\x01" * 16)
    c = IdMinter("CAM", b"\x02" * 16)
    assert a.mint_keyed(kind, key) == b.mint_keyed(kind, key)
    assert a.mint_keyed(kind, key) != c.mint_keyed(kind, key)


@given(st.text(min_size=1, max_size=30))
def test_pseudonym_shape_and_stability(original):
    minter = IdMinter("CAM", b"\x03" * 16)
    p = minter.pseudonym(original)
    assert p.startswith("ANON-") and len(p) == 17
    assert p == minter.pseudonym(original)
    int(p[5:], 16)  # the suffix is hex


def test_ordering_matches_rendered_form():
    gids = [GlobalId("UDI", "image", "f" * 32), GlobalId("CAM", "image", "0" * 32),
            GlobalId("CAM", "image", "a" * 32)]
    assert sorted(str(g) for g in gids) == [str(g) for g in sorted(gids)]
