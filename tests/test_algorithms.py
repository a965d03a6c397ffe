import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import make_image
from gridbox.algorithms import (
    DENSITY_SOURCE,
    VERBS,
    builtin_density,
    count_components,
    execute_on_image,
    parse_algorithm,
    valid_name,
)
from gridbox.errors import AlgorithmSyntaxError, DuplicateEmit, EmptyProgram

pixel_arrays = arrays(np.uint16, st.tuples(st.integers(1, 16), st.integers(1, 16)))
thresholds = st.integers(0, 0xFFFF)


@st.composite
def programs(draw):
    lines = []
    emits = iter(["a", "b", "c", "d", "e", "f"])
    n = draw(st.integers(1, 6))
    emitted = False
    for i in range(n):
        verb = draw(st.sampled_from(
            ["threshold", "fraction_above", "mean", "max", "count_components"]))
        if verb == "threshold":
            lines.append(f"threshold {draw(thresholds)}")
        elif verb in ("fraction_above", "count_components"):
            lines.append(f"{verb} {draw(thresholds)} emit {next(emits)}")
            emitted = True
        else:
            lines.append(f"{verb} emit {next(emits)}")
            emitted = True
    if not emitted:
        lines.append("mean emit zz")
    return parse_algorithm("\n".join(lines))


# --- parsing ---------------------------------------------------------------------

def test_parses_the_builtin():
    prog = builtin_density()
    assert prog.name == "smf-density" and prog.version == 1
    assert prog.source_text == DENSITY_SOURCE
    assert prog.emits() == ("density",)


def test_statement_shapes():
    prog = parse_algorithm(
        "threshold 8000\nfraction_above 1 emit frac\nmean emit m\n"
        "max emit top\ncount_components 9000 emit blobs")
    verbs = [s.verb for s in prog.statements]
    assert verbs == ["threshold", "fraction_above", "mean", "max",
                     "count_components"]
    assert prog.emits() == ("frac", "m", "top", "blobs")


def test_blank_lines_ignored():
    prog = parse_algorithm("\n\nmean emit m\n\n")
    assert len(prog.statements) == 1


@pytest.mark.parametrize("source,exc", [
    ("", EmptyProgram),
    ("threshold 5", EmptyProgram),               # runs but emits nothing
    ("frobnicate 1 emit x", AlgorithmSyntaxError),
    ("threshold", AlgorithmSyntaxError),
    ("threshold abc", AlgorithmSyntaxError),
    ("threshold 70000", AlgorithmSyntaxError),
    ("threshold -1", AlgorithmSyntaxError),
    ("fraction_above 5 emit", AlgorithmSyntaxError),
    ("fraction_above 5 Emit x", AlgorithmSyntaxError),
    ("mean emit Bad", AlgorithmSyntaxError),
    ("mean emit m\nmax emit m", DuplicateEmit),
    ("mean emit m extra", AlgorithmSyntaxError),
])
def test_parse_errors(source, exc):
    with pytest.raises(exc):
        parse_algorithm(source)


def test_error_messages_carry_line_numbers():
    try:
        parse_algorithm("mean emit m\nbad verb here")
    except AlgorithmSyntaxError as e:
        assert "line 2" in str(e)


def test_valid_name():
    assert valid_name("smf_density2")
    assert not valid_name("SMF")
    assert not valid_name("2fast")
    assert not valid_name("")


def test_program_equality_ignores_name_and_version():
    a = parse_algorithm("mean emit m", name="x", version=1)
    b = parse_algorithm("mean  emit  m", name="y", version=9)
    assert a == b and hash(a) == hash(b)


# --- execution vs oracle ------------------------------------------------------------

@settings(max_examples=150)
@given(programs(), pixel_arrays)
def test_matches_pure_python_oracle(prog, pixels):
    img = make_image(pixels, rows=pixels.shape[0], cols=pixels.shape[1])
    got = execute_on_image(prog, img)
    want = oracles.run_program(prog.statements, pixels)
    assert set(got) == set(want)
    for name in want:
        assert repr(got[name]) == repr(want[name])


@given(pixel_arrays, thresholds)
def test_component_count_matches_bfs(pixels, t):
    mask = pixels >= t
    assert count_components(mask) == oracles.flood_count(mask.tolist())


def test_known_component_layouts():
    grid = np.zeros((5, 5), np.uint16)
    grid[0, 0] = grid[0, 1] = 9    # one horizontal domino
    grid[2, 2] = 9                 # lone pixel
    grid[4, 0] = grid[3, 1] = 9    # diagonal: NOT connected under 4-way
    assert count_components(grid >= 9) == 4


def test_fraction_above_extremes():
    zeros = make_image(np.zeros((4, 4), np.uint16), rows=4, cols=4)
    full = make_image(np.full((4, 4), 0xFFFF, np.uint16), rows=4, cols=4)
    prog = parse_algorithm("fraction_above 1 emit f")
    assert execute_on_image(prog, zeros) == {"f": 0.0}
    assert execute_on_image(prog, full) == {"f": 1.0}


def test_threshold_feeds_downstream_statements():
    pixels = np.array([[0, 1], [2, 3]], np.uint16)
    img = make_image(pixels, rows=2, cols=2)
    out = execute_on_image(
        parse_algorithm("threshold 2\nmax emit top\nmean emit m"), img)
    assert out == {"top": 65535.0, "m": 65535 * 2 / 4}


def test_execution_never_mutates_the_image():
    pixels = np.arange(16, dtype=np.uint16).reshape(4, 4)
    img = make_image(pixels.copy(), rows=4, cols=4)
    execute_on_image(parse_algorithm("threshold 3\nmean emit m"), img)
    assert np.array_equal(img.pixels, pixels)


# one program per verb; threshold's output feeds a statement that reads it
ONE_VERB = {
    "threshold": "threshold 5\nfraction_above 1 emit f\nmax emit m",
    "fraction_above": "fraction_above 5 emit f",
    "mean": "mean emit m",
    "max": "max emit m",
    "count_components": "count_components 5 emit c",
}


@pytest.mark.parametrize("verb", VERBS)
def test_every_verb_runs_on_read_only_pixels(verb):
    """Execution reads the pixels in place, so a verb that wrote to its
    buffer would raise here instead of changing the image."""
    pixels = np.array([[0, 9, 0, 7], [9, 9, 0, 0], [0, 0, 0, 6], [3, 0, 8, 8]],
                      np.uint16)
    img = make_image(pixels.copy(), rows=4, cols=4)
    img.pixels.flags.writeable = False
    prog = parse_algorithm(ONE_VERB[verb])
    assert prog.statements[0].verb == verb
    got = execute_on_image(prog, img)
    assert got == oracles.run_program(prog.statements, pixels)
    assert np.array_equal(img.pixels, pixels)


@given(programs(), pixel_arrays)
def test_determinism(prog, pixels):
    img = make_image(pixels, rows=pixels.shape[0], cols=pixels.shape[1])
    a = execute_on_image(prog, img)
    b = execute_on_image(prog, img)
    assert {k: repr(v) for k, v in a.items()} == {k: repr(v) for k, v in b.items()}
