import pytest

from conftest import random_barcode
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    ParseError,
    format_barcode,
    global_sections,
    parse_barcode,
    parse_diagrams,
    parse_graded_interval,
    split_clr,
)
from sheafdist.intervals import INF

CIRCLE_F = "0 [-1,1]\n0 (-1,1)\n"


def test_parse_basic():
    b = parse_barcode(CIRCLE_F)
    assert len(b) == 2
    assert b == Barcode(
        (
            GradedInterval(Interval.closed(-1, 1), 0),
            GradedInterval(Interval.open(-1, 1), 0),
        )
    )


def test_parse_empty_input():
    assert parse_barcode("") == Barcode()
    assert parse_barcode("# only a comment\n\n") == Barcode()


def test_parse_comments_and_multiplicity():
    b = parse_barcode("0 [0,1] # a bar\n0 [0,1]\n")
    assert len(b) == 2
    assert b.bars[0] == b.bars[1]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 [2,1]", "line 1"),
        ("0 [1,1)", "line 1"),
        ("0 [-inf,1]", "line 1"),
        ("zero [0,1]", "bad degree"),
        ("0 [0, 1]", "expected"),
        ("0", "expected"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_barcode(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("tok", ["1_0", "+1", "\u0661", "1\u0660", "1.0", "0x1", "--1"])
def test_degrees_are_ascii_integers_in_every_reader(tok):
    # int() reads the first four, as 10, 1, 1 and 10
    with pytest.raises(ParseError) as exc:
        parse_barcode(f"0 [0,1)\n{tok} [0,1)\n")
    assert str(exc.value) == f"line 2: bad degree {tok!r}"
    with pytest.raises(ParseError) as exc:
        parse_graded_interval(f"[0,1)@{tok}")
    assert str(exc.value) == f"bad degree in {'[0,1)@' + tok!r}"
    with pytest.raises(ParseError) as exc:
        parse_diagrams(f"0 0 1\n{tok} 0 1\n")
    assert str(exc.value) == f"line 2: bad degree {tok!r}"


def test_degree_grammar():
    for tok, degree in [("0", 0), ("-0", 0), ("007", 7), ("-12", -12)]:
        assert parse_barcode(f"{tok} [0,1)").bars[0].degree == degree
        assert parse_graded_interval(f"[0,1)@{tok}").degree == degree
        assert parse_diagrams(f"{tok} 0 1")[0].degree == degree


def test_parse_tolerance_rejects_sub_tol_open_bars():
    assert len(parse_barcode("0 (0,0.5)\n", tol=1e-9)) == 1
    with pytest.raises(ParseError):
        parse_barcode("0 (0,1e-12)\n", tol=1e-9)
    assert len(parse_barcode("0 (0,1e-12)\n", tol=1e-15)) == 1


def test_format_parse_round_trip(rng):
    for _ in range(200):
        b = random_barcode(rng)
        assert parse_barcode(format_barcode(b)) == b


def test_format_is_canonical():
    messy = "# c\n0 [3,inf)\n0 [-1,1]\n\n0 (-1,1)\n"
    b = parse_barcode(messy)
    assert parse_barcode(format_barcode(b)) == b
    assert format_barcode(parse_barcode(format_barcode(b))) == format_barcode(b)


def test_split_clr_circle():
    split = split_clr(parse_barcode(CIRCLE_F))
    assert set(split.central) == {-1, 0}
    assert [str(g) for g in split.central[-1]] == ["[-1,1]@0"]
    assert [str(g) for g in split.central[0]] == ["(-1,1)@0"]
    assert split.right == {} and split.left == {}


def test_split_clr_ray_and_empty():
    split = split_clr(parse_barcode("0 [0,inf)\n"))
    assert set(split.right) == {0} and not split.central and not split.left
    empty = split_clr(Barcode())
    assert not empty.central and not empty.right and not empty.left


def test_split_clr_partitions(rng):
    for _ in range(200):
        b = random_barcode(rng, max_bars=10)
        split = split_clr(b)
        merged = [g for part in (split.central, split.right, split.left) for v in part.values() for g in v]
        assert Barcode(tuple(merged)) == b


def test_global_sections_circle():
    b = parse_barcode(CIRCLE_F)
    assert global_sections(b) == {0: 1, 1: 1}
    assert global_sections(b, compact_support=True) == {0: 1, 1: 1}


def test_global_sections_half_open_vanish():
    b = parse_barcode("0 [0,1)\n")
    assert global_sections(b) == {}
    assert global_sections(b, compact_support=True) == {}


def test_global_sections_empty():
    assert global_sections(Barcode()) == {}


def test_global_sections_shapes():
    # one bar of each shape, all in degree 2
    cases = {
        "0 [0,1]": ({2: 1}, {2: 1}),
        "0 (0,1)": ({3: 1}, {3: 1}),
        "0 [0,inf)": ({2: 1}, {}),
        "0 (-inf,0]": ({2: 1}, {}),
        "0 (0,inf)": ({}, {3: 1}),
        "0 (-inf,inf)": ({2: 1}, {3: 1}),
        "0 (0,1]": ({}, {}),
    }
    for line, (ordinary, compact) in cases.items():
        degree_two = line.replace("0 ", "2 ", 1)
        b = parse_barcode(degree_two + "\n")
        assert global_sections(b) == ordinary, line
        assert global_sections(b, compact_support=True) == compact, line


def test_approx_eq():
    a = parse_barcode("0 [0,1]\n")
    b = parse_barcode("0 [1e-12,1.000000000001]\n")
    assert a.approx_eq(b)
    assert not a.approx_eq(parse_barcode("0 (0,1)\n"))
    assert not a.approx_eq(Barcode())
