import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import perturbed_barcode, random_barcode
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    ParseError,
    PersistenceDiagram,
    convolve_barcode,
    distance_with_matching,
    format_barcode,
    from_persistence,
    global_sections,
    interpolate,
    parse_barcode,
    parse_diagrams,
    parse_graded_interval,
    split_clr,
)
from sheafdist.barcode import parse_bar
from sheafdist.intervals import _DEGREE, DEFAULT_TOL, INF

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


def _reference_parse(text: str, tol: float = DEFAULT_TOL) -> Barcode:
    """The field-by-field line reader ``parse_barcode`` had before it read
    a line in one match, kept as the reference for the one that does."""
    bars = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {ln}: expected '<degree> <interval>', got {line!r}")
        deg_tok, iv_tok = fields
        if _DEGREE(deg_tok) is None:
            raise ParseError(f"line {ln}: bad degree {deg_tok!r}")
        try:
            bars.append(parse_bar(int(deg_tok), iv_tok, tol))
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
    return Barcode(tuple(bars))


_PADS = st.text(st.sampled_from(" \t\xa0\x0b\u3000"), max_size=3)


def _tokens(*pools: list[str]):
    """A token from one of ``pools``, each pool as likely as the next."""
    return st.sampled_from(pools).flatmap(st.sampled_from)


_DEGREES = _tokens(["0", "-1", "12", "007", "-0"], ["0"], ["+1", "1_0", "\u0661", "x", ""])
_END_POOLS = (
    ["0", "1", "-2", "0.5", ".5", "1.", "-1e-3", "1E2", "inf", "+inf", "-inf"],
    # a finite value must be below 2**1022, 4.4942328371557898e307
    ["4.49423283715578e307", "-4.4942328371557898e307", "5e307", "-5e307", "1e400", "-1e400"],
    ["1_0", "\u0661", "nan", "0x1", ""],
)
_ENDS = _tokens(_END_POOLS[0], *_END_POOLS)
_NEAR_TOL = [0.0, 1e-9, math.nextafter(1e-9, INF), math.nextafter(1e-9, 0.0), 5e-10, 2e-9]


@st.composite
def _literals(draw) -> str:
    lb, rb = draw(st.sampled_from("[(")), draw(st.sampled_from("])"))
    if draw(st.booleans()):  # a width just above, at or below tol
        lo = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6]))
        a, b = repr(lo), repr(lo + draw(st.sampled_from(_NEAR_TOL)))
    else:
        a, b = draw(_ENDS), draw(_ENDS)
    return f"{lb}{a},{b}{rb}"


@st.composite
def _gbc_lines(draw) -> str:
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(_PADS)
    if kind == 1:
        return draw(_PADS) + "# " + draw(_literals())
    line = draw(_PADS) + draw(_DEGREES) + draw(_PADS.filter(bool) | st.just(" "))
    line += draw(_literals()) + draw(_PADS)
    if kind == 2:
        line += " " + draw(_literals())  # a third field
    return line + draw(st.sampled_from(["", "#", "# c", "#x#y", "#\u0661"]))


def _assert_reads_as_reference(text: str, tol: float) -> None:
    """``parse_barcode`` gives the reference's barcode, float bits
    included, or raises a ParseError with the same message."""
    try:
        want = _reference_parse(text, tol)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_barcode(text, tol)
        assert str(got.value) == str(exc)
    else:
        assert repr(parse_barcode(text, tol)) == repr(want)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_gbc_lines(), st.sampled_from(["\n", "\r\n", "\r"])), max_size=4),
    st.sampled_from([0.0, 1e-9]),
)
def test_parse_barcode_matches_the_line_by_line_reader(lines, tol):
    _assert_reads_as_reference("".join(line + end for line, end in lines), tol)


def test_parse_barcode_matches_the_line_by_line_reader_on_every_literal():
    # each pair of end tokens and flags on its own line, and every width
    # near tol: the checks a single line match must still make
    ends = [tok for pool in _END_POOLS for tok in pool] + [repr(w) for w in _NEAR_TOL]
    for tol in (0.0, 1e-9):
        for lb in "[(":
            for rb in "])":
                for a in ends:
                    for b in ends:
                        _assert_reads_as_reference(f"0 {lb}{a},{b}{rb}\n", tol)
                for lo in (0.0, 1.0, -3.5, 1e6):
                    for w in _NEAR_TOL:
                        _assert_reads_as_reference(f"\t-1 {lb}{lo!r},{lo + w!r}{rb} # c\r\n", tol)


def test_parse_tolerance_rejects_sub_tol_open_bars():
    assert len(parse_barcode("0 (0,0.5)\n", tol=1e-9)) == 1
    with pytest.raises(ParseError):
        parse_barcode("0 (0,1e-12)\n", tol=1e-9)
    assert len(parse_barcode("0 (0,1e-12)\n", tol=1e-15)) == 1


def test_format_parse_round_trip(rng):
    for _ in range(200):
        b = random_barcode(rng)
        assert parse_barcode(format_barcode(b)) == b


# every barcode the library builds reads back exactly at tol 0: its ends
# are below 2**1022 (``Interval``) and printed exactly (``fmt_number``)
EDGE = math.nextafter(2.0**1022, 0)
_VALUES = (
    st.floats(-EDGE, EDGE)  # off the grid, subnormals and -0.0 included
    | st.floats(allow_nan=False, allow_infinity=False)  # out of range too: no bar
    | st.integers(-96, 96).map(lambda k: k / 16)  # the grid of ``conftest``
    | st.sampled_from([EDGE, -EDGE, 1e15, 1e16 + 2, 0.1, 1 / 3, 5e-324, 1e-300])
)
_IN_RANGE = _VALUES.filter(lambda x: abs(x) <= EDGE)
_SHAPES = [
    lambda a, b: (a, b, True, True), lambda a, b: (a, b, False, False),
    lambda a, b: (a, b, True, False), lambda a, b: (a, b, False, True),
    lambda a, b: (a, INF, True, False), lambda a, b: (a, INF, False, False),
    lambda a, b: (-INF, b, False, False), lambda a, b: (-INF, b, False, True),
    lambda a, b: (-INF, INF, False, False), lambda a, b: (a, a, True, True),
]


@st.composite
def _any_bar(draw) -> GradedInterval:
    a, b = sorted((draw(_VALUES), draw(_VALUES)))
    try:  # any bar that ``Interval`` takes
        iv = Interval(*draw(st.sampled_from(_SHAPES))(a, b))
    except ValueError:
        assume(False)
    return GradedInterval(iv, draw(st.integers(-3, 3)))


def _assert_reads_back(b: Barcode) -> None:
    assert parse_barcode(format_barcode(b), tol=0) == b


@settings(max_examples=400, deadline=None)
@given(st.lists(_any_bar(), max_size=8))
def test_any_barcode_reads_back_at_tol_zero(bars):
    _assert_reads_back(Barcode(tuple(bars)))


def _scaled(b: Barcode, s: float) -> Barcode:
    return Barcode(tuple(GradedInterval(Interval(g.interval.lo * s, g.interval.hi * s,
                                                 g.interval.lo_closed, g.interval.hi_closed),
                                        g.degree) for g in b))


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([1.0, 2.0**-40, 1 / 3, 0.1, math.pi, 1e-7, 1e290, EDGE / 16]),
    st.floats(-3, 3),
    st.lists(st.tuples(_IN_RANGE | st.just(-INF), _IN_RANGE | st.just(INF)), max_size=6),
)
def test_library_outputs_read_back_at_tol_zero(rng, scale, eps, pairs):
    # grid barcodes at a finite distance, scaled off the grid or up to the
    # edge of the range (grid ends are at most 12 in magnitude), both ways round
    F = random_barcode(rng, max_bars=8)
    F, G = _scaled(F, scale), _scaled(perturbed_barcode(rng, F), scale)
    for A, B in ((F, G), (G, F)):
        d, m = distance_with_matching(A, B)
        for k in range(9):
            _assert_reads_back(interpolate(A, B, m, d * k / 8))
        _assert_reads_back(interpolate(A, B, m, rng.uniform(0, d)))
    try:
        smoothed = convolve_barcode(F, eps * scale)
    except ValueError as exc:  # a result end at 2**1022 or beyond
        assert "2**1022 or beyond" in str(exc)
    else:
        _assert_reads_back(smoothed)
    pairs = [(birth, death) for birth, death in pairs if birth < death] + [(0.0, INF)]
    for side in ("R", "L"):  # no L bar is the line
        kept = tuple(p for p in pairs if side == "R" or p != (-INF, INF))
        _assert_reads_back(Barcode(from_persistence(PersistenceDiagram(1, kept), side)))


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
