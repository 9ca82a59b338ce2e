import math
import re

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
    same_component,
)
from sheafdist.barcode import _LINES
from sheafdist.intervals import _DEGREE, _NUMBER, INF, parse_interval, point
from sheafdist.matching import split_clr

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


def test_a_degree_too_long_for_int_is_a_parse_error_in_every_reader():
    # the grammar admits any run of digits; every reader refuses more than
    # 4,299 of them, so that a degree one away still prints (``str`` refuses
    # more than 4,300 digits, sys.get_int_max_str_digits), and names it
    for deg in ("1" * 5000, "-" + "9" * 4300, "0" * 4299 + "1"):
        why = f"degree of {len(deg.lstrip('-'))} digits: a degree has at most 4299"
        with pytest.raises(ParseError) as exc:
            parse_barcode(f"0 [0,1)\n{deg} [0,1)\n")
        assert str(exc.value) == f"line 2: {why}"
        text = f"[0,1)@{deg}"
        with pytest.raises(ParseError) as exc:
            parse_graded_interval(text)
        assert str(exc.value) == f"bad degree in {text!r}: {why}"
        with pytest.raises(ParseError) as exc:
            parse_diagrams(f"0 0 1\n{deg} 0 1\n")
        assert str(exc.value) == f"line 2: {why}"
    # 4,299 digits still read, in every reader and with either sign
    for deg in ("1" * 4299, "-" + "9" * 4299):
        assert parse_barcode(f"{deg} [0,1)").bars[0].degree == int(deg)
        assert parse_graded_interval(f"[0,1)@{deg}").degree == int(deg)
        assert parse_diagrams(f"{deg} 0 1")[0].degree == int(deg)


def test_degree_grammar():
    for tok, degree in [("0", 0), ("-0", 0), ("007", 7), ("-12", -12)]:
        assert parse_barcode(f"{tok} [0,1)").bars[0].degree == degree
        assert parse_graded_interval(f"[0,1)@{tok}").degree == degree
        assert parse_diagrams(f"{tok} 0 1")[0].degree == degree


def _reference_parse(text: str) -> Barcode:
    """The field-by-field line reader ``parse_barcode`` had before it read
    a line in one match, with the readers' limit of 4,299 degree digits
    written out, kept as the reference for the one that does."""
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
            interval, digits = parse_interval(iv_tok), len(deg_tok.lstrip("-"))
            if digits > 4299:
                raise ValueError(f"degree of {digits} digits: a degree has at most 4299")
            bars.append(GradedInterval(interval, int(deg_tok)))
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
    return Barcode(tuple(bars))


_PADS = st.text(st.sampled_from(" \t\xa0\x0b\u3000"), max_size=3)


def _tokens(*pools: list[str]):
    """A token from one of ``pools``, each pool as likely as the next."""
    return st.sampled_from(pools).flatmap(st.sampled_from)


# the last pool: malformed degrees, and the longest the readers take and one digit past it
_DEGREES = _tokens(["0", "-1", "12", "007", "-0"], ["0"],
                   ["+1", "1_0", "\u0661", "x", "", "9" * 4299, "-" + "9" * 4300])
_END_POOLS = (
    ["0", "1", "-2", "0.5", ".5", "1.", "-1e-3", "1E2", "inf", "+inf", "-inf"],
    # a finite value must be below 2**1022, 4.4942328371557898e307
    ["4.49423283715578e307", "-4.4942328371557898e307", "5e307", "-5e307", "1e400", "-1e400"],
    ["1_0", "\u0661", "nan", "0x1", ""],
)
_ENDS = _tokens(_END_POOLS[0], *_END_POOLS)
# widths down to nothing: any positive width is a bar, whatever the equality tolerance
_NARROW = [0.0, 5e-324, 1e-12, 5e-10, 1e-9, 2e-9]


@st.composite
def _literals(draw) -> str:
    lb, rb = draw(st.sampled_from("[(")), draw(st.sampled_from("])"))
    if draw(st.booleans()):  # a narrow width, or none
        lo = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6]))
        a, b = repr(lo), repr(lo + draw(st.sampled_from(_NARROW)))
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


def _assert_reads_as_reference(text: str) -> None:
    """``parse_barcode`` gives the reference's barcode, float bits
    included, or raises a ParseError with the same message."""
    try:
        want = _reference_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_barcode(text)
        assert str(got.value) == str(exc)
    else:
        assert repr(parse_barcode(text)) == repr(want)


# every line boundary of ``str.splitlines``: the scan must cut lines where it does
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_gbc_lines(), st.sampled_from(_LINE_ENDS)), max_size=4),
       _gbc_lines())
def test_parse_barcode_matches_the_line_by_line_reader(lines, last):
    # ``last`` has no line end, and is no line at all when it is empty
    _assert_reads_as_reference("".join(line + end for line, end in lines) + last)


def test_parse_barcode_matches_the_line_by_line_reader_on_every_literal():
    # each pair of end tokens and flags on its own line, and every narrow
    # width: the checks a single line match must still make
    ends = [tok for pool in _END_POOLS for tok in pool] + [repr(w) for w in _NARROW]
    for lb in "[(":
        for rb in "])":
            for a in ends:
                for b in ends:
                    _assert_reads_as_reference(f"0 {lb}{a},{b}{rb}\n")
            for lo in (0.0, 1.0, -3.5, 1e6):
                for w in _NARROW:
                    _assert_reads_as_reference(f"\t-1 {lb}{lo!r},{lo + w!r}{rb} # c\r\n")


# the backtracking grammar the possessive one replaced, kept verbatim as the reference
_OLD_FINITE = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_OLD_INTERVAL = rf"([\[\(])({_OLD_FINITE}|[+-]?inf),({_OLD_FINITE}|[+-]?inf)([\]\)])"
_OLD_NUMBER = re.compile(_OLD_FINITE, re.ASCII).fullmatch
_OLD_LINE = re.compile(rf"[ \t]*(-?[0-9]+)[ \t]+{_OLD_INTERVAL}[ \t]*(?:#.*)?", re.ASCII).fullmatch
_GRAMMAR = ["0", "1", "9", "12", ".", "e", "E", "+", "-", "inf", "[", "(", "]", ")", ",", " ",
            "\t", "#"]
_NUMERIC = ["0", "7", "12", ".", ".", "e", "E", "+", "-", "inf"]
_WELL_FORMED = ["0", "-1.5", ".5e-3", "1.", "12E+2", "inf", "-inf", "+inf"]


def _grammar_string(rng, pool, most: int) -> str:
    return "".join(rng.choice(pool) for _ in range(rng.randrange(most + 1)))


def _near_number(rng) -> str:
    """A sign, mantissa and exponent, each well formed or just not, or any
    string over the numeric alphabet."""
    if rng.random() < 0.3:
        return _grammar_string(rng, _NUMERIC, 7)
    if rng.random() < 0.1:
        return rng.choice(["", "+", "-", "++"]) + rng.choice(["inf", "in", "infe", "inf0"])
    return (rng.choice(["", "+", "-", "-+"]) + rng.choice(["1", "12", "1.", "1.5", ".5", ".", ""])
            + rng.choice(["", "", "e1", "E-2", "e+12", "e", "e+", "e1.5", "ee1"]))


def _near_line(rng) -> str:
    """A string over the grammar's alphabet, most often shaped like a line
    of ``<pads><degree><pads><bracket><end>,<end><bracket><pads><comment>``
    with each part drawn loosely."""
    if rng.random() < 0.2:
        return _grammar_string(rng, _GRAMMAR, 16)
    pad = lambda: _grammar_string(rng, [" ", "\t"], 2)
    end = lambda: _near_number(rng) if rng.random() < 0.3 else rng.choice(_WELL_FORMED)
    deg = rng.choice(["0", "-3", "12", "007", "-", ""]) if rng.random() < 0.8 else _near_number(rng)
    parts = [pad(), deg, pad() or rng.choice(["", " ", " "]), rng.choice("[([]"), end(), ",", end(),
             rng.choice("]))]("), pad(), rng.choice(["", "", "#", "# 0 [1,2)", "1", ","])]
    if rng.random() < 0.1:
        k = rng.randrange(len(parts))
        parts[k] = _grammar_string(rng, _GRAMMAR, 3)
    return "".join(parts)


def test_possessive_grammar_reads_what_the_backtracking_one_reads(rng):
    matched = {"number": 0, "line": 0}
    for _ in range(40_000):
        tok = _near_number(rng)
        old, new = _OLD_NUMBER(tok), _NUMBER(tok)
        assert (old and old.group()) == (new and new.group()), tok
        matched["number"] += old is not None
        line = _near_line(rng)
        old = _OLD_LINE(line)
        # a line with no line end is one match of the scan: its fields, or five empty strings
        assert _LINES(line) == [old.groups() if old else ("",) * 5], line
        matched["line"] += old is not None
    # both grammars are exercised on either side of the boundary
    assert all(2_000 < n < 38_000 for n in matched.values()), matched


def test_lines_interval_refuses_name_their_literal():
    for literal in ("[2,1]", "[1,1)", "(0,0)", "[-inf,1]", "(inf,inf)"):
        with pytest.raises(ParseError) as err:
            parse_barcode(f"0 [0,1)\n0 {literal} # c\n")
        assert str(err.value).startswith(f"line 2: {literal!r}: ")


def test_narrow_open_bars_read_back():
    # an open bar of any positive width is a bar: the parser reads it as
    # Interval builds it, and what the library builds reads back exactly
    assert parse_barcode("0 (0,1e-12)\n").bars[0].interval == Interval.open(0.0, 1e-12)
    F, G = parse_barcode("0 [0,1)\n"), Barcode()
    _, m = distance_with_matching(F, G)
    built = [
        interpolate(F, G, m, 0.4999999999995),  # [0,1) shrinks to width 1e-12
        Barcode(from_persistence(PersistenceDiagram(0, ((0.0, 1e-12),)), "R")),
        convolve_barcode(parse_barcode("0 (0,1)\n"), 0.4999999999),  # width 2e-10
    ]
    for b in built:
        assert len(b) == 1 and b.bars[0].interval.hi - b.bars[0].interval.lo < 1e-9
        assert parse_barcode(format_barcode(b)) == b


def test_format_parse_round_trip(rng):
    for _ in range(200):
        b = random_barcode(rng)
        assert parse_barcode(format_barcode(b)) == b


# every barcode the library builds reads back exactly, with no tolerance: its
# ends are below 2**1022 (``Interval``) and printed exactly (``fmt_number``)
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
    assert parse_barcode(format_barcode(b)) == b


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
    groups, need = split_clr(parse_barcode(CIRCLE_F).bars, ())
    assert {slot: ([str(g) for g in ls], rs) for slot, (ls, rs) in groups.items()} == {
        ("central", -1): (["[-1,1]@0"], []), ("central", 0): (["(-1,1)@0"], [])}
    assert need == {(("central", -1), 4): 1, (("central", 0), 4): 1}


def test_split_clr_ray_and_empty():
    ray = parse_barcode("0 [0,inf)\n").bars
    assert split_clr((), ray) == ({("R", 0): ([], list(ray))}, {(("R", 0), 2): -1})
    assert split_clr((), ()) == ({}, {})


def test_split_clr_partitions(rng):
    for _ in range(200):
        F, G = random_barcode(rng, max_bars=10), random_barcode(rng, max_bars=10)
        groups, need = split_clr(F.bars, G.bars)
        for k, b in enumerate((F, G)):
            merged = [g for slot, part in groups.items() for g in part[k]
                      if point(g)[0] == slot]
            assert Barcode(tuple(merged)) == b
        undeletable = [(point(g)[:2], s) for b, s in ((F, 1), (G, -1)) for g in b if point(g)[1]]
        assert need == {key: sum(s for k, s in undeletable if k == key) for key, _ in undeletable}


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


def test_equal_sections_do_not_make_a_finite_distance():
    # both flavours of sections agree, yet no bar of F can be deleted or
    # matched at finite cost: equal sections are necessary, not sufficient
    F = parse_barcode("-1 (-2.375,-1)\n-1 [4.5,inf)\n")
    G = parse_barcode("-1 (-inf,inf)\n0 (-inf,-5.625]\n0 [0.625,1.375)\n1 [-3,-0.125)\n")
    assert global_sections(F) == global_sections(G)
    assert global_sections(F, compact_support=True) == global_sections(G, compact_support=True)
    assert distance_with_matching(F, G)[0] == INF
    assert not same_component(F, G)

