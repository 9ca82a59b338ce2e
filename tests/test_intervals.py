import math

import pytest
from hypothesis import given, strategies as st

from sheafdist import (
    GradedInterval,
    Interval,
    Kind,
    ParseError,
    classify,
    parse_barcode,
    parse_interval,
)
from sheafdist.intervals import (
    INF,
    fmt_number,
    interval_parts,
    parse_graded_interval,
    parse_number,
    point,
)


def test_constructors_and_validation():
    assert Interval.closed(0, 1).lo_closed
    assert Interval.point(2.0).is_point
    assert not Interval.line().bounded
    with pytest.raises(ValueError):
        Interval(2, 1, True, True)
    with pytest.raises(ValueError):
        Interval(0, 0, True, False)  # degenerate needs both flags closed
    with pytest.raises(ValueError):
        Interval(-INF, 1, True, True)  # closed flag on an infinite endpoint
    with pytest.raises(ValueError):
        Interval(INF, INF, False, False)
    with pytest.raises(ValueError):
        Interval(math.nan, 1, False, False)


# all 9 boundary-shape combinations x finite/infinite endpoint placements
CLASSIFY_CASES = [
    (Interval.closed(0, 1), Kind.C_CLOSED),
    (Interval.point(0), Kind.C_CLOSED),
    (Interval.open(0, 1), Kind.C_OPEN),
    (Interval.right_open(0, 1), Kind.R),
    (Interval.left_open(0, 1), Kind.L),
    (Interval.right_open(0, INF), Kind.R),    # [a, inf)
    (Interval.open(0, INF), Kind.L),          # (a, inf)
    (Interval.open(-INF, 5), Kind.R),         # (-inf, b)
    (Interval.left_open(-INF, 5), Kind.L),    # (-inf, b]
    (Interval.line(), Kind.R),
]


@pytest.mark.parametrize("iv,kind", CLASSIFY_CASES)
def test_classify(iv, kind):
    assert classify(iv) is kind


def test_classify_total(rng):
    from conftest import random_interval

    for _ in range(500):
        assert classify(random_interval(rng)) in Kind


def test_contains_respects_flags():
    iv = Interval.right_open(0, 1)
    assert iv.contains(0) and not iv.contains(1)
    assert Interval.open(0, 1).contains(0.5)
    assert Interval.line().contains(-1e300)


def test_intersection():
    assert Interval.closed(0, 2).intersection(Interval.closed(2, 3)) == Interval.point(2)
    assert Interval.open(0, 2).intersection(Interval.closed(2, 3)) is None
    got = Interval.right_open(0, 5).intersection(Interval.open(-1, 3))
    assert got == Interval.right_open(0, 3)
    assert Interval.line().intersection(Interval.open(0, 1)) == Interval.open(0, 1)


def test_literals_round_trip():
    for text in ["[0,1]", "(-1,1)", "[3,inf)", "(-inf,2]", "(-inf,inf)", "[0.5,1.25)"]:
        assert str(parse_interval(text)) == text
    gi = parse_graded_interval("(0,2]@-1")
    assert gi == GradedInterval(Interval.left_open(0, 2), -1)
    assert str(gi) == "(0,2]@-1"
    assert parse_graded_interval("[0,1]").degree == 0


def test_literal_errors():
    for text in ["[0,1", "0,1]", "[a,b]", "[1,0]", "[-inf,0]", "(0,inf]", "[1,1)"]:
        with pytest.raises(ParseError):
            parse_interval(text)
    with pytest.raises(ParseError):
        parse_graded_interval("[0,1]@x")


def test_trailing_newline_is_an_error():
    # ``$`` also matches before a final newline; every reader matches the
    # whole token, as the degree rule always did
    for tok in ("1\n", "1e3\n", "-0.5\n", "inf\n"):
        with pytest.raises(ParseError) as exc:
            parse_number(tok)
        assert str(exc.value) == f"bad number {tok!r}"
    for literal in ("[0,1)\n", "(0,inf)\n", "[x,1]\n", "[0,1)\n\n"):
        with pytest.raises(ParseError) as exc:
            interval_parts(literal)
        assert str(exc.value) == f"bad interval literal {literal!r}"
    with pytest.raises(ParseError) as exc:
        parse_graded_interval("[0,1)@0\n")
    assert str(exc.value) == "bad degree in '[0,1)@0\\n'"


def test_number_formatting():
    assert fmt_number(1.0) == "1"
    assert fmt_number(-0.5) == "-0.5"
    assert fmt_number(INF) == "inf"
    assert fmt_number(-INF) == "-inf"
    assert parse_number("1e3") == 1000.0
    with pytest.raises(ParseError):
        parse_number("nan")
    assert parse_number("-4.4e307") == -4.4e307
    for tok in ("1e400", "-1e400", "1.5e308", "4.5e307"):
        with pytest.raises(ParseError):
            parse_number(tok)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_parse_format_inverse_on_numbers(a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return
    iv = Interval.closed(lo, hi)
    assert parse_interval(str(iv)) == iv


# ---------------------------------------------------------------------
# values cached on a bar: its sort key and its point
# ---------------------------------------------------------------------


def _bars_of_every_shape(rng):
    """Every shape (closed, open, half-open, single points, rays, the
    line) with dyadic and off-grid ends up to 1e300, degrees -2..2."""
    ends = [0.0, 1.0, -2.5, 0.1, 1 / 3, -7e-12, 123456.789, 1e300, -1e300, 3.7e299]
    out = []
    for degree in range(-2, 3):
        for _ in range(12):
            a, b = sorted(rng.sample(ends, 2) if rng.random() < 0.5 else
                          (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)))
            if a == b:
                b = a + 1.0
            shapes = [
                Interval.closed(a, b), Interval.open(a, b), Interval.right_open(a, b),
                Interval.left_open(a, b), Interval.point(a), Interval.right_open(a, INF),
                Interval.open(a, INF), Interval.open(-INF, b), Interval.left_open(-INF, b),
                Interval.line(),
            ]
            out += [GradedInterval(iv, degree) for iv in shapes]
    return out


def test_cached_key_and_point(rng):
    for g in _bars_of_every_shape(rng):
        assert g.key == (g.degree, *g.interval.key)
        fresh = GradedInterval(g.interval, g.degree)
        assert fresh == g and hash(fresh) == hash(g)  # g unread, fresh unread
        p = point(g)
        assert point(g) is p  # read once, then kept
        assert fresh == g and hash(fresh) == hash(g)  # only g has been read
        assert point(fresh) == p
        iv = g.interval
        assert repr(g) == (
            f"GradedInterval(interval=Interval(lo={iv.lo!r}, hi={iv.hi!r}, "
            f"lo_closed={iv.lo_closed!r}, hi_closed={iv.hi_closed!r}), degree={g.degree!r})"
        )


# ---------------------------------------------------------------------
# literals: ``parse_number`` reads each end and names any error
# ---------------------------------------------------------------------

JUST_UNDER = math.nextafter(2.0**1022, 0)  # the largest finite value the reader takes

VALID_TOKENS = [
    ("1", 1.0), ("+.5", 0.5), ("1.", 1.0), ("-2e-3", -0.002), ("inf", INF), ("+inf", INF),
    ("-inf", -INF), (repr(JUST_UNDER), JUST_UNDER), (repr(-JUST_UNDER), -JUST_UNDER),
]

RANGE = "out of range: a finite value must be below 2**1022"
INVALID_TOKENS = [
    ("nan", "bad number 'nan'"),
    ("infinity", "bad number 'infinity'"),
    ("1_0", "bad number '1_0'"),
    ("0x10", "bad number '0x10'"),
    ("1e", "bad number '1e'"),
    ("--1", "bad number '--1'"),
    ("\u0661", "bad number '\u0661'"),  # an Arabic-Indic digit one: float() reads it
    ("1e\u0661", "bad number '1e\u0661'"),
    ("1e400", f"number '1e400' {RANGE}"),
    (str(2**1022), f"number '{2**1022}' {RANGE}"),
]


@pytest.mark.parametrize("tok, x", VALID_TOKENS)
def test_valid_literal_tokens(tok, x):
    assert interval_parts(f"[{tok},{tok})") == (x, x, True, False)
    assert interval_parts(f"({tok},{tok}]") == (x, x, False, True)
    if x == INF:
        want = GradedInterval(Interval.open(0, INF), 1)
        line = f"1 (0,{tok})"
    elif x == -INF:
        want = GradedInterval(Interval.left_open(-INF, 0), 1)
        line = f"1 ({tok},0]"
    else:
        want = GradedInterval(Interval.point(x), 1)
        line = f"1 [{tok},{tok}]"
    assert parse_barcode(line).bars == (want,)


@pytest.mark.parametrize("tok, message", INVALID_TOKENS)
def test_invalid_literal_tokens_name_the_error(tok, message):
    for literal in (f"[{tok},1)", f"(0,{tok}]", f"[{tok},{tok}]"):
        with pytest.raises(ParseError) as exc:
            interval_parts(literal)
        assert str(exc.value) == message
        with pytest.raises(ParseError) as exc:
            parse_barcode(f"0 [0,1)\n2 {literal}\n")
        assert str(exc.value) == f"line 2: {message}"


@pytest.mark.parametrize("literal", ["[,1)", "(0,]", "[,]", "[1,2,3]", "[1;2]", "1,2"])
def test_malformed_literals_name_the_error(literal):
    with pytest.raises(ParseError) as exc:
        interval_parts(literal)
    assert str(exc.value) == f"bad interval literal {literal!r}"
    with pytest.raises(ParseError) as exc:
        parse_barcode(f"0 {literal}\n")
    assert str(exc.value) == f"line 1: bad interval literal {literal!r}"


@given(st.text("0123456789+-.eEinfa_x", max_size=7), st.text("0123456789+-.eEinf", max_size=7))
def test_one_match_reader_agrees_with_reading_each_end(a, b):
    # the one-match reader against parse_number on each end, which names errors
    literal = f"({a},{b}]"
    try:
        want = (parse_number(a), parse_number(b), False, True)
    except ParseError as exc:
        want = f"bad interval literal {literal!r}" if not (a and b) else str(exc)
    try:
        got = interval_parts(literal)
    except ParseError as exc:
        got = str(exc)
    assert got == want
