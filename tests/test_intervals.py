import math

import pytest
from hypothesis import given, strategies as st

from sheafdist import GradedInterval, Interval, Kind, ParseError, classify, parse_interval
from sheafdist.intervals import INF, fmt_number, parse_graded_interval, parse_number


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
