import math
import struct

import pytest
from hypothesis import given, strategies as st

from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    ParseError,
    format_barcode,
    parse_barcode,
    parse_interval,
)
from sheafdist.intervals import (
    _SLOTS_KEPT,
    INF,
    bar_at,
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


# all 9 boundary-shape combinations x finite/infinite endpoint placements,
# and the slot ``point`` puts each in at degree 0; the ids are the names
# these rows have always run under
CLASSIFY_CASES = [
    pytest.param(iv, slot, id=f"iv{k}-{name}")
    for k, (iv, slot, name) in enumerate([
        (Interval.closed(0, 1), ("central", -1), "Kind.C_CLOSED"),
        (Interval.point(0), ("central", -1), "Kind.C_CLOSED"),
        (Interval.open(0, 1), ("central", 0), "Kind.C_OPEN"),
        (Interval.right_open(0, 1), ("R", 0), "Kind.R"),
        (Interval.left_open(0, 1), ("L", 0), "Kind.L"),
        (Interval.right_open(0, INF), ("R", 0), "Kind.R"),    # [a, inf)
        (Interval.open(0, INF), ("L", 0), "Kind.L"),          # (a, inf)
        (Interval.open(-INF, 5), ("R", 0), "Kind.R"),         # (-inf, b)
        (Interval.left_open(-INF, 5), ("L", 0), "Kind.L"),    # (-inf, b]
        (Interval.line(), ("R", 0), "Kind.R"),
    ])
]


@pytest.mark.parametrize("iv,slot", CLASSIFY_CASES)
def test_classify(iv, slot):
    assert point(GradedInterval(iv, 0))[0] == slot


def test_classify_total(rng):
    # every interval lands in a central, R or L slot
    from conftest import random_interval

    slots = {("central", -1), ("central", 0), ("R", 0), ("L", 0)}
    for _ in range(500):
        assert point(GradedInterval(random_interval(rng), 0))[0] in slots


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


def _old_fmt_number(x: float) -> str:
    """The number rule ``fmt_number`` had, written out: the infinities by
    name, an integral value below 1e15 in magnitude as an integer, else
    ``repr``."""
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def test_fmt_number_keeps_the_written_out_rule(rng):
    assert fmt_number(-0.0) == "0"
    assert fmt_number(1e15) == "1000000000000000.0"
    assert fmt_number(999999999999999.0) == "999999999999999"
    assert fmt_number(math.nan) == "nan"  # never formatted; the old rule raised
    edges = [0.0, -0.0, 1e15, -1e15, 999999999999999.0, -999999999999999.0, 1e16,
             math.nextafter(1e15, 0), math.nextafter(1e15, INF), 0.5, 1e-5, 5e-324, -5e-324,
             JUST_UNDER, -JUST_UNDER, INF, -INF]
    draws = []
    while len(draws) < 20_000:
        kind = rng.randrange(3)
        if kind == 0:  # any finite float: random bits, every exponent
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if not math.isfinite(x):
                continue
        else:  # integral at magnitudes up to 2**70, or half a unit past
            k = rng.randrange(71)
            x = float(rng.randrange(-2**k, 2**k + 1)) + (0.5 if kind == 2 else 0.0)
        draws.append(x)
    assert sum(x == int(x) and abs(x) < 1e15 for x in draws) > 3_000
    for x in edges + draws:
        assert fmt_number(x) == _old_fmt_number(x), x


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_parse_format_inverse_on_numbers(a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return
    iv = Interval.closed(lo, hi)
    assert parse_interval(str(iv)) == iv


# ---------------------------------------------------------------------
# what a bar stores: its sort key and its point, both set when it is built
# ---------------------------------------------------------------------

BIG = 2.0**1021  # the largest magnitude of the tests' ends, half the range limit


def _bars_of_every_shape(rng):
    """Every shape (closed, open, half-open, single points, rays, the
    line) with dyadic and off-grid ends up to 2**1021, degrees -2..2."""
    ends = [0.0, 1.0, -2.5, 0.1, 1 / 3, -7e-12, 123456.789, 1e300, -1e300, 3.7e299, BIG, -BIG]
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


def test_key_and_point_stored_at_construction(rng):
    for g in _bars_of_every_shape(rng):
        iv = g.interval
        assert g.key == (g.degree, iv.lo, not iv.lo_closed, iv.hi, not iv.hi_closed)
        assert g.key is g.key
        p = point(g)
        assert point(g) is p  # a field read: no second computation
        fresh = GradedInterval(iv, g.degree)
        assert fresh == g and hash(fresh) == hash(g) and point(fresh) == p
        assert tuple(g) == (g.key, p)  # the two stored fields, and nothing else
        assert repr(g) == (
            f"GradedInterval(interval=Interval(lo={iv.lo!r}, hi={iv.hi!r}, "
            f"lo_closed={iv.lo_closed!r}, hi_closed={iv.hi_closed!r}), degree={g.degree!r})"
        )


def test_bar_is_not_a_plain_tuple(rng):
    # a bar is the tuple of its stored fields, but neither equal to nor
    # orderable against that tuple or any other
    for g in _bars_of_every_shape(rng)[:40]:
        plain = tuple(g)
        assert not g == plain and not plain == g and g != plain and plain != g
        assert g not in {plain} and plain not in {g}
        for a, b in ((g, plain), (plain, g), (g, g.key), (g, g)):
            for less in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
                with pytest.raises(TypeError):
                    less()
    g = GradedInterval(Interval.open(0, 1), 0)
    assert (g == 1) is False and g != "x" and g != [tuple(g)]


def test_slot_table_stays_bounded():
    # the bars of a slot share one slot tuple up to degree _SLOTS_KEPT;
    # past it each bar gets an equal tuple of its own and the table keeps
    # none, so reading thousands of degrees, huge ones too, leaves it bounded
    from sheafdist import distance_with_matching
    from sheafdist.intervals import _CENTRAL, _L, _R, _SLOTS_KEPT

    degrees = [*range(-10**6, 10**6, 997), -10**30, 10**30]
    text = "".join(f"{d} [0,1)\n{d} (0,1]\n{d} [0,1]\n{d} (0,2)\n" for d in degrees)
    F = parse_barcode(text)
    assert len(F.bars) == 4 * len(degrees) > 8000
    for table in (_CENTRAL, _R, _L):
        assert len(table) <= 2 * _SLOTS_KEPT + 1
        assert all(abs(m) <= _SLOTS_KEPT for m in table)
    a, b = GradedInterval(Interval.right_open(0, 1), 5), GradedInterval(Interval.right_open(2, 3), 5)
    assert point(a)[0] is point(b)[0]
    far = 10**30
    a, b = GradedInterval(Interval.right_open(0, 1), far), GradedInterval(Interval.right_open(2, 3), far)
    assert point(a)[0] == point(b)[0] == ("R", far)
    G = parse_barcode(text.replace("[0,1)", "[0,1.5)"))
    assert distance_with_matching(F, F)[0] == 0.0
    assert distance_with_matching(F, G)[0] == 0.5  # each [0,1) matches its own degree's [0,1.5)


def test_bar_at_inverts_point(rng):
    for g in _bars_of_every_shape(rng):
        assert bar_at(*point(g)) == g


# ---------------------------------------------------------------------
# the two constructors: GradedInterval(interval, degree) and bar_at
# ---------------------------------------------------------------------

JUST_UNDER = math.nextafter(2.0**1022, 0)  # the largest finite value the reader takes

# on and off the dyadic grid, up to 2**1021, and at or past every limit
COORDS = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, -7e-12, 5e-324, 1e300, -1e300, BIG, -BIG,
          JUST_UNDER, -JUST_UNDER, 2.0**1022, -2.0**1022, INF, -INF, math.nan]


def _interval_at(slot, cls, u, v):
    """The interval and degree ``bar_at`` reads a point as, by the rule
    of its docstring, written out apart from it."""
    side, m = slot
    if side == "central":
        return ((v, u, False, False), m) if u > v else ((u, v, True, True), m + 1)
    lo = -INF if cls & 1 else u
    hi = INF if cls & 2 else v
    return ((lo, hi, lo > -INF, False) if side == "R" else (lo, hi, False, hi < INF)), m


def _canonical(slot, cls, u, v):
    """The point ``point`` gives: an infinite end's coordinate is 0, and
    the line lies in R."""
    if slot[0] == "central":
        return slot, 4, u, v
    if cls == 3:
        slot = ("R", slot[1])
    return slot, cls, (0.0 if cls & 1 else u), (0.0 if cls & 2 else v)


def _hexed(fields: tuple) -> tuple:
    return tuple(x.hex() if isinstance(x, float) else x for x in fields)


@pytest.mark.parametrize("slot, classes", [
    (("central", -1), (4,)), (("central", 2), (4,)), (("R", 0), (0, 1, 2, 3)),
    (("L", 3), (0, 1, 2, 3)), (("R", -2), (0, 1, 2, 3)),
    (("central", 10**30), (4,)), (("L", -5000), (0, 1, 2, 3)),
], ids=lambda x: str(x).replace(" ", "").replace("'", ""))
def test_bar_at_agrees_with_the_interval_constructor(slot, classes):
    # every point, on and off the grid, in range or not: a point with a
    # finite end's coordinate at an infinity is refused, whatever Interval
    # says of its ends; any other gives the bar GradedInterval gives, or
    # Interval's own message, and reads back as itself (up to the
    # coordinates it ignores)
    admitted = 0
    for cls in classes:
        for u in COORDS:
            for v in COORDS:
                finite = (u, v) if slot[0] == "central" else (
                    () if cls & 1 else (u,)) + (() if cls & 2 else (v,))
                if any(abs(x) == INF for x in finite):
                    with pytest.raises(ValueError) as got:
                        bar_at(slot, cls, u, v)
                    assert str(got.value) == (
                        f"no bar of slot {slot!r} and class {cls} lies at ({u!r}, {v!r}): "
                        "a finite end's coordinate is infinite")
                    continue
                args, degree = _interval_at(slot, cls, u, v)
                try:
                    want = GradedInterval(Interval(*args), degree)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        bar_at(slot, cls, u, v)
                    assert str(got.value) == str(exc)
                    with pytest.raises(ValueError) as got:
                        GradedInterval(args, degree)  # the same rule on the interval side
                    assert str(got.value) == str(exc)
                    continue
                g = bar_at(slot, cls, u, v)
                assert g == want and g.key == want.key and point(g) == point(want)
                # bit for bit, the sign of zero included
                assert _hexed(g.key) == _hexed(want.key) and _hexed(point(g)) == _hexed(point(want))
                if abs(slot[1]) <= _SLOTS_KEPT:  # the slot's one tuple, whatever tuple is passed
                    assert point(g)[0] is point(want)[0]
                    assert point(bar_at(tuple([*slot]), cls, u, v))[0] is point(want)[0]
                assert str(g) == str(want) and repr(g) == repr(want)
                p = point(g)
                assert point(bar_at(*p)) == p and bar_at(*p) == g
                assert p == _canonical(slot, cls, u, v)
                admitted += 1
    assert admitted  # the table admits points in every slot


LONG = 10**4299  # the least degree magnitude of 4,300 digits, which no reader reads


def test_builders_refuse_a_degree_no_reader_reads():
    # GradedInterval and bar_at refuse a degree of 4,300 digits or more, in
    # the readers' words, so every bar they build prints as a line that
    # reads back; a degree of 4,299 digits does
    def refused(digits):
        return pytest.raises(ValueError, match=f"^degree of {digits} digits: a degree has at most 4299$")

    opened, closed = Interval.open(0.0, 1.0), Interval.closed(0.0, 1.0)
    for degree, digits in ((LONG, 4300), (-LONG, 4300), (10 * LONG, 4301), (-(10**9999), 10000)):
        with refused(digits):
            GradedInterval(opened, degree)
    bars = [GradedInterval(opened, LONG - 1), GradedInterval(closed, 1 - LONG)]
    # the open bar above the diagonal keeps the slot's degree, the closed bar
    # on or below it is one degree up
    assert bar_at(("central", LONG - 1), 4, 1.0, 0.0) == bars[0]
    assert bar_at(("central", -LONG), 4, 0.0, 1.0) == bars[1]
    for u, v in ((0.0, 1.0), (0.5, 0.5)):
        with refused(4300):
            bar_at(("central", LONG - 1), 4, u, v)
    with refused(4300):
        bar_at(("central", -LONG), 4, 1.0, 0.0)
    for side in "RL":
        for cls in range(4):
            for m in (LONG - 1, 1 - LONG):
                bars.append(bar_at((side, m), cls, 0.0, 1.0))
                assert bars[-1].degree == m
            for m in (LONG, -LONG):
                with refused(4300):
                    bar_at((side, m), cls, 0.0, 1.0)
    assert parse_barcode(format_barcode(Barcode(tuple(bars)))) == Barcode(tuple(bars))


def test_every_central_point_is_a_bar(rng):
    # above the diagonal an open bar of the slot's degree, on or below it
    # a closed bar one degree up; each reads back through point
    ends = [0.0, 1.0, -2.5, 0.1, 1 / 3, -7e-12, 1e300, -1e300, 5e-324]
    for m in range(-2, 3):
        for _ in range(60):
            u, v = (rng.choice(ends) if rng.random() < 0.5 else rng.uniform(-9, 9)
                    for _ in range(2))
            for u, v in ((u, v), (v, u), (u, u)):
                g = bar_at(("central", m), 4, u, v)
                assert g.degree == (m if u > v else m + 1)
                assert point(g) == (("central", m), 4, u, v)


# ---------------------------------------------------------------------
# literals: ``parse_number`` reads each end and names any error
# ---------------------------------------------------------------------

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
