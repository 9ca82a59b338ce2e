import math
from fractions import Fraction

import pytest

from conftest import dyadic, perturbed_barcode, random_barcode, random_graded
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    convolve_barcode,
    convolve_interval,
    distance_with_matching,
    global_sections,
    parse_barcode,
    parse_graded_interval,
    stalk_type,
)
from sheafdist.intervals import INF, point


def G(iv, degree=0):
    return GradedInterval(iv, degree)


def test_positive_eps_rules():
    assert convolve_interval(G(Interval.open(0, 10)), 2) == G(Interval.open(2, 8))
    assert convolve_interval(G(Interval.closed(0, 1)), 1) == G(Interval.closed(-1, 2))
    assert convolve_interval(G(Interval.right_open(0, 1)), 1) == G(Interval.right_open(-1, 0))
    assert convolve_interval(G(Interval.left_open(0, 1)), 1) == G(Interval.left_open(1, 2))
    assert convolve_interval(G(Interval.line()), 5) == G(Interval.line())


def test_collapse_is_centred():
    # the collapsed bar sits around the centre of the open bar, one degree up
    assert convolve_interval(G(Interval.open(0, 2)), 3) == G(Interval.closed(-1, 3), 1)
    assert convolve_interval(G(Interval.open(4, 10), 2), 3) == G(Interval.point(7), 3)


def test_collapse_ends_are_correctly_rounded():
    # centre -/+ radius rounded each end twice: [-0.049999999999999975,0.14999999999999997]@1
    got = convolve_interval(parse_graded_interval("(-0.1,0.2)@0"), 0.25)
    assert got == parse_graded_interval("[-0.04999999999999999,0.15]@1")
    # 1000 + eps and 1001 - eps round onto one value: once an empty open bar, a ValueError
    got = convolve_interval(parse_graded_interval("(1000,1001)@0"), math.nextafter(0.5, 0))
    assert got == G(Interval.point(1000.5), 1)


def test_collapse_exactly_at_threshold():
    got = convolve_interval(G(Interval.open(0, 2)), 1)
    assert got == G(Interval.point(1), 1)


def test_negative_eps_rules():
    assert convolve_interval(G(Interval.closed(0, 4)), -1) == G(Interval.closed(1, 3))
    assert convolve_interval(G(Interval.closed(0, 4)), -2) == G(Interval.point(2))
    assert convolve_interval(G(Interval.closed(0, 4)), -3) == G(Interval.open(1, 3), -1)
    assert convolve_interval(G(Interval.open(0, 2)), -1) == G(Interval.open(-1, 3))
    assert convolve_interval(G(Interval.right_open(0, 1)), -1) == G(Interval.right_open(1, 2))
    assert convolve_interval(G(Interval.left_open(0, 1)), -1) == G(Interval.left_open(-1, 0))


def test_rays():
    assert convolve_interval(G(Interval.right_open(0, INF)), 1) == G(Interval.right_open(-1, INF))
    assert convolve_interval(G(Interval.open(0, INF)), 1) == G(Interval.open(1, INF))
    assert convolve_interval(G(Interval.open(-INF, 0)), 1) == G(Interval.open(-INF, -1))
    assert convolve_interval(G(Interval.left_open(-INF, 0)), 1) == G(Interval.left_open(-INF, 1))


@pytest.mark.parametrize(
    "literal, eps",
    [
        ("(-4e307,4e307)@0", -1.7e308),  # once the line (-inf,inf)@0
        ("[0,1)@0", -1.7e308),  # once "empty interval: equal endpoints ..."
        ("[0,1]@0", 4.5e307),  # ends just past 2**1022, still finite
        ("(0,inf)@1", -4.5e307),
        ("(-inf,0]@1", 4.5e307),
        ("(0,1)@0", INF),  # collapses onto a closed bar of radius inf
    ],
)
def test_out_of_range_results_are_errors(literal, eps):
    g = parse_graded_interval(literal)
    with pytest.raises(ValueError) as exc:
        convolve_interval(g, eps)
    assert str(exc.value) == (
        f"convolving {g} by eps={eps!r} moves an endpoint to 2**1022 or beyond"
    )


@pytest.mark.parametrize(
    "literal, eps, cause",
    [
        # 1 - 1e16 rounds onto -1e16: a half-open bar of no width
        ("[0,1)@0", 1e16, "empty interval: equal endpoints need both flags closed"),
        ("(0,1]@2", -1e16, "empty interval: equal endpoints need both flags closed"),
        ("[0,1)@0", math.nan, "NaN endpoint"),
        ("(0,1)@0", math.nan, "NaN endpoint"),
    ],
)
def test_bars_that_rounding_empties_are_errors_naming_bar_and_eps(literal, eps, cause):
    g = parse_graded_interval(literal)
    with pytest.raises(ValueError) as exc:
        convolve_interval(g, eps)
    assert str(exc.value) == f"convolving {g} by eps={eps!r}: {cause}"


def test_a_result_of_a_degree_no_reader_reads_is_an_error():
    # (0,1)@(10**4299-1) collapses one degree up, [0,1]@(1-10**4299)
    # over-shrinks one down: each to a degree of 4,300 digits
    big = 10**4299
    for g, eps in ((G(Interval.open(0.0, 1.0), big - 1), 1.0),
                   (G(Interval.closed(0.0, 1.0), 1 - big), -1.0)):
        with pytest.raises(ValueError) as exc:
            convolve_interval(g, eps)
        assert str(exc.value) == (f"convolving {g} by eps={eps!r}: degree of 4300 digits: "
                                  "a degree has at most 4299")
        assert convolve_interval(g, eps / 4).degree == g.degree  # no collapse: the same degree


def test_infinite_ends_stay_in_range():
    big = 4.4e307  # just under 2**1022
    for literal, eps in [("(0,inf)@1", -big), ("(-inf,0]@1", big), ("(-inf,inf)@0", 1e308),
                         ("[0,inf)@0", -big), ("(-inf,0)@0", big)]:
        g = parse_graded_interval(literal)
        h = convolve_interval(g, eps)
        assert (h.interval.lo == -INF) == (g.interval.lo == -INF)
        assert (h.interval.hi == INF) == (g.interval.hi == INF)


def test_barcode_eps_zero_is_identity(rng):
    for _ in range(100):
        b = random_barcode(rng)
        assert convolve_barcode(b, 0.0) == b


def test_barcode_circle_example():
    F = parse_barcode("0 [-1,1]\n0 (-1,1)\n")
    assert convolve_barcode(F, 1) == parse_barcode("0 [-2,2]\n1 [0,0]\n")
    assert convolve_barcode(Barcode(), 3.0) == Barcode()


def test_semigroup_law_exact(rng):
    for _ in range(1500):
        g = random_graded(rng)
        e1, e2 = abs(dyadic(rng)), abs(dyadic(rng))
        iv = g.interval
        if (
            rng.random() < 0.3
            and iv.bounded
            and not iv.lo_closed
            and not iv.hi_closed
            and iv.width / 2 >= e2
        ):
            e1 = iv.width / 2 - e2  # lands exactly on the collapse threshold
        one_step = convolve_interval(g, e1 + e2)
        two_step = convolve_interval(convolve_interval(g, e1), e2)
        assert one_step == two_step, (g, e1, e2)


def test_smoothing_both_sides_alike_keeps_the_distance(rng):
    # convolving by a translates every point of a slot and class by one
    # vector, and each cost is an L-infinity distance within a slot and
    # class or a point's distance to the diagonal; on the dyadic grid every
    # sum is exact, so d(F*a, G*a) == d(F, G) and the witness costs agree
    # bit for bit: rays and the line, open bars that collapse (a past their
    # half-width) and closed bars that over-shrink (-a past theirs)
    moved = {"collapse": 0, "over-shrink": 0}
    for _ in range(1500):
        F = random_barcode(rng, 8)
        G = perturbed_barcode(rng, F) if rng.random() < 0.7 else random_barcode(rng, 8)
        a = dyadic(rng, -3, 3)
        Fa, Ga = convolve_barcode(F, a), convolve_barcode(G, a)
        d, m = distance_with_matching(F, G)
        da, ma = distance_with_matching(Fa, Ga)
        assert da.hex() == d.hex(), (F, G, a)
        assert sorted(c.hex() for _, _, c in ma.pairs) == sorted(c.hex() for _, _, c in m.pairs)
        for g in F.bars + G.bars:
            if convolve_interval(g, a).degree != g.degree:
                moved["collapse" if a > 0 else "over-shrink"] += 1
    assert all(n > 100 for n in moved.values()), moved


def test_inverse_law(rng):
    # a closed bar over-shrunk to an open bar one degree down comes back too
    for _ in range(2000):
        g = random_graded(rng)
        delta = abs(dyadic(rng, 0, 2))
        assert convolve_interval(convolve_interval(g, -delta), delta) == g, (g, delta)


# keyed on the slot's side, and for a central bar on its being closed or open
_MOVES = {"closed": (-1, 1), "open": (1, -1), "R": (-1, -1), "L": (1, 1)}


def test_ends_are_correctly_rounded(rng):
    # each finite end is the exact end moved by eps, rounded once: closed
    # bars grow, open bars shrink, R bars move left and L bars right;
    # ends off the grid up to 2**1021, eps around the collapse thresholds
    shapes = [Interval.closed, Interval.open, Interval.right_open, Interval.left_open,
              lambda a, b: Interval.right_open(a, INF), lambda a, b: Interval.open(-INF, b),
              lambda a, b: Interval.left_open(-INF, b), lambda a, b: Interval.open(a, INF)]
    moved = 0
    for _ in range(10_000):
        scale = 2.0 ** rng.randrange(-40, 1022)
        a = rng.uniform(-1, 1) * scale
        b = a + rng.uniform(0, 1) * scale * 2.0 ** -rng.randrange(0, 60)
        if not a < b < 2.0**1022:
            continue
        g = G(rng.choice(shapes)(a, b), rng.randrange(-1, 2))
        r = (b - a) / 2
        eps = rng.choice((r, -r, rng.uniform(-2, 2) * r, rng.uniform(-1, 1) * scale))
        eps *= 1 + rng.choice((0.0, 2.0**-52, -(2.0**-53), 2.0**-40))
        kind = point(g)[0][0]
        if kind == "central":
            kind = "closed" if g.interval.lo_closed else "open"
        lo_move, hi_move = _MOVES[kind]
        ends = [  # the lower end's image first
            float(Fraction(end) + s * Fraction(eps))
            for end, s in ((g.interval.lo, lo_move), (g.interval.hi, hi_move))
            if abs(end) < INF
        ]
        want = sorted(ends)
        try:
            out = convolve_interval(g, eps)
        except ValueError:  # out of range, or a half-open bar rounded to nothing
            rounded_away = kind in ("R", "L") and len(want) == 2 and want[0] == want[1]
            assert rounded_away or max(map(abs, want)) >= 2.0**1022, (g, eps)
            continue
        assert sorted(x for x in out.interval[:2] if abs(x) < INF) == want, (g, eps)
        # an open bar collapses where its rounded ends meet, a closed one
        # is over-shrunk where they cross
        step = {"open": ends[0] >= ends[-1], "closed": -(ends[0] > ends[-1])}
        assert out.degree == g.degree + step.get(kind, 0), (g, eps)
        moved += out.degree != g.degree
    assert moved > 500  # collapses and over-shrinks


def test_stalk_oracle_agrees(rng):
    for _ in range(2000):
        g = random_graded(rng)
        eps = dyadic(rng, -3, 3)
        out = convolve_interval(g, eps)
        lo = out.interval.lo if out.interval.lo > -INF else -8.0
        hi = out.interval.hi if out.interval.hi < INF else 8.0
        for _ in range(8):
            x = dyadic(rng, lo - 1, hi + 1, 16) if rng.random() < 0.5 else rng.uniform(lo - 1, hi + 1)
            expected = {out.degree: 1} if out.interval.contains(x) else {}
            assert stalk_type(g, eps, x) == expected, (g, eps, x, out)


def test_stalk_spec_examples():
    assert stalk_type(G(Interval.open(0, 2)), 3, 1) == {1: 1}
    assert stalk_type(G(Interval.closed(0, 1)), 1, 2) == {0: 1}
    assert stalk_type(G(Interval.right_open(0, 1)), 1, -0.5) == {0: 1}
    assert stalk_type(G(Interval.closed(0, 1)), 1, 5) == {}


def test_global_sections_preserved(rng):
    for _ in range(300):
        b = random_barcode(rng)
        eps = abs(dyadic(rng, 0, 3))
        smoothed = convolve_barcode(b, eps)
        assert global_sections(smoothed) == global_sections(b)
        assert global_sections(smoothed, compact_support=True) == global_sections(
            b, compact_support=True
        )
