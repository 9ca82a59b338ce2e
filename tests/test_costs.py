import math
from fractions import Fraction

from conftest import dyadic, random_graded
from sheafdist import GradedInterval, Interval, classify, convolve_interval, deletion_cost, pair_cost
from sheafdist.intervals import INF, Kind


def G(iv, degree=0):
    return GradedInterval(iv, degree)


def test_pair_cost_examples():
    assert pair_cost(G(Interval.closed(-1, 1)), G(Interval.point(0))) == 1
    assert pair_cost(G(Interval.open(-1, 1)), G(Interval.point(0), 1)) == 1
    assert pair_cost(G(Interval.open(0, 4)), G(Interval.open(1, 6))) == 2
    assert pair_cost(G(Interval.open(0, 2)), G(Interval.point(5), 1)) == 5


def test_pair_cost_incompatible():
    assert pair_cost(G(Interval.open(0, 1)), G(Interval.right_open(0, 1))) == INF
    assert pair_cost(G(Interval.right_open(0, 1)), G(Interval.left_open(0, 1))) == INF
    assert pair_cost(G(Interval.closed(0, 1)), G(Interval.closed(0, 1), 1)) == INF
    # the open/closed cross-degree rule only runs with the closed bar one up
    assert pair_cost(G(Interval.closed(0, 1), 0), G(Interval.open(-1, 2), 1)) == INF
    assert pair_cost(G(Interval.open(-1, 2), 0), G(Interval.closed(0, 1), 1)) < INF


def test_pair_cost_infinite_endpoint_conventions():
    a = G(Interval.right_open(0, INF))
    b = G(Interval.right_open(3, INF))
    assert pair_cost(a, b) == 3
    assert pair_cost(a, G(Interval.right_open(0, 5))) == INF
    assert pair_cost(G(Interval.line()), G(Interval.line())) == 0
    assert pair_cost(G(Interval.line()), a) == INF
    assert pair_cost(G(Interval.open(-INF, 2)), G(Interval.open(-INF, 0))) == 2


def test_symmetry_and_reflexivity(rng):
    for _ in range(500):
        a, b = random_graded(rng), random_graded(rng)
        assert pair_cost(a, b) == pair_cost(b, a)
        assert pair_cost(a, a) == 0


def test_triangle_within_families(rng):
    families = {
        Kind.C_CLOSED: lambda lo, w: Interval.closed(lo, lo + w),
        Kind.C_OPEN: lambda lo, w: Interval.open(lo, lo + w),
        Kind.R: lambda lo, w: Interval.right_open(lo, lo + w),
        Kind.L: lambda lo, w: Interval.left_open(lo, lo + w),
    }
    for _ in range(600):
        build = families[rng.choice(list(families))]
        a, b, c = (
            G(build(dyadic(rng), dyadic(rng, 0.25, 4))) for _ in range(3)
        )
        assert pair_cost(a, c) <= pair_cost(a, b) + pair_cost(b, c) + 1e-9


def test_cross_degree_consistency(rng):
    # collapsing an open bar by eps >= half-width costs exactly eps
    for _ in range(300):
        lo = dyadic(rng)
        w = dyadic(rng, 0.25, 4)
        u = G(Interval.open(lo, lo + w), rng.randrange(-1, 2))
        eps = w / 2 + abs(dyadic(rng, 0, 2))
        s = convolve_interval(u, eps)
        assert s.degree == u.degree + 1
        assert pair_cost(u, s) == eps


def test_cross_degree_cost_is_correctly_rounded(rng):
    # off the dyadic grid the collapse pairing of (a,b)@0 with [x,y]@1
    # must cost max(b - x, y - a) rounded once, as a float of the exact value
    for _ in range(2000):
        a = rng.uniform(-20, 20)
        b = a + rng.uniform(0.01, 8)
        x = rng.uniform(-20, 20)
        y = x + rng.uniform(0, 8)
        u, s = G(Interval.open(a, b)), G(Interval.closed(x, y), 1)
        exact = max(Fraction(b) - Fraction(x), Fraction(y) - Fraction(a))
        assert pair_cost(u, s) == pair_cost(s, u) == float(exact), (u, s)


def test_translation_invariance(rng):
    for _ in range(300):
        a, b = random_graded(rng), random_graded(rng)
        s = dyadic(rng)
        moved = (
            GradedInterval(a.interval.translate(s), a.degree),
            GradedInterval(b.interval.translate(s), b.degree),
        )
        assert pair_cost(*moved) == pair_cost(a, b)


def test_deletion_costs():
    assert deletion_cost(G(Interval.right_open(3, 7))) == 2
    assert deletion_cost(G(Interval.left_open(3, 7))) == 2
    assert deletion_cost(G(Interval.open(0, 1))) == INF
    assert deletion_cost(G(Interval.closed(0, 1))) == INF
    assert deletion_cost(G(Interval.right_open(0, INF))) == INF
    assert deletion_cost(G(Interval.line())) == INF


def test_costs_never_negative_or_nan(rng):
    for _ in range(500):
        a, b = random_graded(rng), random_graded(rng)
        c = pair_cost(a, b)
        assert c >= 0 and not math.isnan(c)
        d = deletion_cost(a)
        assert d >= 0 and not math.isnan(d)


def test_finite_pairs_agree_on_deletability(rng):
    # the slot solver gives a diagonal copy only to deletable bars, which
    # is exact because no finite pair joins a deletable and an undeletable bar
    pool = [random_graded(rng) for _ in range(80)]
    seen = set()
    for a in pool:
        for b in pool:
            if pair_cost(a, b) < INF:
                assert (deletion_cost(a) < INF) == (deletion_cost(b) < INF), (a, b)
                seen.add((deletion_cost(a) < INF, a.interval.bounded))
    assert seen == {(True, True), (False, True), (False, False)}
