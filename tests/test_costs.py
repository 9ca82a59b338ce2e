import math
from fractions import Fraction

from conftest import dyadic, random_graded
from oracles import bounded
from sheafdist import GradedInterval, Interval, convolve_interval, deletion_cost, pair_cost
from sheafdist.intervals import INF, point


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
    families = [
        lambda lo, w: Interval.closed(lo, lo + w),
        lambda lo, w: Interval.open(lo, lo + w),
        lambda lo, w: Interval.right_open(lo, lo + w),
        lambda lo, w: Interval.left_open(lo, lo + w),
    ]
    for _ in range(600):
        build = rng.choice(families)
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
        (alo, ahi, alc, ahc), (blo, bhi, blc, bhc) = a.interval, b.interval
        moved = (
            GradedInterval(Interval(alo + s, ahi + s, alc, ahc), a.degree),
            GradedInterval(Interval(blo + s, bhi + s, blc, bhc), b.degree),
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
                seen.add((deletion_cost(a) < INF, bounded(a.interval)))
    assert seen == {(True, True), (False, True), (False, False)}


# The CLR rule written out case by case, without ``intervals.point``:
# the brute-force and assignment oracles call ``pair_cost``, so they rest
# on this independent encoding.


def _rule_kind(g):
    # the slot of a bar: closed bars sit one degree down, with the open bars
    iv, m = g.interval, g.degree
    lo_inf, hi_inf = iv.lo == -INF, iv.hi == INF
    if lo_inf and hi_inf:
        return ("R", m)
    if lo_inf:
        return ("L" if iv.hi_closed else "R", m)
    if hi_inf:
        return ("R" if iv.lo_closed else "L", m)
    if iv.lo_closed and iv.hi_closed:
        return ("central", m - 1)
    if not iv.lo_closed and not iv.hi_closed:
        return ("central", m)
    return ("R" if iv.lo_closed else "L", m)


def _rule_gap(x, y):
    # equal infinities are free, an infinity never meets a finite value
    if x == y:
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return INF
    return abs(x - y)


def _rule_pair_cost(a, b):
    slot = _rule_kind(a)
    if slot != _rule_kind(b):
        return INF
    u, s = a.interval, b.interval
    if slot[0] == "central" and u.lo_closed != s.lo_closed:
        if u.lo_closed:
            u, s = s, u
        # (a,b)@m with [x,y]@m+1: max(|b-x|, |a-y|)
        return max(abs(u.hi - s.lo), abs(u.lo - s.hi))
    return max(_rule_gap(u.lo, s.lo), _rule_gap(u.hi, s.hi))


def _rule_deletion_cost(a):
    if _rule_kind(a)[0] != "central" and bounded(a.interval):
        return (a.interval.hi - a.interval.lo) / 2.0
    return INF


def _any_bar(rng, pool):
    """A bar of any shape: points, bounded bars of all four flag pairs,
    the four rays and the line; ends from ``pool`` (so ends repeat) or
    fresh off-grid values of magnitude up to 1e300."""

    def end():
        if rng.random() < 0.6:
            return rng.choice(pool)
        return rng.uniform(-1, 1) * 10.0 ** rng.uniform(-5, 300)

    lo, hi = sorted((end(), end()))
    shape = rng.randrange(10)
    if shape == 0 or lo == hi:
        iv = Interval.point(lo)
    elif shape < 5:
        iv = Interval(lo, hi, shape in (1, 2), shape in (1, 3))
    elif shape == 5:
        iv = Interval.right_open(lo, INF)
    elif shape == 6:
        iv = Interval.open(lo, INF)
    elif shape == 7:
        iv = Interval.open(-INF, hi)
    elif shape == 8:
        iv = Interval.left_open(-INF, hi)
    else:
        iv = Interval.line()
    return GradedInterval(iv, rng.randrange(-1, 3))


def test_costs_and_point_match_the_written_out_rule(rng):
    finite = 0
    for _ in range(300):
        pool = [dyadic(rng)] + [rng.uniform(-1, 1) * 10.0 ** rng.uniform(-5, 300) for _ in range(3)]
        bars = [_any_bar(rng, pool) for _ in range(12)]
        for a in bars:
            assert point(a)[0] == _rule_kind(a), a
            assert deletion_cost(a).hex() == _rule_deletion_cost(a).hex(), a
            for b in bars:
                want = _rule_pair_cost(a, b)
                assert pair_cost(a, b).hex() == want.hex(), (a, b)
                finite += want < INF
    assert finite > 5000
