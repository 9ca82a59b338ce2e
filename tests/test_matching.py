import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dyadic, perturbed_barcode, random_barcode, random_interval
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    Matching,
    bruteforce_distance,
    convolve_barcode,
    convolve_interval,
    deletion_cost,
    distance_with_matching,
    format_barcode,
    interpolate,
    pair_cost,
    parse_barcode,
    part_bottleneck,
    same_component,
)
from sheafdist import matching
from sheafdist.intervals import INF, point
from sheafdist.matching import _cheapest_path, _max_matching, _rows

CIRCLE_F = "0 [-1,1]\n0 (-1,1)\n"
CIRCLE_G = "0 [0,0]\n1 [0,0]\n"


def test_circle_distance_and_matching():
    F, G = parse_barcode(CIRCLE_F), parse_barcode(CIRCLE_G)
    value, matching = distance_with_matching(F, G)
    assert value == 1.0
    assert matching.achieved == 1.0
    got = {(m, str(l), str(r), c) for m, l, r, c in matching.central_pairs}
    assert got == {
        (-1, "[-1,1]@0", "[0,0]@0", 1.0),
        (0, "(-1,1)@0", "[0,0]@1", 1.0),
    }
    assert not matching.halfopen_pairs and not matching.deletions


def test_identity_matching(rng):
    for _ in range(50):
        b = random_barcode(rng)
        value, matching = distance_with_matching(b, b)
        assert value == 0.0
        assert all(c == 0.0 for *_, c in matching.central_pairs)
        assert all(c == 0.0 for *_, c in matching.halfopen_pairs)
        assert not matching.deletions


def test_central_mismatch_is_infinite():
    value, matching = distance_with_matching(parse_barcode("0 (0,1)\n"), Barcode())
    assert value == INF
    assert matching == Matching.infeasible() == Matching((), INF)
    assert not matching.central_pairs


def test_views_place_entries_by_their_bars():
    # the slot, index and origin of each view's row come from the bars
    o, c = GradedInterval(Interval.open(0, 2), 0), GradedInterval(Interval.point(1), 1)
    r0 = GradedInterval(Interval.right_open(0, 1), 0)
    r1 = GradedInterval(Interval.right_open(0, 2), 0)
    l2 = GradedInterval(Interval.left_open(0, 1), 2)
    m = Matching(((None, r1, 1.0), (o, c, 1.0), (l2, None, 0.5), (r0, r1, 0.5)), 1.0)
    assert m.central_pairs == ((0, o, c, 1.0),)
    assert m.halfopen_pairs == (("R", 0, r0, r1, 0.5),)
    assert m.deletions == (("R", 0, "right", r1, 1.0), ("L", 2, "left", l2, 0.5))
    for view in ("central_pairs", "halfopen_pairs", "deletions"):
        with pytest.raises(AttributeError):
            setattr(m, view, ())


@pytest.mark.parametrize("view", ["central_pairs", "halfopen_pairs", "deletions"])
def test_views_refuse_an_entry_with_neither_bar(view):
    # no bar gives the entry a slot: a ValueError naming it, not an error
    # from reading the point of None
    r0 = GradedInterval(Interval.right_open(0, 1), 0)
    m = Matching(((r0, r0, 0.0), (None, None, 0.25)), 0.25)
    with pytest.raises(ValueError) as exc:
        getattr(m, view)
    assert str(exc.value) == "the matching lists (None, None, 0.25), an entry with neither bar"


def test_part_bottleneck_slots():
    central = part_bottleneck(
        [GradedInterval(Interval.open(-1, 1), 0)],
        [GradedInterval(Interval.point(0), 1)],
    )
    assert central == (
        1.0,
        ((GradedInterval(Interval.open(-1, 1), 0), GradedInterval(Interval.point(0), 1), 1.0),),
    )
    assert part_bottleneck([], []) == (0.0, ())
    value, pairs = part_bottleneck([GradedInterval(Interval.right_open(0, 1), 0)], [])
    assert value == 0.5
    assert pairs == ((GradedInterval(Interval.right_open(0, 1), 0), None, 0.5),)
    # equal totals, but the rays [0,inf) and (-inf,0) are in different
    # shape classes and cannot be deleted
    F = [GradedInterval(Interval.right_open(0, INF), 0), GradedInterval(Interval.right_open(1, 2), 0)]
    G = [GradedInterval(Interval.open(-INF, 0), 0), GradedInterval(Interval.right_open(1, 2), 0)]
    assert part_bottleneck(F, G) == (INF, ())


def test_part_bottleneck_mixes_slots(rng):
    # bars of different degrees lie in different slots and never pair
    a = GradedInterval(Interval.right_open(0, 1), 0)
    b = GradedInterval(Interval.right_open(0, 1), 1)
    value, pairs = part_bottleneck([a], [b])
    assert value == 0.5
    assert sorted(pairs, key=str) == sorted([(a, None, 0.5), (None, b, 0.5)], key=str)
    # whole barcodes in one call: the max of the per-slot values
    for k in range(300):
        F = random_barcode(rng, max_bars=8)
        G = perturbed_barcode(rng, F) if k % 2 else random_barcode(rng, max_bars=8)
        value, pairs = part_bottleneck(F.bars, G.bars)
        assert value == distance_with_matching(F, G)[0]
        if value < INF:
            costs = [pair_cost(l, r) if l and r else deletion_cost(l or r) for l, r, _ in pairs]
            assert costs == [c for _, _, c in pairs]
            assert max(costs, default=0.0) == value


def test_halfopen_prefers_double_deletion():
    # two distant short bars: deleting both beats pairing them
    F = parse_barcode("0 [0,1)\n")
    G = parse_barcode("0 [10,11)\n")
    value, matching = distance_with_matching(F, G)
    assert value == 0.5
    assert len(matching.deletions) == 2


def test_bruteforce_on_circle():
    F, G = parse_barcode(CIRCLE_F), parse_barcode(CIRCLE_G)
    assert bruteforce_distance(F, G) == 1.0


def test_matches_brute_force(rng):
    disagreements = 0
    for _ in range(250):
        F = random_barcode(rng, max_bars=5)
        G = random_barcode(rng, max_bars=5)
        fast, _ = distance_with_matching(F, G)
        brute = bruteforce_distance(F, G)
        disagreements += fast != brute
    assert disagreements == 0


def test_matches_brute_force_on_nearby_pairs(rng):
    for _ in range(100):
        F = random_barcode(rng, max_bars=4)
        G = perturbed_barcode(rng, F)
        fast, _ = distance_with_matching(F, G)
        assert fast == bruteforce_distance(F, G)
        assert fast < INF


def test_bruteforce_limit():
    big = Barcode(tuple(GradedInterval(Interval.open(0, k + 1), 0) for k in range(7)))
    with pytest.raises(ValueError):
        bruteforce_distance(big, big, limit=6)


def test_metric_axioms(rng):
    for _ in range(200):
        A = random_barcode(rng, max_bars=4)
        B = random_barcode(rng, max_bars=4)
        C = random_barcode(rng, max_bars=4)
        dab = distance_with_matching(A, B)[0]
        assert dab == distance_with_matching(B, A)[0]
        assert distance_with_matching(A, A)[0] == 0.0
        dac = distance_with_matching(A, C)[0]
        dcb = distance_with_matching(C, B)[0]
        if dac < INF and dcb < INF:
            assert dab <= dac + dcb + 1e-9


def test_zero_distance_means_equal(rng):
    for _ in range(200):
        A = random_barcode(rng, max_bars=4)
        B = random_barcode(rng, max_bars=4)
        if distance_with_matching(A, B)[0] == 0.0:
            assert A == B
    shuffled = parse_barcode("0 [0,1]\n0 (2,3)\n1 [4,5)\n")
    again = parse_barcode("1 [4,5)\n0 (2,3)\n0 [0,1]\n")
    assert distance_with_matching(shuffled, again)[0] == 0.0


def test_one_ulp_apart_is_a_positive_distance(rng):
    # d = 0 exactly when A == B, off the grid and at every magnitude: a zero
    # cost joins two bars only at one point of one slot and class, ``point``
    # is injective and every deletion cost is positive.  So moving one finite
    # end of one bar by one ulp, in either direction, leaves d > 0
    pairs = 0
    for _ in range(4_000):
        scale = 2.0 ** rng.randrange(-1000, 1015)
        bars = []
        for g in random_barcode(rng, max_bars=5):  # rays and the line included
            lo, hi, lc, hc = g.interval
            bar = GradedInterval(Interval(lo * scale, hi * scale, lc, hc), g.degree)
            bars += [bar] * rng.randrange(1, 3)  # some bars twice
        ends = [(k, e) for k, g in enumerate(bars) for e in (0, 1) if abs(g.interval[e]) < INF]
        if not ends:
            continue
        k, e = rng.choice(ends)
        lo, hi, lc, hc = bars[k].interval
        toward = rng.choice((-INF, INF))
        if lo == hi and (e == 0) == (toward == INF):  # a single point [x,x] only widens
            toward = -toward
        moved = [lo, hi]
        moved[e] = math.nextafter(moved[e], toward)
        A = Barcode(tuple(bars))
        B = Barcode((*bars[:k], GradedInterval(Interval(*moved, lc, hc), bars[k].degree),
                     *bars[k + 1:]))
        assert A != B
        assert distance_with_matching(A, B)[0] > 0, (A, B)
        pairs += 1
    assert pairs > 3_000


def _restrict(b: Barcode, side: str) -> Barcode:
    return Barcode(tuple(g for g in b if point(g)[0][0] == side))


def test_clr_independence(rng):
    for _ in range(200):
        A = random_barcode(rng, max_bars=5)
        B = random_barcode(rng, max_bars=5)
        whole = distance_with_matching(A, B)[0]
        parts = max(
            distance_with_matching(_restrict(A, p), _restrict(B, p))[0]
            for p in ("central", "R", "L")
        )
        assert whole == parts


def test_self_convolution_bound(rng):
    for _ in range(200):
        A = random_barcode(rng, max_bars=5)
        eps = abs(dyadic(rng, 0, 2))
        assert distance_with_matching(convolve_barcode(A, eps), A)[0] <= eps + 1e-9


@st.composite
def _float_barcodes(draw, max_bars: int = 5) -> Barcode:
    """Barcodes with arbitrary float endpoints, off the dyadic grid of
    ``conftest``, in the shapes ``random_interval`` draws."""
    bars = []
    for _ in range(draw(st.integers(0, max_bars))):
        a = draw(st.floats(-20, 20))
        b = a + draw(st.floats(0.01, 8))
        shape = draw(st.integers(0, 7))
        if shape < 4:
            iv = Interval(a, b, shape in (0, 2), shape in (0, 3))
        else:
            iv = (Interval.right_open(a, INF), Interval.left_open(-INF, b),
                  Interval.open(a, INF), Interval.line())[shape - 4]
        bars.append(GradedInterval(iv, draw(st.integers(-1, 1))))
    return Barcode(tuple(bars))


@st.composite
def _moved(draw, b: Barcode) -> Barcode:
    """``b`` with every finite endpoint moved by up to 1 and some bounded
    half-open bars dropped, so it lies at a finite distance from ``b``."""
    bars = []
    for g in b:
        iv = g.interval
        if deletion_cost(g) < INF and draw(st.booleans()):
            continue
        lo = iv.lo + draw(st.floats(-1, 1)) if iv.lo > -INF else iv.lo
        hi = max(lo + 0.01, iv.hi + draw(st.floats(-1, 1))) if iv.hi < INF else iv.hi
        bars.append(GradedInterval(Interval(lo, hi, iv.lo_closed, iv.hi_closed), g.degree))
    return Barcode(tuple(bars))


@settings(max_examples=200, deadline=None)
@given(_float_barcodes(), st.floats(-3, 3))
def test_self_convolution_bound_off_grid(A, eps):
    assert distance_with_matching(convolve_barcode(A, eps), A)[0] <= abs(eps) + 1e-9


@settings(max_examples=200, deadline=None)
@given(_float_barcodes().flatmap(lambda A: st.tuples(st.just(A), _moved(A), _moved(A))))
def test_triangle_inequality_off_grid(triple):
    A, B, C = triple
    dbc = distance_with_matching(B, C)[0]
    dba = distance_with_matching(B, A)[0]
    dac = distance_with_matching(A, C)[0]
    assert dba < INF and dac < INF
    assert dbc <= dba + dac + 1e-9


@settings(max_examples=200, deadline=None)
@given(_float_barcodes().flatmap(lambda F: st.tuples(st.just(F), _moved(F))), st.floats(0, 1))
def test_geodesic_bounds_off_grid(pair, frac):
    F, G = pair
    eps, matching = distance_with_matching(F, G)
    t = frac * eps
    U = interpolate(F, G, matching, t)
    assert distance_with_matching(F, U)[0] <= t + 1e-9
    assert distance_with_matching(U, G)[0] <= eps - t + 1e-9


def _slots(F: Barcode, G: Barcode):
    """``(slot, F bars, G bars)`` for every group of ``split_clr``, in the
    solver's order: central indices first, then R and L degrees, each
    ascending."""
    groups = matching.split_clr(F.bars, G.bars)[0]
    for slot in sorted(groups, key=lambda slot: (("central", "R", "L").index(slot[0]), slot[1])):
        yield slot, *groups[slot]


def test_part_bottleneck_witness_is_optimal_in_every_slot():
    # one call over whole barcodes: each slot's part of the witness costs
    # that slot's own value, not just at most the value of the pair
    rng = random.Random(11)
    finite = 0
    for k in range(1000):
        F = random_barcode(rng, max_bars=12)
        G = perturbed_barcode(rng, F) if k % 4 else random_barcode(rng, max_bars=12)
        value, pairs = part_bottleneck(F.bars, G.bars)
        alone = {kind: part_bottleneck(fs, gs)[0] for kind, fs, gs in _slots(F, G)}
        assert value == max(alone.values(), default=0.0)
        if value == INF:
            assert pairs == ()
            continue
        finite += 1
        worst = dict.fromkeys(alone, 0.0)
        for l, r, c in pairs:
            slot = point(r if l is None else l)[0]
            worst[slot] = max(worst[slot], c)
        assert worst == alone
    assert finite >= 700


def _slot_by_slot(F: Barcode, G: Barcode):
    """``distance_with_matching`` as one ``part_bottleneck`` per slot, the
    entries concatenated: the oracle for the one-call solve."""
    entries: list = []
    achieved = 0.0
    for _, fs, gs in _slots(F, G):
        value, pairs = part_bottleneck(fs, gs)
        if value == INF:
            return INF, ()
        achieved = max(achieved, value)
        entries += pairs
    return achieved, tuple(entries)


def _routed(value: float, pairs) -> tuple:
    """The three kinds of a witness, routed entry by entry by the slot of
    its bars, as ``distance_with_matching`` built them before ``Matching``
    held the entries: the reference for its views."""
    if value == INF:
        return (), (), ()
    central_pairs, halfopen_pairs, deletions = [], [], []
    for l, r, c in pairs:
        side, j = point(r if l is None else l)[0]
        if side == "central":
            central_pairs.append((j, l, r, c))
        elif l is not None and r is not None:
            halfopen_pairs.append((side, j, l, r, c))
        elif l is not None:
            deletions.append((side, j, "left", l, c))
        else:
            deletions.append((side, j, "right", r, c))
    return tuple(central_pairs), tuple(halfopen_pairs), tuple(deletions)


def _assert_same_as_slot_by_slot(F: Barcode, G: Barcode) -> float:
    value, m = distance_with_matching(F, G)
    want_value, want = _slot_by_slot(F, G)
    assert value.hex() == want_value.hex() == m.achieved.hex()
    assert repr(m.pairs) == repr(want)
    assert repr((m.central_pairs, m.halfopen_pairs, m.deletions)) == repr(_routed(value, want))
    return value


def _many_slot_barcode(rng: random.Random, degrees: int) -> Barcode:
    """0-4 bars of random shapes in each of ``degrees`` degrees: central,
    R and L slots of one to a few bars each, rays and lines among them."""
    return Barcode(tuple(
        GradedInterval(random_interval(rng), degree)
        for degree in range(degrees) for _ in range(rng.randrange(5))
    ))


def _dropped(rng: random.Random, b: Barcode) -> Barcode:
    """``b`` less one bar, chosen at random, when it has any."""
    if not b.bars:
        return b
    drop = rng.randrange(len(b.bars))
    return Barcode(b.bars[:drop] + b.bars[drop + 1 :])


def test_same_result_as_slot_by_slot():
    rng = random.Random(0x5107)
    values = []
    for k in range(2100):
        kind = k % 7
        if kind < 2:
            F, G = random_barcode(rng), random_barcode(rng)
        elif kind < 5:
            F = random_barcode(rng, max_bars=(6, 16, 30)[kind - 2])
            G = perturbed_barcode(rng, F)
        else:
            F = _many_slot_barcode(rng, rng.randrange(5, 25))
            G = perturbed_barcode(rng, F)
            if kind == 6:  # a dropped central bar or ray is infinite
                G = _dropped(rng, G)
        values.append(_assert_same_as_slot_by_slot(F, G))
    assert 300 <= values.count(INF) <= 1800


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_float_barcodes(max_bars=12).flatmap(
    lambda F: st.tuples(st.just(F), st.one_of(_moved(F), _float_barcodes(max_bars=12)))))
def test_same_result_as_slot_by_slot_off_grid(pair):
    _assert_same_as_slot_by_slot(*pair)


def test_determinism(rng):
    for _ in range(40):
        A = random_barcode(rng, max_bars=5)
        B = random_barcode(rng, max_bars=5)
        first = distance_with_matching(A, B)
        for _ in range(3):
            assert distance_with_matching(A, B) == first


def test_achieved_is_max_of_costs(rng):
    for _ in range(100):
        A = random_barcode(rng, max_bars=5)
        B = perturbed_barcode(rng, A)
        value, m = distance_with_matching(A, B)
        listed = (
            [c for *_, c in m.central_pairs]
            + [c for *_, c in m.halfopen_pairs]
            + [c for *_, c in m.deletions]
        )
        assert value == m.achieved == (max(listed) if listed else 0.0)


def _jitter(rng: random.Random, g: GradedInterval) -> GradedInterval:
    iv = g.interval
    lo = iv.lo if iv.lo == -INF else iv.lo + dyadic(rng, -1, 1, 16)
    hi = iv.hi if iv.hi == INF else iv.hi + dyadic(rng, -1, 1, 16)
    if iv.bounded and hi - lo < 0.125:
        hi = lo + 0.125
    return GradedInterval(Interval(lo, hi, iv.lo_closed, iv.hi_closed), g.degree)


def _random_slot(
    rng: random.Random,
    side: str,
    n: int,
    unrelated: float = 0.25,
    span: float | None = None,
    widths: tuple[float, float] = (0.5, 8),
):
    """Two sides of one slot: a central slot (open bars in degree 0,
    closed bars in degree 1) or an R or L slot in degree 0 with rays and
    lines, the right side a perturbation of the left or, with chance
    ``unrelated``, an unrelated slot of a different size.  Left ends are
    dyadic in [-6, 6] with widths 0.25-4 or, given ``span``, arbitrary
    floats in [-span, span] with widths drawn from ``widths``."""
    central = side == "central"
    bar = Interval.right_open if side == "R" else Interval.left_open

    def start() -> float:
        return dyadic(rng) if span is None else rng.uniform(-span, span)

    left = []
    for _ in range(n):
        a = start()
        w = dyadic(rng, 0.25, 4) if span is None else rng.uniform(*widths)
        u = rng.random()
        if central:
            iv, deg = (Interval.open(a, a + w), 0) if u < 0.5 else (Interval.closed(a, a + w), 1)
        elif u < 0.7:
            iv, deg = bar(a, a + w), 0
        elif side == "R":
            iv, deg = rng.choice([Interval.right_open(a, INF), Interval.open(-INF, a), Interval.line()]), 0
        else:
            iv, deg = rng.choice([Interval.open(a, INF), Interval.left_open(-INF, a), Interval.line()]), 0
        left.append(GradedInterval(iv, deg))
    if rng.random() < unrelated:  # often infinite
        return left, _random_slot(rng, side, n + rng.choice((-1, 1)), span=span, widths=widths)[0]
    right = []
    for g in left:
        if central and g.degree == 0 and rng.random() < 0.25:
            right.append(convolve_interval(g, g.interval.width / 2 + abs(dyadic(rng, 0, 1, 16))))
        elif not (g.interval.bounded and not central and rng.random() < 0.2):
            right.append(_jitter(rng, g))
    if not central:
        right += [GradedInterval(bar(a, a + 0.5), 0)
                  for a in (start() for _ in range(rng.randrange(4)))]
    return left, right


def _assert_optimal(left, right, d, pairs):
    """The value must admit a perfect matching of the threshold graph and
    the next smaller candidate must not, decided by scipy on the plain
    square reduction (every bar has a diagonal copy); the witness must
    use every bar once, at its true cost, and attain the value."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")

    def perfect(eps):
        p, q = cost.shape
        ok = np.zeros((p + q, q + p), dtype=bool)
        ok[:p, :q] = cost <= eps
        ok[np.arange(p), q + np.arange(p)] = del_l <= eps
        ok[p + np.arange(q), np.arange(q)] = del_r <= eps
        ok[p:, q:] = True
        rows, cols = optimize.linear_sum_assignment(~ok)
        return bool(ok[rows, cols].all())

    cost = np.array([[pair_cost(l, r) for r in right] for l in left]).reshape(len(left), len(right))
    del_l = np.array([deletion_cost(g) for g in left])
    del_r = np.array([deletion_cost(g) for g in right])
    cands = np.concatenate([cost.ravel(), del_l, del_r])
    below = cands[cands < d]
    if d < INF:
        assert perfect(d)
        used_l = Counter(l for l, _, _ in pairs if l is not None)
        used_r = Counter(r for _, r, _ in pairs if r is not None)
        assert used_l == Counter(left) and used_r == Counter(right)
        for l, r, c in pairs:
            real = pair_cost(l, r) if l is not None and r is not None else deletion_cost(l or r)
            assert c == real <= d
        assert max(c for *_, c in pairs) == d
    else:
        assert pairs == ()
    if below.size:
        assert not perfect(below.max())


@pytest.fixture
def paths(monkeypatch):
    """Each ``_cheapest_path`` call as ``(eps returned, left vertices that
    changed mates, whether a left copy took a right copy)``: the last
    shows a path through the copy pool."""
    calls = []

    def spy(nbrs, ecost, slot, mate_l, mate_r, eps):
        _, p, q, _ = slot
        before = mate_l[:]
        eps = _cheapest_path(nbrs, ecost, slot, mate_l, mate_r, eps)
        moved = [u for u, v in enumerate(mate_l) if v != before[u]]
        calls.append((eps, len(moved), any(u >= p and mate_l[u] >= q for u in moved)))
        return eps

    monkeypatch.setattr(matching, "_cheapest_path", spy)
    return calls


def test_part_bottleneck_matches_assignment_oracle(paths):
    # past the brute-force limit: 24 slots of 10-60 bars, then central,
    # R and L slots of 100 and 300 bars, then the same off the dyadic
    # grid, spread like the benchmark's so that most half-open pairs cost
    # more than the dearest deletion and central slots pair open with
    # closed bars at off-grid cross-degree costs
    rng = random.Random(0x0DD5)
    outcomes = Counter()
    lb_failed = 0
    trials = [("central" if t % 2 else "R", 0, None) for t in range(24)]
    trials += [(side, n, None) for n in (100, 300) for side in ("central", "R", "L")]
    trials += [(side, n, 50.0) for n in (100, 300) for side in ("central", "R", "L")]
    for side, n, span in trials:
        if n:
            left, right = _random_slot(rng, side, n, unrelated=0, span=span)
        else:
            left, right = _random_slot(rng, side, rng.randrange(10, 61))
        searched = len(paths)
        d, pairs = part_bottleneck(left, right)
        _assert_optimal(left, right, d, pairs)
        outcomes[side, n > 60, d < INF] += 1
        lb_failed += len(paths) > searched
    # in 20 of the 36 trials the lb probe fails and cheapest paths set the value
    assert lb_failed >= 15
    assert {k for k in outcomes if not k[1]} == {
        ("central", False, True), ("central", False, False), ("R", False, True), ("R", False, False)
    }
    assert {k for k in outcomes if k[1]} == {("central", True, True), ("R", True, True), ("L", True, True)}


def test_large_slot_needs_no_recursion():
    # an R slot drawn like the benchmark's: 5% rays, 15% of the bounded
    # bars facing an unrelated fresh bar, the rest jittered by up to 1;
    # a recursive augmenting search overflows 60 frames above this one
    def grid(x):
        return round(x * 256) / 256

    rng = random.Random(0x5EED)
    left, right = [], []
    for _ in range(100):
        u, a = rng.random(), grid(rng.uniform(-50, 50))
        if u < 0.05:
            b = grid(a + rng.uniform(-1, 1))
            if rng.random() < 0.5:
                pair = Interval.right_open(a, INF), Interval.right_open(b, INF)
            else:
                pair = Interval.open(-INF, a), Interval.open(-INF, b)
        else:
            hi = a + grid(rng.uniform(0.5, 8))
            if u < 0.2:
                lo = grid(rng.uniform(-50, 50))
                other = lo, lo + grid(rng.uniform(0.5, 8))
            else:
                lo = grid(a + rng.uniform(-1, 1))
                other = lo, max(lo + 0.25, grid(hi + rng.uniform(-1, 1)))
            pair = Interval.right_open(a, hi), Interval.right_open(*other)
        left.append(GradedInterval(pair[0], 0))
        right.append(GradedInterval(pair[1], 0))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        d, pairs = part_bottleneck(left, right)
    finally:
        sys.setrecursionlimit(limit)
    assert d < INF
    _assert_optimal(left, right, d, pairs)


def test_per_pair_bound_keeps_an_edge_below_the_dearer_deletion():
    # the pair costs 4: more than deleting [3,6) (1.5), less than deleting
    # [0,10) (5); a bound on the cheaper deletion would give 5
    F, G = parse_barcode("0 [0,10)\n"), parse_barcode("0 [3,6)\n")
    value, matching = distance_with_matching(F, G)
    assert value == 4.0
    assert [(str(l), str(r), c) for *_, l, r, c in matching.halfopen_pairs] == [
        ("[0,10)@0", "[3,6)@0", 4.0)
    ]
    assert not matching.deletions


def test_per_pair_bound_at_and_above_the_dearer_deletion():
    a = GradedInterval(Interval.right_open(0, 4), 0)  # deletion 2
    at = GradedInterval(Interval.right_open(2, 4), 0)  # deletion 1, pair cost 2
    above = GradedInterval(Interval.right_open(2.5, 4.5), 0)  # deletion 1, pair cost 2.5
    # right vertex 2 is the copy of a; left vertex 1 the copy of at
    assert _edges(_rows([a], [at, above])) == (
        [[(2.0, 0), (2.0, 2)], [(1.0, 0)], [(1.0, 1)]], 2.0
    )
    # right vertices 1 and 2 are the copies of at and above; left vertex 2 the copy of a
    assert _edges(_rows([at, above], [a])) == (
        [[(1.0, 1), (2.0, 0)], [(1.0, 2)], [(2.0, 0)]], 2.0
    )
    value, pairs = part_bottleneck([a], [above])
    assert value == 2.0
    assert sorted(pairs, key=str) == sorted([(a, None, 2.0), (None, above, 1.0)], key=str)


GRID = (-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0)  # both zeros, and ties on a small grid


def _edge_slot(rng: random.Random, side: str, n: int):
    """Two sides of one slot built for the edges of the walk: ends on
    ``GRID``, so the two zeros and tied first coordinates across the sides
    are common, and half-open partners placed exactly at the per-pair bound
    (cost equal to the dearer deletion).  Every undeletable bar has a
    partner of its class, so the slot is feasible."""
    def ends(closed: bool) -> tuple[float, float]:
        a, b = sorted(rng.sample(GRID, 2))
        return (a, b) if a < b or closed else (a, b + 0.5)

    def bar(shape, a, b):
        iv = {"ro": Interval.right_open, "lo": Interval.left_open, "open": Interval.open,
              "closed": Interval.closed}[shape](a, b)
        return GradedInterval(iv, 1 if shape == "closed" else 0)

    half = "ro" if side == "R" else "lo"
    left, right = [], []
    for _ in range(n):
        u = rng.random()
        if side == "central":
            shape = rng.choice(("open", "closed"))
            left.append(bar(shape, *ends(shape == "closed")))
            right.append(bar(shape, *ends(shape == "closed")))
        elif u < 0.15:  # a ray or the line, partnered within its class
            a, b = rng.choice(GRID), rng.choice(GRID)
            shapes = ([Interval.right_open(a, INF), Interval.open(-INF, a), Interval.line()]
                      if side == "R" else [Interval.open(a, INF), Interval.left_open(-INF, a)])
            k = rng.randrange(len(shapes))
            left.append(GradedInterval(shapes[k], 0))
            other = ([Interval.right_open(b, INF), Interval.open(-INF, b), Interval.line()]
                     if side == "R" else [Interval.open(b, INF), Interval.left_open(-INF, b)])
            right.append(GradedInterval(other[k], 0))
        else:
            a, b = ends(False)
            left.append(bar(half, a, b))
            d = (b - a) / 2
            w = rng.random()
            if w < 0.3:  # the same bar, perhaps with the other zero
                right.append(bar(half, -a if a == 0 and rng.random() < 0.5 else a, b))
            elif w < 0.6:  # at the bound: cost d == max(d, d / 2)
                right.append(bar(half, a + d, b) if side == "R" else bar(half, a, b - d))
            elif w < 0.8:  # at the bound on the right bar's side: cost 2d == its deletion
                right.append(bar(half, a, b + 2 * d) if side == "R" else bar(half, a - 2 * d, b))
            else:
                right.append(bar(half, *ends(False)))
    rng.shuffle(right)
    return left, right


def test_listed_costs_are_the_cost_functions_floats_sign_included():
    # ``==`` cannot tell -0.0 from 0.0; float.hex can.  Every entry costs
    # exactly the float pair_cost or deletion_cost returns, and the value
    # is the dearest entry's
    for F, G in [("0 [0,1)\n", "0 [-0,1)\n"), ("0 [-0,1)\n", "0 [0,1)\n")]:
        value, matching = distance_with_matching(parse_barcode(F), parse_barcode(G))
        assert value.hex() == "0x0.0p+0"
        assert [c.hex() for *_, c in matching.pairs] == ["0x0.0p+0"]
    rng = random.Random(22)
    zeros = 0
    for t in range(600):
        left, right = _edge_slot(rng, ("central", "R", "L")[t % 3], rng.randrange(1, 12))
        if t % 4 == 3:  # several slots in one call
            more = _edge_slot(rng, ("R", "L", "central")[t % 3], rng.randrange(1, 6))
            left, right = left + more[0], right + more[1]
        value, pairs = part_bottleneck(left, right)
        assert value < INF
        for l, r, c in pairs:
            want = pair_cost(l, r) if l is not None and r is not None else deletion_cost(l or r)
            assert c.hex() == want.hex(), (l, r)
            zeros += c == 0.0
        assert value.hex() == max((c for *_, c in pairs), default=0.0).hex()
    assert zeros > 300  # zero costs, where the sign could slip, are common


def _edges(graph):
    """``_rows``'s result as each left vertex's ``(cost, j)`` edges, and
    the lb of its one slot."""
    nbrs, ecost, _, [lb], *_ = graph
    return [list(zip(c, n)) for c, n in zip(ecost, nbrs)], lb


def test_rows_lists_exactly_the_edges_within_the_per_pair_bound(rng):
    # every finite edge of an undeletable class, and exactly the class-0
    # edges (i, j) with cost at most max(del_l[i], del_r[j]), which is at
    # most ub, the dearest deletion; each row sorted by (cost, j), a
    # bar's copy edge included, and lb the max over bars of the cheaper
    # of their best partner and their deletion; slot by slot, as the
    # lines of an L trial lie in the R slot of their degree
    for t in range(120):
        side = ("central", "R", "L")[t % 3]
        span, widths = ((None, (0.5, 8)), (50.0, (0.5, 8)), (50.0, (0.1, 20)))[t % 3]
        _assert_rows(*_random_slot(rng, side, rng.randrange(1, 40), span=span, widths=widths))
    # both zeros, first coordinates tied across the sides, pairs at the bound
    for t in range(120):
        _assert_rows(*_edge_slot(rng, ("central", "R", "L")[t % 3], rng.randrange(1, 20)))


def _assert_rows(left, right):
    """``_rows`` of two lists of bars, checked slot by slot."""
    ub = max([d for d in map(deletion_cost, left + right) if d < INF], default=0.0)
    graph = _rows(left, right)
    if graph is None:
        classes = Counter(point(g)[:2] for g in left if point(g)[1])
        assert classes != Counter(point(g)[:2] for g in right if point(g)[1])
        return
    nbrs, ecost, slots, lbs, *_ = graph
    keys = [kind for kind, *_ in _slots(Barcode(tuple(left)), Barcode(tuple(right)))]
    assert [lo for lo, *_ in slots] == [0] + [hi for *_, hi in slots[:-1]]
    assert len(slots) == len(keys) and slots[-1][3] == len(nbrs)
    for (lo, _, _, hi), lb, key in zip(slots, lbs, keys):
        rows = [[(c, j - lo) for c, j in zip(ecost[u], nbrs[u])] for u in range(lo, hi)]
        _assert_slot_rows([g for g in left if point(g)[0] == key],
                          [g for g in right if point(g)[0] == key], rows, lb, ub)


def _assert_slot_rows(left, right, rows, lb, ub):
    """The rows and lb of one slot's bars, numbered from 0 within it."""
    del_l = [deletion_cost(g) for g in left]
    del_r = [deletion_cost(g) for g in right]
    q = len(right)
    copy_l = [i for i in range(len(left)) if del_l[i] < INF]
    copy_r = [j for j in range(q) if del_r[j] < INF]
    assert len(rows) == len(left) + len(copy_r)
    for i, row in enumerate(rows[: len(left)]):
        assert row == sorted(row)
        want = []
        for j, g in enumerate(right):
            c = pair_cost(left[i], g)
            if c < INF and c <= max(del_l[i], del_r[j]):
                want.append((c, j))
                assert point(g)[1] or c <= ub
        if i in copy_l:
            want.append((del_l[i], q + copy_l.index(i)))
        assert _hexed(row) == _hexed(sorted(want))  # the sign of a zero cost included
    assert [_hexed(row) for row in rows[len(left) :]] == [_hexed([(del_r[j], j)]) for j in copy_r]
    best_l = [min([pair_cost(g, h) for h in right] + [d]) for g, d in zip(left, del_l)]
    best_r = [min([pair_cost(g, h) for g in left] + [d]) for h, d in zip(right, del_r)]
    assert lb.hex() == max(best_l + best_r).hex()


def _hexed(row):
    """A row of ``(cost, j)`` with each cost as ``float.hex``, which tells
    -0.0 from 0.0."""
    return [(c.hex(), j) for c, j in row]


def test_greedy_seed_that_blocks_is_augmented():
    # left 0 greedily takes right 0, its cheapest edge, the only edge of
    # left 1: the matcher must reroute left 0 to right 1
    mate_l, mate_r = [-1, -1], [-1, -1]
    _max_matching([[0, 1], [0]], [2, 1], [(0, 2, 2, 2)], mate_l, mate_r)
    assert mate_l == [1, 0] and mate_r == [1, 0]
    # the same through the solver: rays, so no deletion can help
    left = [GradedInterval(Interval.right_open(a, INF), 0) for a in (0, 1)]
    right = [GradedInterval(Interval.right_open(b, INF), 0) for b in (0.75, -1)]
    value, pairs = part_bottleneck(left, right)
    assert value == 1.0
    assert sorted(pairs, key=str) == sorted(
        [(left[0], right[1], 1.0), (left[1], right[0], 0.25)], key=str
    )
    _assert_optimal(left, right, value, pairs)


@pytest.mark.parametrize("nbrs, cnt, slot, want", [
    # left 1's first edge is taken by left 0, its second is free
    pytest.param([(0,), (0, 1)], [1, 2], (0, 2, 2, 2), ([0, 1], [0, 1], []),
                 id="second-of-prefix"),
    # right 1 lies just past left 1's prefix: it stays free, and so does left 1
    pytest.param([(0,), (0, 1)], [1, 1], (0, 2, 2, 2), ([0, -1], [0, -1], [0]),
                 id="free-vertex-past-prefix"),
    # left 0 takes its copy, right 2; the left copy 3 has an empty prefix
    # and skips right copy 2 for the next free one, 3
    pytest.param([(2, 0), (1, 3), (0,), (1,)], [1, 1, 1, 0], (0, 2, 2, 4),
                 ([2, 1, 0, 3], [2, 1, 0, 3], []), id="empty-prefix-takes-a-copy"),
])
def test_greedy_takes_the_first_free_vertex_of_each_prefix(nbrs, cnt, slot, want):
    mate_l, mate_r = [-1] * len(nbrs), [-1] * len(nbrs)
    short = _max_matching(nbrs, cnt, [slot], mate_l, mate_r)
    assert (mate_l, mate_r, short) == want


def _random_graph(rng, p, q, copies_l, copies_r):
    """Rows in ``_max_matching``'s form: ``p`` left bars, ``copies_r``
    left copies, ``q`` right bars and ``copies_l`` right copies; each row
    lists some right vertices in random order, a left copy at most its
    own bar, and ``cnt`` keeps a random prefix of each."""
    size = p + copies_r
    assert size == q + copies_l
    nbrs, cnt = [], []
    for u in range(size):
        if u < p:
            row = rng.sample(range(size), rng.randrange(0, min(size, 6) + 1))
        else:
            row = [rng.randrange(q)] if q else []
        nbrs.append(tuple(row))
        cnt.append(rng.randrange(len(row) + 1))
    return nbrs, cnt


def _chain(n):
    """Left ``i`` lists right ``i + 1`` first, then right ``i``: the greedy
    pass gives every left vertex its neighbour's partner, and the last one
    needs an augmenting path through the whole chain."""
    nbrs = [(i + 1, i) for i in range(n - 1)] + [(n - 1,)]
    return nbrs, [len(row) for row in nbrs]


def test_max_matching_is_maximum_against_scipy():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = random.Random(1955)
    graphs = [(*_chain(n), n, n) for n in (2, 3, 50, 3000)]
    for _ in range(300):
        p, q = rng.randrange(0, 12), rng.randrange(0, 12)
        copies_l = rng.randrange(0, p + 1)
        copies_r = q + copies_l - p
        if copies_r < 0 or copies_r > q:
            continue
        graphs.append((*_random_graph(rng, p, q, copies_l, copies_r), p, q))
    for nbrs, cnt, p, q in graphs:
        size = len(nbrs)
        mate_l, mate_r = [-1] * size, [-1] * size
        _max_matching(nbrs, cnt, [(0, p, q, size)], mate_l, mate_r)
        # the explicit graph: the listed prefixes and the copy-to-copy block
        edges = {(u, v) for u in range(size) for v in nbrs[u][: cnt[u]]}
        edges |= {(u, v) for u in range(p, size) for v in range(q, size)}
        rows, cols = zip(*sorted(edges)) if edges else ((), ())
        graph = sparse.csr_matrix(([1] * len(rows), (rows, cols)), shape=(size, size))
        want = csgraph.maximum_bipartite_matching(graph, perm_type="column")
        assert size - mate_l.count(-1) == sum(1 for v in want if v != -1)
        for u, v in enumerate(mate_l):
            if v != -1:
                assert (u, v) in edges and mate_r[v] == u
        assert mate_r.count(-1) == mate_l.count(-1)
        again_l, again_r = [-1] * size, [-1] * size
        _max_matching([list(row) for row in nbrs], cnt[:], [(0, p, q, size)], again_l, again_r)
        assert (again_l, again_r) == (mate_l, mate_r)


def test_max_matching_keeps_each_slot_to_its_own_pool():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    # a left copy of slot 0 with no edge at lb, and a free right copy in
    # slot 1: a shared pool would join them
    mate_l, mate_r = [-1, -1], [-1, -1]
    short = _max_matching([(0,), (1,)], [0, 0], [(0, 0, 1, 1), (1, 2, 1, 2)], mate_l, mate_r)
    assert (mate_l, mate_r, short) == ([-1, -1], [-1, -1], [0, 1])
    # graphs of 2-5 slots, each drawn as one graph of the test above
    rng = random.Random(1978)
    for _ in range(200):
        nbrs, cnt, slots = [], [], []
        count = rng.randrange(2, 6)
        while len(slots) < count:
            p, q = rng.randrange(0, 8), rng.randrange(0, 8)
            copies_l = rng.randrange(0, p + 1)
            copies_r = q + copies_l - p
            if p + copies_r == 0 or copies_r < 0 or copies_r > q:
                continue
            rows, prefix = _random_graph(rng, p, q, copies_l, copies_r)
            lo = len(nbrs)
            nbrs += [tuple(lo + v for v in row) for row in rows]
            cnt += prefix
            slots.append((lo, lo + p, lo + q, len(nbrs)))
        size = len(nbrs)
        mate_l, mate_r = [-1] * size, [-1] * size
        short = _max_matching(nbrs, cnt, slots, mate_l, mate_r)
        # the explicit graph: the listed prefixes and each slot's own copy block
        edges = {(u, v) for u in range(size) for v in nbrs[u][: cnt[u]]}
        for lo, p, q, hi in slots:
            edges |= {(u, v) for u in range(p, hi) for v in range(q, hi)}
        rows, cols = zip(*sorted(edges)) if edges else ((), ())
        graph = sparse.csr_matrix(([1] * len(rows), (rows, cols)), shape=(size, size))
        want = csgraph.maximum_bipartite_matching(graph, perm_type="column")
        assert size - mate_l.count(-1) == sum(1 for v in want if v != -1)
        home = [k for k, (lo, _, _, hi) in enumerate(slots) for _ in range(lo, hi)]
        for u, v in enumerate(mate_l):
            if v != -1:
                assert (u, v) in edges and mate_r[v] == u and home[u] == home[v]
        assert short == [k for k, (lo, _, _, hi) in enumerate(slots) if -1 in mate_l[lo:hi]]


def _solve_slot(f_text, g_text):
    """Solve one slot of at most 6 bars a side, given as ``.gbc`` texts,
    and check the result with the assignment oracle and by enumeration."""
    F, G = parse_barcode(f_text), parse_barcode(g_text)
    d, pairs = part_bottleneck(F.bars, G.bars)
    _assert_optimal(F.bars, G.bars, d, pairs)
    assert bruteforce_distance(F, G) == d
    return d, {(str(l), str(r), c) for l, r, c in pairs}


def test_cheapest_path_reroutes_a_matched_pair(paths):
    # the graph alone: left 0 and 1 both reach only right 0 at eps 1, and
    # left 2 holds right 1; left 1's cheapest path takes right 1 at 10 and
    # sends left 2 on to right 2
    nbrs, ecost = [[0, 1, 2], [0, 1, 2], [1, 2, 0]], [[1, 12, 14], [1, 10, 12], [1, 1, 12]]
    mate_l, mate_r = [0, -1, 1], [0, 2, -1]
    assert _cheapest_path(nbrs, ecost, (0, 3, 3, 3), mate_l, mate_r, 1.0) == 10
    assert mate_l == [0, 1, 2] and mate_r == [0, 1, 2]
    # the same as long R bars, whose deletion (20) is dearer than the path
    d, pairs = _solve_slot("0 [1,41)\n0 [-1,39)\n0 [12,52)\n", "0 [0,40)\n0 [11,51)\n0 [13,53)\n")
    assert d == 10.0 and ("[1,41)@0", "[11,51)@0", 10.0) in pairs
    [(eps, moved, pooled)] = paths
    assert (eps, pooled) == (10.0, False) and moved >= 2  # three edges or more


def test_cheapest_path_stays_in_its_slot():
    # slot 0: left bar 0 (deletion 1) holds its copy, right vertex 1, and
    # the left copy 1 of right bar 0 (deletion 3) is free; slot 1: left
    # bar 2 and its copy, right vertex 2, both free.  Within slot 0 the
    # cheapest path costs 2: left copy 1 takes the copy pool's right
    # vertex 1, and left bar 0 moves on to right bar 0.  A pool shared
    # with slot 1 would end the path at right vertex 2 for free.
    nbrs, ecost = [(1, 0), (0,), (2,)], [(1.0, 2.0), (3.0,), (0.5,)]
    mate_l, mate_r = [1, -1, -1], [-1, 0, -1]
    assert _cheapest_path(nbrs, ecost, (0, 1, 1, 2), mate_l, mate_r, 1.0) == 2.0
    assert mate_l == [0, 1, -1] and mate_r == [0, 1, -1]


def test_cheapest_path_through_the_copy_pool(paths):
    # at lb = 1, [3.5,6.5) holds [4,7) (0.5) and [4,8) is left free; the
    # path [4,8)-[4,7) (1), [3.5,6.5) to its copy (1.5), then that copy's
    # mate, the copy of [4,7), over to the free copy of [4,8) for free
    d, pairs = _solve_slot("0 [3.5,6.5)\n0 [4,8)\n", "0 [4,7)\n0 [20,21)\n")
    assert d == 1.5
    assert pairs == {("[4,8)@0", "[4,7)@0", 1.0), ("[3.5,6.5)@0", "None", 1.5), ("None", "[20,21)@0", 0.5)}
    assert paths == [(1.5, 3, True)]


def test_cheapest_path_runs_once_per_free_vertex(paths):
    # two far apart clusters of rays, each short of one pair at lb = 1:
    # the cheaper path (5) comes first, then the dearer one sets the value
    d, pairs = _solve_slot(
        "".join(f"0 [{a},inf)\n" for a in (1, -1, 12, 101, 99, 107)),
        "".join(f"0 [{a},inf)\n" for a in (0, 11, 13, 100, 106, 108)),
    )
    assert d == 10.0
    assert {("[1,inf)@0", "[11,inf)@0", 10.0), ("[101,inf)@0", "[106,inf)@0", 5.0)} < pairs
    assert [eps for eps, *_ in paths] == [5.0, 10.0]


def test_cheapest_path_in_a_central_slot(paths):
    # open bars in degree 0 and closed bars in degree 1: (5,6) and [4,5]
    # both reach only [5,5] at lb = 1, so (5,6) pairs across with (20,21)
    # at 15 and (21,22) moves on to [22,22]
    d, pairs = _solve_slot("0 (5,6)\n1 [4,5]\n0 (21,22)\n", "1 [5,5]\n0 (20,21)\n1 [22,22]\n")
    assert d == 15.0
    assert pairs == {
        ("(5,6)@0", "(20,21)@0", 15.0), ("[4,5]@1", "[5,5]@1", 1.0), ("(21,22)@0", "[22,22]@1", 1.0)
    }
    assert paths == [(15.0, 3, False)]


def test_cheapest_path_finds_none_only_by_a_bug():
    # no perfect matching: the count check of split_clr rules this out
    mate_l, mate_r = [0, -1], [0, -1]
    with pytest.raises(AssertionError, match="no augmenting path"):
        _cheapest_path([[0], [0]], [[1.0], [2.0]], (0, 2, 2, 2), mate_l, mate_r, 1.0)


def test_witness_is_deterministic_on_equal_inputs(rng, paths):
    # equal but separately built inputs give the same witness, bar for bar
    for _ in range(40):
        base = random_barcode(rng, max_bars=16)
        text = format_barcode(base)
        other = format_barcode(perturbed_barcode(rng, base) if rng.random() < 0.7 else random_barcode(rng, 16))
        for g in (text, other):
            first = distance_with_matching(parse_barcode(text), parse_barcode(g))
            again = distance_with_matching(parse_barcode(text), parse_barcode(g))
            assert repr(first) == repr(again)
    # slots where the lb probe fails: the cheapest paths, and the ties among
    # their edges, are taken in the same order on equal inputs
    for side in ("central", "R"):
        left, right = _random_slot(random.Random(3), side, 200, unrelated=0, span=50.0)
        del paths[:]
        first = part_bottleneck(left, right)
        searched = [eps for eps, *_ in paths]
        assert len(searched) >= 2
        copies = ([GradedInterval(g.interval, g.degree) for g in bars] for bars in (left, right))
        del paths[:]
        assert repr(part_bottleneck(*copies)) == repr(first)
        assert [eps for eps, *_ in paths] == searched


def test_part_bottleneck_optimal_over_wide_width_ranges():
    # widths 0.1-20 over span 50: short bars meet long ones, so the
    # per-pair bound drops many edges below ub
    rng = random.Random(0xB0D)
    outcomes = Counter()
    for t in range(30):
        side = ("R", "L", "central")[t % 3]
        n = rng.randrange(5, 40) if t < 24 else 150
        left, right = _random_slot(rng, side, n, unrelated=0.2, span=50.0, widths=(0.1, 20))
        d, pairs = part_bottleneck(left, right)
        _assert_optimal(left, right, d, pairs)
        outcomes[side, d < INF] += 1
    assert {k for k in outcomes if k[1]} == {("R", True), ("L", True), ("central", True)}


def test_bars_at_the_range_edge_have_finite_costs():
    # ends one ulp below 2**1022, in every class: every width, midpoint and
    # cost stays finite (two ends differ by less than 2**1023), so each
    # bounded half-open bar can be deleted and each class matches within itself
    E = math.nextafter(2.0**1022, 0)
    pairs = [  # (a bar of F, a bar of G) per class, far apart
        (Interval.right_open(-E, E), Interval.right_open(0, E)),  # bounded R
        (Interval.left_open(-E, E), Interval.left_open(-E, 0)),  # bounded L
        (Interval.right_open(-E, INF), Interval.right_open(E, INF)),  # R ray to inf
        (Interval.open(-INF, -E), Interval.open(-INF, E)),  # R ray to -inf
        (Interval.open(-E, INF), Interval.open(E, INF)),  # L ray to inf
        (Interval.left_open(-INF, -E), Interval.left_open(-INF, E)),  # L ray to -inf
        (Interval.line(), Interval.line()),
        (Interval.open(-E, E), Interval.open(E / 2, E)),  # central open
        (Interval.closed(-E, E), Interval.point(E)),  # central closed
    ]
    cross = (GradedInterval(Interval.open(-E, E), 0), GradedInterval(Interval.point(-E), 1))
    bars = [(GradedInterval(f, 0), GradedInterval(g, 0)) for f, g in pairs] + [cross]
    assert all(pair_cost(f, g) < INF for f, g in bars)
    assert all(deletion_cost(h) < INF for pair in bars[:2] for h in pair)
    rng = random.Random(1022)
    for k in range(60):
        chosen = bars if k == 0 else rng.sample(bars, rng.randrange(1, len(bars) + 1))
        F = Barcode(tuple(f for f, _ in chosen))
        G = Barcode(tuple(g for _, g in chosen))
        d = distance_with_matching(F, G)[0]
        assert d < INF and d == bruteforce_distance(F, G)
    assert distance_with_matching(Barcode((bars[0][0],)), Barcode())[0] == E
    for f, g in bars[2:4]:
        assert same_component(Barcode((f,)), Barcode((g,)))


# ---------------------------------------------------------------------
# connected components: a count, not a solve
# ---------------------------------------------------------------------


def _off_grid(rng: random.Random, b: Barcode) -> Barcode:
    """``b`` with every finite end moved by a float off the dyadic grid,
    each bar keeping its shape and degree, a point staying a point."""
    bars = []
    for g in b:
        iv = g.interval
        lo = iv.lo if iv.lo == -INF else iv.lo + rng.uniform(-0.7, 0.7)
        if iv.is_point:
            hi = lo
        else:
            hi = iv.hi if iv.hi == INF else max(iv.hi + rng.uniform(-0.7, 0.7), lo + 0.01)
        bars.append(GradedInterval(Interval(lo, hi, iv.lo_closed, iv.hi_closed), g.degree))
    return Barcode(tuple(bars))


def test_same_component_is_a_finite_distance():
    # random pairs, perturbed ones (with a bar dropped, often undeletable)
    # and both moved off the grid: the count and the solve agree
    rng = random.Random(0xC0C0)
    values = []
    for k in range(6000):
        kind = k % 4
        F = random_barcode(rng, max_bars=(6, 6, 16, 10)[kind])
        if kind == 0:
            G = random_barcode(rng)
        else:
            G = perturbed_barcode(rng, F)
            if rng.random() < 0.4:
                G = _dropped(rng, G)
            if kind == 3:
                F, G = _off_grid(rng, F), _off_grid(rng, G if rng.random() < 0.7 else random_barcode(rng, 10))
        d = distance_with_matching(F, G)[0]
        assert same_component(F, G) == (d < INF), (format_barcode(F), format_barcode(G))
        values.append(d)
    assert 1500 <= values.count(INF) <= 4500


def test_same_component_runs_no_solve(monkeypatch):
    def boom(*args):
        raise AssertionError("same_component ran the solver")

    monkeypatch.setattr(matching, "_rows", boom)
    monkeypatch.setattr(matching, "part_bottleneck", boom)
    assert matching.same_component(parse_barcode(CIRCLE_F), parse_barcode(CIRCLE_G))
    # equal global sections, yet no finite matching (see test_barcode)
    F = parse_barcode("-1 (-2.375,-1)\n-1 [4.5,inf)\n")
    G = parse_barcode("-1 (-inf,inf)\n0 (-inf,-5.625]\n0 [0.625,1.375)\n1 [-3,-0.125)\n")
    assert not matching.same_component(F, G)
