import copy
import math

import pytest

from conftest import perturbed_barcode, random_barcode
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    Matching,
    distance_with_matching,
    interpolate,
    pair_path,
    parse_barcode,
    same_component,
)
from sheafdist.intervals import INF

CIRCLE_F = "0 [-1,1]\n0 (-1,1)\n"
CIRCLE_G = "0 [0,0]\n1 [0,0]\n"


def G(iv, degree=0):
    return GradedInterval(iv, degree)


def test_pair_path_examples():
    src = G(Interval.open(-1, 1), 0)
    dst = G(Interval.point(0), 1)
    assert pair_path(src, dst, 0.5) == G(Interval.open(-0.5, 0.5), 0)
    assert pair_path(src, dst, 0.0) == src
    assert pair_path(src, dst, 1.0) == dst
    assert pair_path(G(Interval.right_open(0, 1), 0), None, 0.5) is None
    assert pair_path(G(Interval.right_open(0, 1), 0), None, 0.25) == G(
        Interval.right_open(0.25, 0.75), 0
    )


def test_pair_path_crosses_collapse():
    src = G(Interval.open(0, 2), 0)       # half-width 1, centre 1
    dst = G(Interval.closed(3, 5), 1)     # cost 1 + 4 = 5
    from sheafdist import pair_cost

    c = pair_cost(src, dst)
    assert c == 5
    assert pair_path(src, dst, 0.5) == G(Interval.open(0.5, 1.5), 0)
    assert pair_path(src, dst, 1.0) == G(Interval.point(1), 1)   # collapse instant
    mid = pair_path(src, dst, 3.0)
    assert mid.degree == 1
    assert mid.interval == Interval.closed(2.0, 3.0)
    # reversed orientation walks the same bars backwards
    assert pair_path(dst, src, c - 0.5) == G(Interval.open(0.5, 1.5), 0)
    assert pair_path(dst, src, c - 1.0) == G(Interval.point(1), 1)


def test_pair_path_round_off_at_the_collapse_takes_the_centre_point():
    # an ulp before the collapse, (1000,1000.5) shrunk by t would be open
    # with ends that round onto one value, and so would the open bar an ulp
    # after it on the way back: the path is at its centre point
    src, dst = G(Interval.open(1000, 1000.5), 0), G(Interval.closed(1000, 1001), 1)
    t = math.nextafter(0.25, 0)
    assert pair_path(src, dst, t) == G(Interval.point(1000.25), 1)
    assert pair_path(dst, src, math.nextafter(0.75, 1)) == G(Interval.point(1000.25), 1)
    assert pair_path(dst, src, 0.75) == G(Interval.point(1000.25), 1)
    # at the collapse a shrinking closed bar is the centre point exactly, not
    # x + (mid - x) with its rounding: here once a reversed bar, a ValueError
    F = parse_barcode("1 [-4.2210699996141525e+299,4.4942328371557893e+307]\n")
    H = parse_barcode("0 (-7.214844075832685e+299,-7.214843888934097e+299)\n")
    d, m = distance_with_matching(F, H)
    mid = H.bars[0].interval.center
    assert interpolate(F, H, m, d - H.bars[0].interval.width / 2) == Barcode(
        (G(Interval.point(mid), 1),))


def test_pair_path_cost_splits_exactly(rng):
    from sheafdist import pair_cost

    for _ in range(200):
        src = G(Interval.open(0, 2), 0)
        dst = G(Interval.closed(rng.uniform(-3, 3), rng.uniform(3, 6)), 1)
        c = pair_cost(src, dst)
        s, t = sorted((rng.uniform(0, c), rng.uniform(0, c)))
        ps, pt = pair_path(src, dst, s), pair_path(src, dst, t)
        assert pair_cost(src, ps) <= s + 1e-9
        assert pair_cost(ps, dst) <= c - s + 1e-9
        assert pair_cost(ps, pt) <= (t - s) + 1e-9


def test_pair_path_errors():
    with pytest.raises(ValueError):
        pair_path(G(Interval.open(0, 1)), G(Interval.right_open(0, 1)), 0.0)
    with pytest.raises(ValueError):
        pair_path(G(Interval.open(0, 1)), None, 0.0)
    with pytest.raises(ValueError):
        pair_path(G(Interval.closed(0, 1)), G(Interval.closed(0, 1)), 0.5)


def test_interpolate_circle_midpoint():
    F, Gb = parse_barcode(CIRCLE_F), parse_barcode(CIRCLE_G)
    _, matching = distance_with_matching(F, Gb)
    assert interpolate(F, Gb, matching, 0.5) == parse_barcode("0 [-0.5,0.5]\n0 (-0.5,0.5)\n")
    assert interpolate(F, Gb, matching, 0.0) == F
    assert interpolate(F, Gb, matching, 1.0) == Gb


def test_interpolate_errors():
    F = parse_barcode("0 (0,1)\n")
    value, matching = distance_with_matching(F, Barcode())
    assert value == INF
    with pytest.raises(ValueError):
        interpolate(F, Barcode(), matching, 0.0)
    Gb = parse_barcode("0 (0,2)\n")
    _, m = distance_with_matching(F, Gb)
    with pytest.raises(ValueError):
        interpolate(F, Gb, m, 2.0)
    # a matching computed for another G, at a time it would accept
    stale = parse_barcode("0 (0,1.5)\n")
    with pytest.raises(ValueError, match="not between"):
        interpolate(F, stale, m, 0.5)
    with pytest.raises(ValueError, match="not between"):
        interpolate(stale, Gb, m, 0.5)


def test_stale_matching_is_refused_before_any_bar_moves():
    # the pair [0,1) -> [0,1] has no finite path: pair_path would raise
    # "no finite path" if the multiset check did not run first
    a, b = G(Interval.right_open(0, 1)), G(Interval.closed(0, 1))
    stale = Matching(((a, b, 1.0),), 1.0)
    with pytest.raises(ValueError, match="no finite path"):
        pair_path(a, b, 0.5)
    for F, Gb in [(Barcode((a,)), parse_barcode("0 [0,2)\n")), (Barcode(), Barcode((b,)))]:
        with pytest.raises(ValueError) as exc:
            interpolate(F, Gb, stale, 0.5)
        assert str(exc.value) == "the matching is not between these two barcodes"


def test_entry_with_neither_bar_is_refused():
    # the multiset check counts no bar for it, so the plan must refuse it
    F = parse_barcode("0 [0,1)\n")
    (bar,) = F.bars
    m = Matching(((bar, None, 0.5), (None, None, 0.25)), 0.5)
    with pytest.raises(ValueError) as exc:
        interpolate(F, Barcode(), m, 0.1)
    assert str(exc.value) == "the matching lists (None, None, 0.25), an entry with neither bar"


def test_repeated_calls_equal_fresh_calls(rng):
    # calls on one (F, G, m), interleaved with calls on a second pair, give
    # bar for bar what the same calls on deep copies give: a copy is a new
    # object, so its plan is always worked out afresh
    for _ in range(40):
        pairs = []
        for _ in range(2):
            F = random_barcode(rng)
            Gb = perturbed_barcode(rng, F) if rng.random() < 0.7 else random_barcode(rng)
            eps, m = distance_with_matching(F, Gb)
            if eps < INF:
                pairs.append(((F, Gb, m), eps))
        if not pairs:
            continue
        calls = []
        for _ in range(8):
            args, eps = rng.choice(pairs)
            calls.append((args, rng.choice([0.0, eps, rng.uniform(0, eps)])))
        got = [interpolate(*args, t).bars for args, t in calls]
        fresh = [copy.deepcopy(args) for args, _ in calls]
        assert all(c[0] is not a[0] and c[2] is not a[2] for c, (a, _) in zip(fresh, calls))
        assert got == [interpolate(*c, t).bars for c, (_, t) in zip(fresh, calls)]


def test_stale_matching_is_refused_after_a_valid_call():
    F, Gb = parse_barcode("0 (0,1)\n"), parse_barcode("0 (0,2)\n")
    eps, m = distance_with_matching(F, Gb)
    _, stale = distance_with_matching(F, parse_barcode("0 (0,1.5)\n"))
    assert interpolate(F, Gb, m, 0.0) == F
    for _ in range(2):
        with pytest.raises(ValueError, match="not between"):
            interpolate(F, Gb, stale, 0.25)
    assert interpolate(F, Gb, m, eps) == Gb


def test_listed_cost_above_the_true_cost():
    # the pair costs 0.5 but is listed at 2: a t past 0.5 is refused as
    # pair_path refuses it, on the first call and on a repeated one
    p, q = G(Interval.closed(0, 1)), G(Interval.closed(0.5, 1))
    m = Matching(((p, q, 2.0),), 2.0)
    F, Gb = Barcode((p,)), Barcode((q,))
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            interpolate(F, Gb, m, 1.0)
        assert str(exc.value) == "t=1.0 outside [0, 0.5]"
    assert interpolate(F, Gb, m, 0.25) == Barcode((G(Interval.closed(0.25, 1)),))
    # with a later entry that has no finite path, the earlier entry's
    # error still comes first, as the entries are walked in order
    a, b = G(Interval.right_open(0, 1)), G(Interval.closed(0, 1))
    two = Matching(((p, q, 2.0), (a, b, 1.0)), 2.0)
    F, Gb = Barcode((p, a)), Barcode((q, b))
    for t, message in [(1.0, "t=1.0 outside [0, 0.5]"), (0.25, "no finite path")]:
        with pytest.raises(ValueError) as exc:
            interpolate(F, Gb, two, t)
        assert str(exc.value).startswith(message)


@pytest.mark.parametrize("listed, achieved, bound", [
    (0.25, 0.25, "below its cost 0.5"),  # once [0.25,1]@1 at t = 0.25 instead of G
    (0.5, 0.25, "above the value 0.25"),
])
def test_listed_cost_below_the_true_cost_or_above_the_value(listed, achieved, bound):
    p, q = G(Interval.closed(0, 1), 1), G(Interval.closed(0.5, 1), 1)
    m = Matching(((p, q, listed),), achieved)
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            interpolate(Barcode((p,)), Barcode((q,)), m, 0.25)
        assert str(exc.value) == f"the matching lists {p} -> {q} at {listed!r}, {bound}"


def test_endpoint_recovery_exact(rng):
    for _ in range(150):
        F = random_barcode(rng)
        Gb = perturbed_barcode(rng, F)
        value, matching = distance_with_matching(F, Gb)
        assert value < INF
        assert interpolate(F, Gb, matching, 0.0) == F
        assert interpolate(F, Gb, matching, value) == Gb


def test_path_is_one_lipschitz(rng):
    for _ in range(60):
        F = random_barcode(rng)
        Gb = perturbed_barcode(rng, F)
        eps, matching = distance_with_matching(F, Gb)
        if eps == 0:
            continue
        times = sorted(rng.uniform(0, eps) for _ in range(4))
        points = [interpolate(F, Gb, matching, t) for t in times]
        for t, U in zip(times, points):
            assert distance_with_matching(F, U)[0] <= t + 1e-9
            assert distance_with_matching(U, Gb)[0] <= eps - t + 1e-9
        for (s, Us), (t, Ut) in zip(zip(times, points), list(zip(times, points))[1:]):
            assert distance_with_matching(Us, Ut)[0] <= (t - s) + 1e-9


def test_deleted_bars_grow_back_in(rng):
    F = parse_barcode("0 [0,4)\n")
    Gb = parse_barcode("0 [0,4)\n0 [10,11)\n")
    eps, matching = distance_with_matching(F, Gb)
    assert eps == 0.5
    late = interpolate(F, Gb, matching, 0.4)
    assert len(late) == 2  # the new bar is already growing
    early = interpolate(F, Gb, matching, 0.0)
    assert early == F


def test_same_component():
    F, Gb = parse_barcode(CIRCLE_F), parse_barcode(CIRCLE_G)
    assert same_component(F, Gb)
    assert same_component(F, F)
    assert not same_component(parse_barcode("0 (0,1)\n"), Barcode())
