import pytest

from conftest import perturbed_barcode, random_barcode
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
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
