import itertools

import pytest

from sheafdist import (
    GradedInterval,
    Interval,
    convolve_interval,
    ext_oracle,
    generator_composite_nonzero,
    hom_dim,
    pair_cost,
)
from sheafdist.homs import _src_shape, _tgt_shape
from sheafdist.intervals import INF


def G(iv: Interval, degree: int = 0) -> GradedInterval:
    return GradedInterval(iv, degree)


def grid_intervals(finite=(0.0, 1.0, 2.0, 3.0), rays: bool = True) -> list[Interval]:
    out = []
    for a, b in itertools.combinations(finite, 2):
        for lc in (True, False):
            for hc in (True, False):
                out.append(Interval(a, b, lc, hc))
    out.extend(Interval.point(v) for v in finite)
    if rays:
        for v in finite:
            out.append(Interval.right_open(v, INF))
            out.append(Interval.open(v, INF))
            out.append(Interval.open(-INF, v))
            out.append(Interval.left_open(-INF, v))
        out.append(Interval.line())
    return out


# ---------------------------------------------------------------------
# degree 0: reference table, spelled out entry by entry
# ---------------------------------------------------------------------

def reference_hom0(s: Interval, t: Interval) -> int:
    a, b, c, d = s.lo, s.hi, t.lo, t.hi
    table = {
        ("open", "open"): c <= a and b <= d,
        ("open", "closed"): a < d and c < b,
        ("open", "ro"): c < b <= d,
        ("open", "lo"): c <= a < d,
        ("closed", "closed"): a <= c and d <= b,
        ("ro", "closed"): a <= c < b,
        ("ro", "ro"): a <= c < b <= d,
        ("lo", "closed"): a < d <= b,
        ("lo", "lo"): c <= a < d <= b,
    }
    return 1 if table.get((_src_shape(s), _tgt_shape(t)), False) else 0


def test_hom0_matches_reference_table_on_grid():
    ivs = grid_intervals()
    for s in ivs:
        for t in ivs:
            assert hom_dim(G(s), G(t)) == reference_hom0(s, t), (str(s), str(t))


def _mirror(iv: Interval) -> Interval:
    lo = -iv.hi if iv.hi != INF else -INF
    hi = -iv.lo if iv.lo != -INF else INF
    return Interval(lo, hi, iv.hi_closed, iv.lo_closed)


def _flip_flags(iv: Interval) -> Interval:
    lc = iv.lo_closed if iv.lo == -INF else not iv.lo_closed
    hc = iv.hi_closed if iv.hi == INF else not iv.hi_closed
    try:
        return Interval(iv.lo, iv.hi, lc, hc)
    except ValueError:
        return iv  # points have no open twin


def test_hom0_mirror_symmetry():
    ivs = grid_intervals()
    for s in ivs:
        for t in ivs:
            assert hom_dim(G(s), G(t)) == hom_dim(G(_mirror(s)), G(_mirror(t)))


def test_hom0_open_closed_duality():
    # reversing arrows and swapping open/closed flags preserves dimensions
    ivs = [iv for iv in grid_intervals(rays=False) if not iv.is_point]
    for s in ivs:
        for t in ivs:
            assert hom_dim(G(s), G(t)) == hom_dim(G(_flip_flags(t)), G(_flip_flags(s)))


def test_hom0_spec_examples():
    assert hom_dim(G(Interval.open(0, 2)), G(Interval.closed(1, 3))) == 1
    assert hom_dim(G(Interval.closed(0, 1)), G(Interval.open(0, 2))) == 0
    assert hom_dim(G(Interval.left_open(0, 1)), G(Interval.closed(0, 1))) == 1
    assert hom_dim(G(Interval.left_open(0, 1)), G(Interval.closed(5, 9))) == 0


def test_identity_morphisms_exist():
    for iv in grid_intervals():
        assert hom_dim(G(iv), G(iv)) == 1, str(iv)


# ---------------------------------------------------------------------
# degree 1: oracle agreement and the documented boundary cases
# ---------------------------------------------------------------------

def test_hom1_spec_examples():
    assert hom_dim(G(Interval.closed(1, 2), 0), G(Interval.open(0, 3), 1)) == 1
    assert hom_dim(G(Interval.open(0, 3), 0), G(Interval.closed(1, 2), 1)) == 0


def test_hom1_matches_ext_oracle_everywhere_bounded():
    ivs = grid_intervals(rays=False)
    for s in ivs:
        for t in ivs:
            assert hom_dim(G(s, 0), G(t, 1)) == ext_oracle(G(s, 0), G(t, 1)), (str(s), str(t))


def test_hom0_matches_ext_oracle_everywhere_bounded():
    ivs = grid_intervals(rays=False)
    for s in ivs:
        for t in ivs:
            assert hom_dim(G(s, 0), G(t, 0)) == ext_oracle(G(s, 0), G(t, 0)), (str(s), str(t))


def test_degree1_touching_extensions():
    # 0 -> k(1,2) -> k[0,2) -> k[0,1] -> 0 forces a nonzero degree-1 hom
    assert hom_dim(G(Interval.closed(0, 1), 0), G(Interval.open(1, 2), 1)) == 1
    assert ext_oracle(G(Interval.closed(0, 1), 0), G(Interval.open(1, 2), 1)) == 1
    # flush closed pairs split, so the degree-1 hom vanishes
    assert hom_dim(G(Interval.closed(0, 1), 0), G(Interval.closed(0, 2), 1)) == 0
    # disjoint closures kill every morphism space
    assert hom_dim(G(Interval.closed(5, 9), 0), G(Interval.right_open(0, 2), 1)) == 0


def test_shift_outside_0_1_vanishes(rng):
    from conftest import random_graded

    for _ in range(300):
        s, t = random_graded(rng), random_graded(rng)
        if t.degree - s.degree not in (0, 1):
            assert hom_dim(s, t) == 0
    s = G(Interval.closed(0, 1), 0)
    for shift in (-2, -1, 2, 3):
        assert hom_dim(s, G(Interval.closed(0, 1), shift)) == 0


# ---------------------------------------------------------------------
# ext oracle plumbing
# ---------------------------------------------------------------------

def test_ext_oracle_spec_examples():
    assert ext_oracle(G(Interval.closed(1, 2), 0), G(Interval.open(0, 3), 1)) == 1
    assert ext_oracle(G(Interval.open(0, 1), 0), G(Interval.open(0, 1), 0)) == 1
    assert ext_oracle(G(Interval.closed(0, 1), 0), G(Interval.open(1, 2), 1)) == 1


def test_ext_oracle_rejects_unbounded_and_bad_shifts():
    with pytest.raises(ValueError):
        ext_oracle(G(Interval.right_open(0, INF), 0), G(Interval.closed(0, 1), 1))
    with pytest.raises(ValueError):
        ext_oracle(G(Interval.closed(0, 1), 0), G(Interval.closed(0, 1), 2))


def test_generator_composites():
    assert generator_composite_nonzero(
        Interval.open(0, 2), Interval.closed(1, 3), Interval.point(1)
    )
    assert generator_composite_nonzero(
        Interval.open(0, 1), Interval.open(0, 1), Interval.open(0, 1)
    )
    assert not generator_composite_nonzero(
        Interval.open(0, 2), Interval.closed(1, 3), Interval.point(3)
    )
    with pytest.raises(ValueError):
        generator_composite_nonzero(
            Interval.closed(0, 1), Interval.open(0, 2), Interval.open(0, 2)
        )


# ---------------------------------------------------------------------
# consistency with matching costs
# ---------------------------------------------------------------------

def test_interleaving_maps_exist_at_pair_cost(rng):
    """For a matchable pair at cost eps, both interleaving morphism spaces
    are nonzero (queried at the degree shift each map actually has).

    Half-open pairs are kept within half their overlap so the canonical
    comparison maps have not yet died.
    """
    from conftest import dyadic

    checked = 0
    while checked < 200:
        a = dyadic(rng)
        w = dyadic(rng, 1, 3)
        shape = rng.randrange(4)
        if shape == 0:
            src = G(Interval.closed(a, a + w), 0)
            dst = G(Interval.closed(a + 0.25, a + w + 0.125), 0)
        elif shape == 1:
            src = G(Interval.open(a, a + w), 0)
            dst = G(Interval.open(a - 0.125, a + w + 0.25), 0)
        elif shape == 2:
            src = G(Interval.right_open(a, a + w), 0)
            dst = G(Interval.right_open(a + 0.25, a + w + 0.25), 0)
        else:
            src = G(Interval.open(a, a + w), 0)
            mid = (2 * a + w) / 2
            dst = G(Interval.closed(mid - 0.125, mid + 0.25), 1)
        eps = pair_cost(src, dst)
        assert eps != INF
        conv_s = convolve_interval(src, eps)
        conv_d = convolve_interval(dst, eps)
        # the map conv(X)@i -> Y@j lives at table shift i - j
        fwd_shift = conv_s.degree - dst.degree
        bwd_shift = conv_d.degree - src.degree
        assert hom_dim(G(conv_s.interval, 0), G(dst.interval, fwd_shift)) == 1, (src, dst)
        assert hom_dim(G(conv_d.interval, 0), G(src.interval, bwd_shift)) == 1, (src, dst)
        checked += 1
