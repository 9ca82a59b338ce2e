"""Geodesics between barcodes at finite distance.

Given an optimal matching achieving distance eps, each matched pair (and
each deleted bar) is moved along an explicit path whose cost from either
end is exactly proportional to elapsed time; the union over pairs is a
barcode U_t with d(F, U_t) <= t and d(U_t, G) <= eps - t, and
d(U_s, U_t) <= |s - t| along the way.

Paths per pair: same-shape pairs interpolate endpoints linearly.  A pair
of an open bar with a closed bar one degree up shrinks the open bar to
its centre point first (reaching it at t = half-width) and then grows
the closed bar linearly onto the target.  A deleted half-open bar
shrinks symmetrically into its midpoint and vanishes there; deletions on
the far side run the same movie backwards.
"""

from __future__ import annotations

from .barcode import Barcode
from .costs import deletion_cost, pair_cost
from .intervals import INF, GradedInterval, Interval
from .matching import Matching, distance_with_matching


def _lerp(x: float, y: float, theta: float) -> float:
    if x == y:
        return x  # keeps infinities (and exact values) intact
    return x + theta * (y - x)


def _lerp_interval(a: Interval, b: Interval, theta: float) -> Interval:
    return Interval(
        _lerp(a.lo, b.lo, theta), _lerp(a.hi, b.hi, theta), a.lo_closed, a.hi_closed
    )


def _shrink_halfopen(g: GradedInterval, t: float, c: float) -> GradedInterval | None:
    if t >= c:
        return None
    lo, hi = g.interval.lo + t, g.interval.hi - t
    if lo >= hi:
        return None  # guards float round-off right at the collapse time
    return GradedInterval(
        Interval(lo, hi, g.interval.lo_closed, g.interval.hi_closed), g.degree
    )


def pair_path(
    source: GradedInterval, target: GradedInterval | None, t: float
) -> GradedInterval | None:
    """Position at time ``t`` of the path from ``source`` to ``target``
    (``target=None`` means the bar is being deleted).

    Defined for 0 <= t <= c where c is the pair or deletion cost, which
    must be finite.  Returns None once a deleted bar has vanished.
    """
    if target is None:
        c = deletion_cost(source)
        if c == INF:
            raise ValueError(f"cannot delete {source}")
        if not 0 <= t <= c:
            raise ValueError(f"t={t} outside [0, {c}]")
        if t == 0:
            return source
        return _shrink_halfopen(source, t, c)

    c = pair_cost(source, target)
    if c == INF:
        raise ValueError(f"no finite path from {source} to {target}")
    if not 0 <= t <= c:
        raise ValueError(f"t={t} outside [0, {c}]")
    if t == 0 or c == 0:
        return source
    if t == c:
        return target

    # finite cost: one degree is one shape, else open meets closed one up
    if source.degree == target.degree:
        theta = t / c
        return GradedInterval(
            _lerp_interval(source.interval, target.interval, theta), source.degree
        )
    if source.degree < target.degree:
        # shrink to the centre point, then grow onto the closed target
        r = source.interval.width / 2.0
        mid = source.interval.center
        if t < r:
            return GradedInterval(
                Interval.open(source.interval.lo + t, source.interval.hi - t),
                source.degree,
            )
        theta = (t - r) / (c - r) if c > r else 1.0
        return GradedInterval(
            Interval.closed(
                _lerp(mid, target.interval.lo, theta),
                _lerp(mid, target.interval.hi, theta),
            ),
            target.degree,
        )
    # closed source, open target: the reverse movie
    r = target.interval.width / 2.0
    mid = target.interval.center
    if t <= c - r:
        theta = t / (c - r) if c > r else 1.0
        return GradedInterval(
            Interval.closed(
                _lerp(source.interval.lo, mid, theta),
                _lerp(source.interval.hi, mid, theta),
            ),
            source.degree,
        )
    rad = t - (c - r)
    return GradedInterval(Interval.open(mid - rad, mid + rad), target.degree)


def interpolate(F: Barcode, G: Barcode, matching: Matching, t: float) -> Barcode:
    """Barcode at time ``t`` along the geodesic the matching describes.

    ``matching`` must achieve a finite value eps and 0 <= t <= eps, and
    its bars must be exactly the multisets F and G (``ValueError``
    otherwise, for instance for a matching computed for other barcodes).
    Pairs that finish early stay at their target; deleted bars from G
    grow in as time runs out.  t = 0 and t = eps reproduce F and G
    exactly.
    """
    eps = matching.achieved
    if eps == INF:
        raise ValueError("cannot interpolate across an infinite distance")
    if not 0 <= t <= eps:
        raise ValueError(f"t={t} outside [0, {eps}]")
    pairs = matching.central_pairs + matching.halfopen_pairs
    src = [l for *_, l, _, _ in pairs]
    dst = [r for *_, r, _ in pairs]
    for _, _, origin, bar, _ in matching.deletions:
        (src if origin == "left" else dst).append(bar)
    if Barcode(tuple(src)) != F or Barcode(tuple(dst)) != G:
        raise ValueError("the matching is not between these two barcodes")
    bars = []
    for *_, l, r, c in pairs:
        bars.append(pair_path(l, r, min(t, c)))
    for _, _, origin, bar, c in matching.deletions:
        te = min(t, c) if origin == "left" else min(eps - t, c)
        moved = pair_path(bar, None, te)
        if moved is not None:
            bars.append(moved)
    return Barcode(tuple(bars))


def same_component(F: Barcode, G: Barcode) -> bool:
    """Whether a continuous path between the barcodes exists, i.e. the
    distance is finite."""
    return distance_with_matching(F, G)[0] < INF
