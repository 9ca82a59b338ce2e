"""Geodesics between barcodes at finite distance.

Given an optimal matching achieving distance eps, each matched pair (and
each deleted bar) is moved along an explicit path whose cost from either
end is exactly proportional to elapsed time; the union over pairs is a
barcode U_t with d(F, U_t) <= t and d(U_t, G) <= eps - t, and
d(U_s, U_t) <= |s - t| along the way.

Paths run in the plane of ``intervals.point``, where every cost is an
L-infinity distance, and ``intervals.bar_at`` reads each position back
as a bar.  A pair of one shape moves its point along the straight line
to the target's.  An open bar paired with a closed bar one degree up
moves its point to the diagonal at unit speed, reaching the open bar's
centre at t = half-width, where it becomes the closed point one degree
up, and then straight on to the target; the reverse pair runs the same
movie backwards.  A deleted half-open bar moves its point toward the
diagonal at unit speed and vanishes there; deletions on the far side run
the same movie backwards.
"""

from __future__ import annotations

from .barcode import Barcode
from .costs import deletion_cost, pair_cost
from .intervals import INF, GradedInterval, bar_at, point
from .matching import Matching


def _lerp(x: float, y: float, theta: float) -> float:
    if x == y:
        return x  # x + 0.0 would turn -0.0 into 0.0
    return x + theta * (y - x)


def _cost(source: GradedInterval, target: GradedInterval | None) -> float:
    """The deletion cost of ``source`` (``target=None``) or the cost of the
    pair; ``ValueError`` when it is infinite."""
    if target is None:
        c = deletion_cost(source)
        if c == INF:
            raise ValueError(f"cannot delete {source}")
        return c
    c = pair_cost(source, target)
    if c == INF:
        raise ValueError(f"no finite path from {source} to {target}")
    return c


def _move(
    source: GradedInterval, target: GradedInterval | None, c: float, t: float
) -> GradedInterval | None:
    """Position at time ``0 <= t <= c`` on the path of finite cost ``c``."""
    if t == 0 or c == 0:
        return source
    if t == c:
        return target  # None for a deleted bar, which has vanished
    slot, cls, u, v = point(source)
    if target is None:  # toward the diagonal, gone on reaching it
        u, v = u + t, v - t
        return None if u >= v else bar_at(slot, cls, u, v)
    _, _, x, y = point(target)
    # finite cost: one degree is one shape, else open meets closed one up
    if source.degree == target.degree:
        theta = t / c
        return bar_at(slot, cls, _lerp(u, x, theta), _lerp(v, y, theta))
    if source.degree < target.degree:
        # to the diagonal at the centre point, then on to the closed target
        r = (u - v) / 2.0
        if t < r and v + t < u - t:  # round-off can close the gap just before r
            return bar_at(slot, cls, u - t, v + t)
        mid = (v + u) / 2.0
        theta = max(t - r, 0.0) / (c - r) if c > r else 1.0
        return bar_at(slot, cls, _lerp(mid, x, theta), _lerp(mid, y, theta))
    # closed source, open target: the reverse movie
    r = (x - y) / 2.0
    mid = (y + x) / 2.0
    rad = t - (c - r)
    if rad > 0 and mid - rad < mid + rad:  # round-off can close the gap just after c - r
        return bar_at(slot, cls, mid + rad, mid - rad)
    if rad >= 0:  # the centre point: x + (mid - x) need not round to mid
        return bar_at(slot, cls, mid, mid)
    theta = t / (c - r)
    return bar_at(slot, cls, _lerp(u, mid, theta), _lerp(v, mid, theta))


def pair_path(
    source: GradedInterval, target: GradedInterval | None, t: float
) -> GradedInterval | None:
    """Position at time ``t`` of the path from ``source`` to ``target``
    (``target=None`` means the bar is being deleted).

    Defined for 0 <= t <= c where c is the pair or deletion cost, which
    must be finite.  Returns None once a deleted bar has vanished.
    """
    c = _cost(source, target)
    if not 0 <= t <= c:
        raise ValueError(f"t={t} outside [0, {c}]")
    return _move(source, target, c, t)


# (F, G, matching, plan) of the latest interpolate call whose matching
# passed the multiset check
_last: tuple = (None, None, None, ())


def _positions(plan, eps: float, t: float) -> list[GradedInterval]:
    """The bars at time ``t`` of the plan's rows, in row order."""
    bars = []
    for source, target, listed, c, right in plan:
        te = eps - t if right else t
        if listed < te:  # a pair that finished early stays at its target
            te = listed
        if not 0 <= te <= c:
            raise ValueError(f"t={te} outside [0, {c}]")
        # a finished entry is its target (None for a deletion), as ``_move`` returns
        moved = target if te == c != 0 else _move(source, target, c, te)
        if moved is not None:
            bars.append(moved)
    return bars


def interpolate(F: Barcode, G: Barcode, matching: Matching, t: float) -> Barcode:
    """Barcode at time ``t`` along the geodesic the matching describes.

    ``matching`` must achieve a finite value eps and 0 <= t <= eps, and
    its bars must be exactly the multisets F and G (``ValueError``
    otherwise, for instance for a matching computed for other barcodes).
    An entry listed below its true cost, or above eps, or with neither
    bar, is a ValueError.
    Pairs that finish early stay at their target; deleted bars from G
    grow in as time runs out.  t = 0 and t = eps reproduce F and G
    exactly.  A ``_lerp`` that rounds onto 2**1022, which only ends within
    one ulp of it could meet, would be ``Interval``'s ValueError.

    The multiset check and the cost of every entry are worked out once
    per ``(F, G, matching)``: the latest triple and its plan are kept
    (one strong reference each), and a call with the very same three
    objects, as when one geodesic is sampled at many times, reuses them.
    ``Barcode`` and the ``Matching`` that ``distance_with_matching``
    returns are immutable, so the same objects give the same plan.
    """
    global _last
    pairs, eps = matching
    if eps == INF:
        raise ValueError("cannot interpolate across an infinite distance")
    if not 0 <= t <= eps:
        raise ValueError(f"t={t} outside [0, {eps}]")
    last = _last
    if last[0] is F and last[1] is G and last[2] is matching:
        return Barcode(tuple(_positions(last[3], eps, t)))
    if (Barcode(tuple(l for l, _, _ in pairs if l is not None)) != F
            or Barcode(tuple(r for _, r, _ in pairs if r is not None)) != G):
        raise ValueError("the matching is not between these two barcodes")
    plan = []
    for l, r, listed in pairs:
        source, target, right = (r, None, True) if l is None else (l, r, False)
        try:
            if source is None:
                raise ValueError(f"the matching lists {(l, r, listed)!r}, an entry with neither bar")
            c = _cost(source, target)
            if not c <= listed <= eps:  # a pair listed too low would stop short of its target
                what = f"the deletion of {source}" if target is None else f"{source} -> {target}"
                bound = f"below its cost {c!r}" if listed < c else f"above the value {eps!r}"
                raise ValueError(f"the matching lists {what} at {listed!r}, {bound}")
        except ValueError:
            _positions(plan, eps, t)  # an earlier entry's t-range error comes first
            raise
        plan.append((source, target, listed, c, right))
    _last = (F, G, matching, plan)
    return Barcode(tuple(_positions(plan, eps, t)))
