"""Matching costs between individual bars.

``pair_cost`` is the sup-style cost of matching two bars; ``deletion_cost``
is the cost of matching a bar to nothing.  Costs are nonnegative floats
with ``math.inf`` for impossible matches; NaN never occurs.

Matchable combinations: two bars of the same CLR type in the same
degree, and the cross-degree pair of a bounded open bar in degree m with
a bounded closed bar in degree m+1 (the collapse pairing).  Everything
else costs ``inf``.  Only bounded half-open bars can be deleted, at half
their width; central bars admit no deletion at any cost (their global
sections obstruct it).

Every finite cost is an L-infinity distance between plane points
(``point``): ``[x,y]`` sits at ``(x,y)`` and ``(a,b)`` at ``(b,a)``, so
the collapse pairing of ``(a,b)@m`` with ``[x,y]@m+1`` costs
``max(b - x, y - a)``, correctly rounded like every finite cost.
"""

from __future__ import annotations

import math

from .intervals import INF, GradedInterval, Interval, Kind, classify


def _endpoint_gap(x: float, y: float) -> float:
    # matching infinities are free, an infinity never matches a finite value
    if x == y:
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return INF
    return abs(x - y)


def pair_cost(a: GradedInterval, b: GradedInterval) -> float:
    ka, kb = classify(a.interval), classify(b.interval)
    if ka == kb and a.degree == b.degree:
        return max(
            _endpoint_gap(a.interval.lo, b.interval.lo),
            _endpoint_gap(a.interval.hi, b.interval.hi),
        )
    if {ka, kb} == {Kind.C_OPEN, Kind.C_CLOSED}:
        u, s = (a, b) if ka is Kind.C_OPEN else (b, a)
        if s.degree == u.degree + 1:
            return max(abs(u.interval.hi - s.interval.lo), abs(u.interval.lo - s.interval.hi))
    return INF


def deletion_cost(a: GradedInterval) -> float:
    kind = classify(a.interval)
    if kind in (Kind.C_OPEN, Kind.C_CLOSED):
        return INF
    if not a.interval.bounded:
        return INF
    return a.interval.width / 2.0


def point(iv: Interval) -> tuple[int, float, float]:
    """Shape class and plane point of a bar.  Two bars of one slot have
    a finite ``pair_cost`` exactly when they share a class, and it is the
    L-infinity distance of their points.  Class 4 is the central bars;
    half-open bars keep their ends in class 0 (bounded, the only
    deletable class), 1 (ray to -inf), 2 (ray to inf) or 3 (the line),
    an infinite end mapped to 0."""
    lo, hi = iv.lo, iv.hi
    if iv.bounded and iv.lo_closed == iv.hi_closed:
        return (4, lo, hi) if iv.lo_closed else (4, hi, lo)
    return (lo == -INF) + 2 * (hi == INF), (lo if lo > -INF else 0.0), (hi if hi < INF else 0.0)
