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

Same-type costs are the L-infinity distance of the endpoint pairs.  The
cross-degree cost ``r + max(c - x, y - c)`` of ``(a,b)@m`` with
``[x,y]@m+1`` (r the half-width and c the centre of ``(a,b)``) equals
the directed form ``max(b - x, y - a)`` in exact arithmetic only: in
floating point the two roundings differ on about 30% of random
off-grid pairs, so code that must reproduce ``pair_cost`` bit for bit
uses this formula.
"""

from __future__ import annotations

import math

from .intervals import INF, GradedInterval, Kind, classify


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
            r = u.interval.width / 2.0
            c = u.interval.center
            return r + max(c - s.interval.lo, s.interval.hi - c)
    return INF


def deletion_cost(a: GradedInterval) -> float:
    kind = classify(a.interval)
    if kind in (Kind.C_OPEN, Kind.C_CLOSED):
        return INF
    if not a.interval.bounded:
        return INF
    return a.interval.width / 2.0
