"""Matching costs between individual bars.

``pair_cost`` is the sup-style cost of matching two bars; ``deletion_cost``
is the cost of matching a bar to nothing.  Costs are nonnegative floats
with ``math.inf`` for impossible matches; NaN never occurs.

Both read ``intervals.point``.  Two bars match at finite cost exactly
when they share its slot and shape class, and the cost is the
L-infinity distance of their points: two bars of one CLR type and
degree pay their larger endpoint gap, and the collapse pairing of
``(a,b)@m`` with ``[x,y]@m+1`` costs ``max(b - x, y - a)``, correctly
rounded like every finite cost.  Everything else costs ``inf``.  Only
bounded half-open bars (class 0) can be deleted, at half their width;
central bars admit no deletion at any cost (their global sections
obstruct it).
"""

from __future__ import annotations

from .intervals import INF, GradedInterval, point


def pair_cost(a: GradedInterval, b: GradedInterval) -> float:
    slot_a, cls_a, ua, va = point(a)
    slot_b, cls_b, ub, vb = point(b)
    if cls_a != cls_b or slot_a != slot_b:
        return INF
    return max(abs(ua - ub), abs(va - vb))


def deletion_cost(a: GradedInterval) -> float:
    _, cls, u, v = point(a)
    return (v - u) / 2.0 if cls == 0 else INF
