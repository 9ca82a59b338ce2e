"""Smoothing of barcodes: convolution with the width-eps kernel.

Every bar is a point of its slot's plane (``intervals.point``), and
convolving by eps translates that point: by ``(-eps, +eps)`` in a central
slot, which thickens closed bars and shrinks open ones, and by ``-eps``
(R) or ``+eps`` (L) on both axes, which moves half-open bars rigidly.
``intervals.bar_at`` reads the moved point back as a bar, so an open bar
whose point crosses the diagonal becomes the closed bar one degree up,
and a closed bar over-shrunk by a negative eps the open bar one degree
down.  Convolving by eps and then by -eps moves the point back where it
was.

Each finite end is one rounded sum of an end and eps, so it is the
correctly rounded exact end.  The collapse is centred: the open bar
(a,b) smoothed past its half-width is ``[b-eps, a+eps]``, the closed bar
around its centre (a+b)/2 with radius eps - (b-a)/2, one degree higher.
``stalk_type`` computes the same answer pointwise and independently,
from the window geometry alone.
"""

from __future__ import annotations

from itertools import repeat

from .intervals import _LIMIT, GradedInterval, Interval, bar_at, point
from .barcode import Barcode


def convolve_interval(gi: GradedInterval, eps: float) -> GradedInterval:
    """Convolve one graded bar with the width-``eps`` kernel.

    The degree moves by +1 exactly when an open bar's point reaches the
    diagonal (eps >= half-width) and by -1 when a closed bar's point
    crosses it (eps < -half-width), both as the rounded ends decide.  A
    result endpoint of magnitude 2**1022 or more, which the parser would
    refuse, is a ValueError, and so is a half-open bar whose ends round
    onto each other or a result whose degree has more digits than the
    readers take (4,299); each names the bar and eps.  ``bar_at`` refuses
    all three; only then is the range tested, to tell them apart.
    Infinite endpoints stay infinite.
    """
    slot, cls, u, v = point(gi)
    side = slot[0]
    if side == "central":
        u, v = u - eps, v + eps
    elif side == "R":
        u, v = u - eps, v - eps
    else:
        u, v = u + eps, v + eps
    try:
        return bar_at(slot, cls, u, v)
    except ValueError as exc:
        # bar_at refuses every finite end at 2**1022 or beyond; the coordinate
        # of an infinite end is ignored, so only a finite one runs out of range
        if (abs(u) >= _LIMIT and not cls & 1) or (abs(v) >= _LIMIT and not cls & 2):
            raise ValueError(f"convolving {gi} by eps={eps!r} moves an endpoint "
                             "to 2**1022 or beyond") from None
        raise ValueError(f"convolving {gi} by eps={eps!r}: {exc}") from None


def convolve_barcode(b: Barcode, eps: float) -> Barcode:
    return Barcode(tuple(map(convolve_interval, b.bars, repeat(eps))))


def stalk_type(gi: GradedInterval, eps: float, x: float) -> dict[int, int]:
    """Pointwise oracle for ``convolve_interval``.

    Intersects the bar with the window of radius ``|eps|`` around ``x``
    (closed window for eps >= 0, open window one degree down for
    eps < 0) and reads off the local contribution: a compact piece sits
    at relative degree 0, an open piece at relative degree 1, a
    half-open piece contributes nothing.  A window out of range is a
    ValueError.
    """
    if eps >= 0:
        window = Interval(x - eps, x + eps, True, True)
    else:
        window = Interval(x + eps, x - eps, False, False)
    piece = gi.interval.intersection(window)
    if piece is None:
        return {}
    if piece.lo_closed and piece.hi_closed:
        rel = 0
    elif not piece.lo_closed and not piece.hi_closed:
        rel = 1
    else:
        return {}
    if eps < 0:
        rel -= 1
    return {gi.degree + rel: 1}
