"""Smoothing of barcodes: convolution with the width-eps kernel.

For eps >= 0 the kernel thickens closed bars, shrinks open bars (an
open bar that shrinks to nothing collapses to a closed bar one degree
up), and translates half-open bars rigidly by eps.  Negative eps runs
the same rules backwards (the kernel is then an open ball placed one
degree down), so convolving by eps and then by -eps recovers the input
whenever no collapse intervened.

A note on the collapse: the result of shrinking the open bar (a,b) past
its half-width is the closed bar centred at (a+b)/2 with radius
eps - (b-a)/2, one degree higher.  (It is the centre of the bar that is
fixed by the operation; writing the result around (b-a)/2 instead is a
classic slip.)  ``stalk_type`` computes the same answer pointwise and
independently, from the window geometry alone.
"""

from __future__ import annotations

from .intervals import _LIMIT, INF, GradedInterval, Interval
from .barcode import Barcode


def convolve_interval(gi: GradedInterval, eps: float) -> GradedInterval:
    """Convolve one graded bar with the width-``eps`` kernel.

    Never empty for valid input; the degree moves by +1 exactly when an
    open bar collapses (eps >= half-width) and by -1 when a closed bar
    is over-shrunk (eps <= -half-width).  A result endpoint of magnitude
    2**1022 or more, which the parser would refuse, is a ValueError;
    infinite endpoints stay infinite.
    """
    iv, j = gi.interval, gi.degree
    lo, hi, lc, hc = iv
    if not lc and not hc:
        r = iv.width / 2.0
        if eps < r:
            lo, hi = lo + eps, hi - eps
        else:
            rad = eps - r
            c = iv.center
            lo, hi, lc, hc, j = c - rad, c + rad, True, True, j + 1
    elif lc and hc:
        r = iv.width / 2.0
        if eps >= -r:
            lo, hi = lo - eps, hi + eps
        else:
            rad = -eps - r
            c = iv.center
            lo, hi, lc, hc, j = c - rad, c + rad, False, False, j - 1
    elif lc:
        lo, hi = lo - eps, hi - eps
    else:
        lo, hi = lo + eps, hi + eps
    # an infinite end stays where it was; only a finite one can run out of range
    if not -_LIMIT < lo <= hi < _LIMIT and (
        (abs(lo) >= _LIMIT and iv.lo != -INF) or (abs(hi) >= _LIMIT and iv.hi != INF)
    ):
        raise ValueError(f"convolving {gi} by eps={eps!r} moves an endpoint to 2**1022 or beyond")
    return GradedInterval(Interval(lo, hi, lc, hc), j)


def convolve_barcode(b: Barcode, eps: float) -> Barcode:
    return Barcode(tuple(convolve_interval(g, eps) for g in b))


def stalk_type(gi: GradedInterval, eps: float, x: float) -> dict[int, int]:
    """Pointwise oracle for ``convolve_interval``.

    Intersects the bar with the window of radius ``|eps|`` around ``x``
    (closed window for eps >= 0, open window one degree down for
    eps < 0) and reads off the local contribution: a compact piece sits
    at relative degree 0, an open piece at relative degree 1, a
    half-open piece contributes nothing.
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
