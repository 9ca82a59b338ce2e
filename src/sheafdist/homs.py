"""Dimensions of morphism spaces between interval sheaves on the line.

``hom_dim(I@i -> J@j)`` is the dimension (0 or 1) of the space of
morphisms from the interval sheaf on I to the interval sheaf on J
shifted by ``j - i`` degrees.  Only shifts 0 and 1 can be nonzero;
everything else vanishes identically.

The degree-0 rules are the classical case-by-case table over the four
boundary shapes.  An interval with an infinite bound can be written in
more than one shape; the convention here is that such a bound reads as
*open* on the source side and as *closed* on the target side (so
``(a,inf)`` is an open source but an ``(a,b]``-shaped target, and the
full line is an open source but a closed target).  ``_src_shape`` and
``_tgt_shape`` hold it, and nothing outside this module reads them.

One degree-0 cell is easy to get wrong: a left-open source into a
closed target, ``(a,b] -> [c,d]``, needs ``a < d <= b`` (the mirror
image of the right-open rule ``a <= c < b``), not ``a < b <= d``, which
would relate sheaves with disjoint supports such as ``(0,1] -> [5,9]``.

The degree-1 rules are computed, not guessed: the test oracle
``ext_oracle`` (in ``tests/oracles.py``, outside the package) resolves
the source by open intervals and the target by closed ones and takes
H^0 of the totalized hom complex.  Around boundary-touching
configurations the resulting dimensions differ from the naive
"interiors overlap" intuition.  ``docs/hom_boundary_cases.md`` lists
every such class with a witness extension, and
``tests/test_acceptance.py`` holds the list against ``ext_oracle`` on
the grid.

Global sections are morphisms too, and ``global_sections`` reads them off
the tables against the full line: Gamma(R;F) = Hom(k_R, F), and by Verdier
duality (omega_R = k_R[1]) Gamma_c(R;F) is dual to Hom(F, k_R[1]).
"""

from __future__ import annotations

from .barcode import Barcode
from .intervals import INF, GradedInterval, Interval


def _src_shape(iv: Interval) -> str:
    """Boundary shape of a morphism source: "closed", "ro" (``[a,b)``),
    "lo" (``(a,b]``) or "open".  Infinite bounds are stored open, which
    is exactly the source reading."""
    if iv.lo_closed and iv.hi_closed:
        return "closed"
    if iv.lo_closed:
        return "ro"
    if iv.hi_closed:
        return "lo"
    return "open"


def _tgt_shape(iv: Interval) -> str:
    """Boundary shape of a morphism target: an infinite bound reads as
    closed."""
    lc = iv.lo_closed or iv.lo == -INF
    hc = iv.hi_closed or iv.hi == INF
    if lc and hc:
        return "closed"
    if lc:
        return "ro"
    if hc:
        return "lo"
    return "open"


def _hom0(src: Interval, tgt: Interval) -> int:
    a, b = src.lo, src.hi
    c, d = tgt.lo, tgt.hi
    row, col = _src_shape(src), _tgt_shape(tgt)
    if row == "open":
        if col == "open":
            ok = c <= a and b <= d            # U inside V
        elif col == "closed":
            ok = a < d and c < b              # U meets T
        elif col == "ro":
            ok = c < b <= d
        else:
            ok = c <= a < d
    elif row == "closed":
        ok = col == "closed" and a <= c and d <= b   # T inside S
    elif row == "ro":
        if col == "closed":
            ok = a <= c < b
        elif col == "ro":
            ok = a <= c < b <= d
        else:
            ok = False
    else:  # row == "lo"
        if col == "closed":
            ok = a < d <= b
        elif col == "lo":
            ok = c <= a < d <= b
        else:
            ok = False
    return 1 if ok else 0


def _hom1(src: Interval, tgt: Interval) -> int:
    a, b = src.lo, src.hi
    c, d = tgt.lo, tgt.hi
    row, col = _src_shape(src), _tgt_shape(tgt)
    if row == "open":
        ok = col == "open" and a < c and d < b       # closure of V inside U
    elif row == "closed":
        if col == "open":
            ok = c <= b and a <= d                   # closures meet
        elif col == "closed":
            ok = c < a and b < d                     # S strictly inside (c,d)
        elif col == "ro":
            ok = c < a and a <= d
        else:
            ok = b < d and c <= b
    elif row == "ro":
        if col == "open":
            ok = a <= d < b
        elif col == "ro":
            ok = c < a <= d < b
        else:
            ok = False
    else:  # row == "lo"
        if col == "open":
            ok = a < c <= b
        elif col == "lo":
            ok = a < c <= b < d
        else:
            ok = False
    return 1 if ok else 0


def hom_dim(source: GradedInterval, target: GradedInterval) -> int:
    """Dimension of the degree-shift ``target.degree - source.degree``
    morphism space; 0 whenever the shift is outside {0, 1}."""
    shift = target.degree - source.degree
    if shift == 0:
        return _hom0(source.interval, target.interval)
    if shift == 1:
        return _hom1(source.interval, target.interval)
    return 0


_LINE = Interval.line()  # the support of the constant sheaf k_R


def global_sections(b: Barcode, compact_support: bool = False) -> dict[int, int]:
    """Graded dimensions of (compactly supported) global sections.

    A bar ``I@d`` adds 1 to degree ``d + k`` of Gamma = Hom(k_R, F) when
    ``(_hom0, _hom1)[k](line, I)`` is 1, and to degree ``d + 1 - k`` of
    Gamma_c, dual to Hom(F, k_R[1]), when ``(_hom0, _hom1)[k](I, line)``
    is 1: a closed bar counts in its own degree, an open bar one up, a
    half-open bar nowhere, and a ray's infinite bound reads as its side
    reads it (closed as Gamma's target, open as Gamma_c's source).  Two
    barcodes at finite distance agree on both flavours, but equal sections
    are necessary for a finite distance, not sufficient: neither flavour
    tells whether two barcodes lie in one connected component, which
    ``matching.same_component`` does.
    """
    dims: dict[int, int] = {}
    for g in b:
        iv = g.interval
        for k, hom in enumerate((_hom0, _hom1)):
            if hom(iv, _LINE) if compact_support else hom(_LINE, iv):
                d = g.degree + (1 - k if compact_support else k)
                dims[d] = dims.get(d, 0) + 1
    return dict(sorted(dims.items()))
