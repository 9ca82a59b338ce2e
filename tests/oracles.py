"""Independent checks the tests hold the library to.

``ext_oracle`` recomputes a morphism-space dimension from resolutions,
independently of the closed-form rules of ``sheafdist.homs.hom_dim``;
``generator_composite_nonzero`` composes two canonical generators, as
the oracle's differentials need; ``stalk_type`` recomputes
``sheafdist.convolve.convolve_interval`` pointwise, from the window
geometry alone; ``contains`` is interval membership, ``bounded`` says
both ends are finite and ``intersection`` is the set intersection, each
read off the fields.  None of these runs in the library.

The tests import this module as they import ``conftest``.
"""

from __future__ import annotations

from fractions import Fraction

from sheafdist.homs import _hom0, _src_shape, _tgt_shape, hom_dim
from sheafdist.intervals import INF, GradedInterval, Interval


def contains(iv: Interval, x: float) -> bool:
    """Whether the point ``x`` lies in ``iv``."""
    above = iv.lo < x or (x == iv.lo and iv.lo_closed)
    below = x < iv.hi or (x == iv.hi and iv.hi_closed)
    return above and below


def bounded(iv: Interval) -> bool:
    """Whether both ends of ``iv`` are finite."""
    return iv.lo != -INF and iv.hi != INF


def intersection(i: Interval, j: Interval) -> Interval | None:
    """Set intersection of ``i`` and ``j``, or None when it is empty."""
    lo = max(i.lo, j.lo)
    hi = min(i.hi, j.hi)
    lo_c = all(lo > iv.lo or (lo == iv.lo and iv.lo_closed) for iv in (i, j))
    hi_c = all(hi < iv.hi or (hi == iv.hi and iv.hi_closed) for iv in (i, j))
    if lo > hi or (lo == hi and not (lo_c and hi_c)):
        return None
    return Interval(lo, hi, lo_c, hi_c)


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
    piece = intersection(gi.interval, window)
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


def generator_composite_nonzero(i: Interval, j: Interval, k: Interval) -> bool:
    """Whether the composite of the two canonical generators i -> j -> k
    (degree 0) is nonzero.

    Requires both generators to exist.  The composite is stalkwise an
    isomorphism exactly over the triple overlap, so it survives iff that
    overlap is nonempty and a generator i -> k exists at all.
    """
    qi, qj, qk = (GradedInterval(x, 0) for x in (i, j, k))
    if hom_dim(qi, qj) != 1 or hom_dim(qj, qk) != 1:
        raise ValueError("generator_composite_nonzero: no generator to compose")
    meet = intersection(i, j)
    meet = intersection(meet, k) if meet is not None else None
    return hom_dim(qi, qk) == 1 and meet is not None


# ---------------------------------------------------------------------
# resolution-based oracle
# ---------------------------------------------------------------------

def _open_resolution(iv: Interval) -> tuple[list[Interval], list[Interval]]:
    """Left resolution by open intervals: degree -1 and degree 0 terms."""
    a, b = iv.lo, iv.hi
    shape = _src_shape(iv)
    if shape == "open":
        return [], [iv]
    if shape == "closed":
        return [Interval.open(-INF, a), Interval.open(b, INF)], [Interval.line()]
    if shape == "ro":
        return [Interval.open(-INF, a)], [Interval.open(-INF, b)]
    return [Interval.open(b, INF)], [Interval.open(a, INF)]


def _closed_resolution(iv: Interval) -> tuple[list[Interval], list[Interval]]:
    """Right resolution by closed intervals: degree 0 and degree 1 terms."""
    a, b = iv.lo, iv.hi
    hull = Interval.closed(a, b)
    shape = _tgt_shape(iv)
    if shape == "closed":
        return [hull], []
    if shape == "open":
        return [hull], [Interval.point(a), Interval.point(b)]
    if shape == "ro":
        return [hull], [Interval.point(b)]
    return [hull], [Interval.point(a)]


def _rank(rows: list[list[int]]) -> int:
    """Exact rank over the rationals (entries are small integers)."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def ext_oracle(source: GradedInterval, target: GradedInterval) -> int:
    """Morphism-space dimension computed from resolutions.

    Resolves the source by open intervals (two steps), the target by
    closed intervals (two steps), forms the totalized hom double complex
    with entries given by degree-0 hom dimensions and differentials by
    generator composition, and returns dim H^0.  Independent of the
    closed-form degree-1 rules, so it serves as their oracle.

    Only bounded intervals and degree shifts 0 and 1 are supported.
    """
    shift = target.degree - source.degree
    if shift not in (0, 1):
        raise ValueError(f"ext_oracle: unsupported degree shift {shift}")
    if not (bounded(source.interval) and bounded(target.interval)):
        raise ValueError("ext_oracle: bounded intervals only")

    a_minus1, a_0 = _open_resolution(source.interval)
    k_0, k_1 = _closed_resolution(target.interval)
    src_terms = {-1: a_minus1, 0: a_0}
    # target complex shifted: entry at degree n is K^{n+shift}
    tgt_terms = {n - shift: term for n, term in ((0, k_0), (1, k_1))}
    dB_sign = -1 if shift % 2 else 1

    def basis(n: int) -> list[tuple[int, Interval, Interval]]:
        out = []
        for p in (-1, 0):
            for u in src_terms.get(p, ()):
                for v in tgt_terms.get(p + n, ()):
                    if _hom0(u, v):
                        out.append((p, u, v))
        return out

    def differential(n: int, dom, cod) -> list[list[int]]:
        rows = [[0] * len(dom) for _ in cod]
        index = {key: r for r, key in enumerate(cod)}
        for cidx, (p, u, v) in enumerate(dom):
            for w in tgt_terms.get(p + n + 1, ()):
                # d_B components: compose v -> w on the target side
                if _hom0(v, w) and generator_composite_nonzero(u, v, w):
                    r = index.get((p, u, w))
                    if r is not None:
                        rows[r][cidx] += dB_sign
            if p == 0:
                sign = -1 if n % 2 == 0 else 1
                for u2 in src_terms[-1]:
                    # d_A components: precompose u2 -> u on the source side
                    if _hom0(u2, u) and generator_composite_nonzero(u2, u, v):
                        r = index.get((-1, u2, v))
                        if r is not None:
                            rows[r][cidx] += sign
        return rows

    b_m1, b_0, b_1 = basis(-1), basis(0), basis(1)
    d_m1 = differential(-1, b_m1, b_0)
    d_0 = differential(0, b_0, b_1)
    if b_m1 and b_1:
        comp = [
            [sum(d_0[r][k] * d_m1[k][c] for k in range(len(b_0))) for c in range(len(b_m1))]
            for r in range(len(b_1))
        ]
        assert all(x == 0 for row in comp for x in row), "hom complex differentials do not square to zero"
    return len(b_0) - _rank(d_0) - _rank(d_m1)
