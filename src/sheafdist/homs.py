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
full line is an open source but a closed target).

One degree-0 cell is easy to get wrong: a left-open source into a
closed target, ``(a,b] -> [c,d]``, needs ``a < d <= b`` (the mirror
image of the right-open rule ``a <= c < b``), not ``a < b <= d``, which
would relate sheaves with disjoint supports such as ``(0,1] -> [5,9]``.

The degree-1 rules are computed, not guessed: ``ext_oracle`` resolves
the source by open intervals and the target by closed ones and takes
H^0 of the totalized hom complex.  Around boundary-touching
configurations the resulting dimensions differ from the naive
"interiors overlap" intuition.  ``docs/hom_boundary_cases.md`` lists
every such class with a witness extension, and
``tests/test_acceptance.py`` holds the list against ``ext_oracle`` on
the grid.
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import INF, GradedInterval, Interval, _src_shape, _tgt_shape


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
    meet = i.intersection(j)
    meet = meet.intersection(k) if meet is not None else None
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
    if not (source.interval.bounded and target.interval.bounded):
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

