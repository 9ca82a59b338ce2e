"""Exact bottleneck distance between graded barcodes.

The distance decomposes over the CLR split: each central index m and
each half-open (side, degree) pair is a slot, and the whole-barcode
distance is the max over slots, attained by a concrete matching that
``distance_with_matching`` returns.  In a slot, unmatched bars pay their
deletion cost; central bars, rays and the line have none, so a central
slot is a perfect-matching problem (a bijection) and a half-open slot a
partial one.

One solver serves every slot: the optimum is always one of the finitely
many pairwise or deletion costs, so we binary-search that candidate set,
testing feasibility with a maximum bipartite matching on the
edges-at-most-eps graph.  Each bar with a finite deletion cost gets one
virtual diagonal partner, the classic square reduction; undeletable bars
get none, which keeps a central slot's graph at n x n.  No
floating-point threshold is ever approximated.

``bruteforce_distance`` re-solves everything by exhaustive enumeration
and exists purely as an oracle for the fast path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .barcode import Barcode, split_clr
from .costs import deletion_cost, pair_cost
from .intervals import INF, GradedInterval


@dataclass(frozen=True)
class Matching:
    """Witness of an achieved bottleneck value.

    ``central_pairs``: (index m, left bar, right bar, cost)
    ``halfopen_pairs``: (side "R"|"L", degree, left bar, right bar, cost)
    ``deletions``: (side, degree, origin "left"|"right", bar, cost)
    ``achieved``: max over all listed costs (inf when no matching exists).
    """

    central_pairs: tuple[tuple[int, GradedInterval, GradedInterval, float], ...]
    halfopen_pairs: tuple[tuple[str, int, GradedInterval, GradedInterval, float], ...]
    deletions: tuple[tuple[str, int, str, GradedInterval, float], ...]
    achieved: float

    @staticmethod
    def infeasible() -> "Matching":
        return Matching((), (), (), INF)


def _max_bipartite(n_right: int, adj: list[list[int]]) -> list[int]:
    """Deterministic augmenting-path matching; returns match_of_right."""
    match_right = [-1] * n_right

    def try_augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] == -1 or try_augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    for i in range(len(adj)):
        try_augment(i, [False] * n_right)
    return match_right


def _least_feasible(cands: list[float], feasible) -> float | None:
    """Smallest candidate passing the monotone feasibility test."""
    lo, hi = 0, len(cands) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            best = cands[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return best


Pairing = tuple[tuple[GradedInterval | None, GradedInterval | None, float], ...]


def _slot_solve(left: list[GradedInterval], right: list[GradedInterval]) -> tuple[float, Pairing]:
    """Square reduction: a bar with a finite deletion cost gets a diagonal
    copy on the other side, and copies meet each other for free.

    A finite pair cost never joins a deletable bar to an undeletable one,
    so the undeletable bars (central bars, rays, the line) must pair off
    among themselves, and a perfect matching can exist only when both
    sides have the same number of vertices.
    """
    p, q = len(left), len(right)
    cost = [[pair_cost(l, r) for r in right] for l in left]
    del_l = [deletion_cost(l) for l in left]
    del_r = [deletion_cost(r) for r in right]
    copy_l = [i for i in range(p) if del_l[i] < INF]  # right vertices q, q+1, ...
    copy_r = [j for j in range(q) if del_r[j] < INF]  # left vertices p, p+1, ...
    size = p + len(copy_r)
    if size != q + len(copy_l):
        return INF, ()
    if size == 0:
        return 0.0, ()
    cands = sorted(
        {c for row in cost for c in row if c < INF}
        | {del_l[i] for i in copy_l}
        | {del_r[j] for j in copy_r}
    )
    diag = list(range(q, size))  # shared by rows: the matcher only reads adj

    def adj_at(eps: float) -> list[list[int]]:
        adj = [[j for j in range(q) if row[j] <= eps] for row in cost]
        for k, i in enumerate(copy_l):
            if del_l[i] <= eps:
                adj[i].append(q + k)
        for j in copy_r:
            adj.append([j, *diag] if del_r[j] <= eps else diag)
        return adj

    def feasible(eps: float) -> bool:
        return -1 not in _max_bipartite(size, adj_at(eps))

    best = _least_feasible(cands, feasible)
    if best is None:
        return INF, ()
    out: list[tuple[GradedInterval | None, GradedInterval | None, float]] = []
    for j, i in enumerate(_max_bipartite(size, adj_at(best))):
        if i < p and j < q:
            out.append((left[i], right[j], cost[i][j]))
        elif i < p:  # left bar matched to its diagonal copy
            out.append((left[i], None, del_l[i]))
        elif j < q:  # right bar matched to its diagonal copy
            out.append((None, right[j], del_r[j]))
    return best, tuple(out)


def part_bottleneck(
    left: list[GradedInterval] | tuple[GradedInterval, ...],
    right: list[GradedInterval] | tuple[GradedInterval, ...],
    kind: tuple,
) -> tuple[float, Pairing]:
    """Bottleneck value and witness for one slot.

    ``kind`` is ``("central", m)``, ``("R", j)`` or ``("L", j)``.  Every
    slot is solved alike: central bars cannot be deleted, so a central
    slot comes out as a bijection (or ``inf`` when the sizes differ).
    """
    if kind[0] not in ("central", "R", "L"):
        raise ValueError(f"unknown slot kind {kind!r}")
    return _slot_solve(sorted(left, key=lambda g: g.key), sorted(right, key=lambda g: g.key))


def _slots(F: Barcode, G: Barcode):
    """Yield ``(kind, F bars, G bars)`` for every slot either barcode
    fills: central indices first, then R and L degrees, each ascending."""
    sf, sg = split_clr(F), split_clr(G)
    for name, fp, gp in (
        ("central", sf.central, sg.central),
        ("R", sf.right, sg.right),
        ("L", sf.left, sg.left),
    ):
        for j in sorted(set(fp) | set(gp)):
            yield (name, j), fp.get(j, ()), gp.get(j, ())


def distance_with_matching(F: Barcode, G: Barcode) -> tuple[float, Matching]:
    """Bottleneck distance together with an optimal matching.

    Returns ``(inf, Matching.infeasible())`` when no finite matching
    exists (for instance when a central slot has mismatched sizes).
    The result is deterministic: equal inputs give identical matchings.
    """
    central_pairs = []
    halfopen_pairs = []
    deletions = []
    achieved = 0.0
    for kind, fs, gs in _slots(F, G):
        value, pairs = part_bottleneck(fs, gs, kind)
        if value == INF:
            return INF, Matching.infeasible()
        achieved = max(achieved, value)
        side, j = kind
        for l, r, c in pairs:
            if side == "central":
                central_pairs.append((j, l, r, c))
            elif l is not None and r is not None:
                halfopen_pairs.append((side, j, l, r, c))
            elif l is not None:
                deletions.append((side, j, "left", l, c))
            else:
                deletions.append((side, j, "right", r, c))

    return achieved, Matching(
        tuple(central_pairs), tuple(halfopen_pairs), tuple(deletions), achieved
    )


# ---------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------


def _brute_central(left, right) -> float:
    if len(left) != len(right):
        return INF
    if not left:
        return 0.0
    best = INF
    for perm in itertools.permutations(range(len(right))):
        worst = max(pair_cost(l, right[j]) for l, j in zip(left, perm))
        best = min(best, worst)
    return best


def _brute_halfopen(left, right) -> float:
    del_r = [deletion_cost(r) for r in right]

    def go(i: int, used: frozenset, cur: float) -> float:
        if i == len(left):
            tail = max((del_r[j] for j in range(len(right)) if j not in used), default=0.0)
            return max(cur, tail)
        best = go(i + 1, used, max(cur, deletion_cost(left[i])))
        for j in range(len(right)):
            if j not in used:
                c = pair_cost(left[i], right[j])
                if c < INF:
                    best = min(best, go(i + 1, used | {j}, max(cur, c)))
        return best

    return go(0, frozenset(), 0.0)


def bruteforce_distance(F: Barcode, G: Barcode, limit: int = 6) -> float:
    """Distance by exhaustive enumeration of matchings, slot by slot.

    Refuses slots larger than ``limit`` bars per side.  Semantically
    identical to ``distance_with_matching`` and kept that way: the fast
    path is tested against this function.
    """
    total = 0.0
    for kind, left, right in _slots(F, G):
        if max(len(left), len(right)) > limit:
            raise ValueError(f"slot larger than limit={limit}")
        brute = _brute_central if kind[0] == "central" else _brute_halfopen
        total = max(total, brute(left, right))
    return total
