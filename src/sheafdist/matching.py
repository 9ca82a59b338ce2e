"""Exact bottleneck distance between graded barcodes.

The distance decomposes over the slots of ``intervals.point`` (central
index m, half-open side and degree): the whole-barcode distance is the
max over slots, attained by a concrete matching that
``distance_with_matching`` returns.  In a slot, unmatched bars pay their
deletion cost; central bars, rays and the line have none, so a central
slot is a perfect-matching problem (a bijection) and a half-open slot a
partial one.  Every cost within a shape class is finite (``Interval``
keeps ends below 2**1022), so a slot's distance is infinite exactly when
a class of undeletable bars differs in size between the sides.  This
rule, the matching form of the paper's description of the connected
components, is counted in one place, ``split_clr``, which also groups the
bars by slot (the paper's central, R and L parts): ``_rows`` reads it
before building the graph, ``same_component`` reads it alone, and
``bruteforce_distance`` solves its groups.

One graph per barcode pair serves every slot (``part_bottleneck``), and
in it each slot solves for its own value: the least eps whose threshold
graph (the edges of cost at most eps) has a perfect matching.  Each bar
with a finite deletion cost gets one virtual diagonal copy on the other
side, the classic square reduction, and the copies of a slot meet each
other for free; undeletable bars get none, which keeps a central slot's
graph at n x n.  The vertices are numbered slot by slot, and no edge,
copy-to-copy ones included, joins two slots.  One walk over the bars
builds the graph (``_rows``): each left vertex's partners and costs as
two parallel lists sorted by cost, its copy edge among them, so the graph
at any eps is a prefix of each, and each slot's lower bound lb, the max
over its bars of min(cheapest pair cost, deletion cost).  A maximum
matching is first found with each slot at its lb: a greedy pass, then
rounds of augmenting-path DFS (Kuhn, Naval Res. Logist. Q. 1955); it is
usually perfect.  Each vertex it leaves free then costs one augmenting
path in its slot whose dearest edge is least, found by a search in
rising order of eps from the slot's lb (Derigs & Zimmermann, Computing
1978): every matched edge stays within the slot's optimum, so a slot's
last path sets its value, the max over slots is the distance, and the
final matching is a witness whose part in each slot costs that slot's
own value.  No candidate set is built or searched, and no floating-point
threshold is ever approximated: each value is one of the listed costs.
Both searches run on explicit queues and stacks, so no slot size meets
Python's recursion limit, and neither lists a copy-to-copy block.

No slot builds its p x q cost matrix.  ``point`` also places each bar
in the plane: a finite pair cost joins two bars exactly when they share
a slot and class (central bars; or bounded bars, rays to -inf, rays to
inf, the line) and is the L-infinity distance of their points, the
float ``pair_cost`` returns.  A pair of bounded half-open bars dearer
than both of their deletion costs is not listed (hera's per-pair
bound): deleting both, their copies matched to each other for free, is
cheaper.  The other classes list every edge.  The right bars are
grouped into one block per slot and class, sorted by first coordinate,
and each left bar bisects into its block and walks outward, right and
then left, while the gap in that coordinate alone is within the bound
(the sorted-endpoint neighbour query of Efrat, Itai & Katz, Algorithmica
2001), an exact stop because rounded subtraction is monotone.  The
direction fixes the sign of the gap, so each step subtracts with no
``abs``; a listed cost is still the float ``pair_cost`` returns, the
sign of a zero included.

``bruteforce_distance`` re-solves every group of ``split_clr`` by one
exhaustive enumeration of partial matchings, purely as an oracle for the
fast path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from heapq import heappop, heappush

from .barcode import Barcode
from .costs import deletion_cost, pair_cost
from .intervals import INF, GradedInterval, point


class Matching(namedtuple("Matching", "pairs achieved")):
    """Witness of an achieved bottleneck value.

    ``pairs``: ``part_bottleneck``'s entries, ``(left bar, right bar, cost)``
    with ``None`` on a deleted bar's missing side, slot by slot in its order.
    ``achieved``: max over all listed costs (inf when no matching exists).
    Three views place the entries by their bars' slot (``point``), each in
    the order of ``pairs``:
    ``central_pairs``: (index m, left bar, right bar, cost)
    ``halfopen_pairs``: (side "R"|"L", degree, left bar, right bar, cost)
    ``deletions``: (side, degree, origin "left"|"right", bar, cost)
    A view of an entry with neither bar is a ValueError.
    """

    __slots__ = ()

    @staticmethod
    def infeasible() -> "Matching":
        return Matching((), INF)

    def _placed(self):
        for l, r, c in self.pairs:
            bar = r if l is None else l
            if bar is None:
                raise ValueError(f"the matching lists {(l, r, c)!r}, an entry with neither bar")
            yield point(bar)[0], l, r, c

    @property
    def central_pairs(self) -> tuple:
        return tuple((j, l, r, c) for (side, j), l, r, c in self._placed() if side == "central")

    @property
    def halfopen_pairs(self) -> tuple:
        return tuple((side, j, l, r, c) for (side, j), l, r, c in self._placed()
                     if side != "central" and l is not None and r is not None)

    @property
    def deletions(self) -> tuple:
        return tuple((side, j, "left", l, c) if r is None else (side, j, "right", r, c)
                     for (side, j), l, r, c in self._placed()
                     if side != "central" and (l is None or r is None))


def _max_matching(
    nbrs: Sequence[Sequence[int]],
    cnt: list[int],
    slots: Sequence[tuple[int, int, int, int]],
    mate_l: list[int],
    mate_r: list[int],
) -> list[int]:
    """Grow the empty matching ``mate_l``/``mate_r`` (-1 for free) to a
    maximum one, and return the indices of the slots left with a free
    left vertex, in order.

    Slot ``(lo, p, q, hi)`` holds the left and the right vertices ``lo``
    to ``hi - 1``: left bars below ``p``, left copies from it on, right
    bars below ``q``, right copies from it on.  Left vertex ``u`` is
    joined to ``nbrs[u][:cnt[u]]``, inside its slot, and a left copy also
    to every right copy of its slot; that block is never listed.  A greedy
    pass gives each left vertex, in index order, the first free right
    vertex of its prefix (its cheapest edge), or, for a left copy, the
    next free right copy of its slot.  Rounds of the augmenting-path method
    (Kuhn, Naval Res. Logist. Q. 1955) grow each slot the pass leaves
    short.  A round is one pass over the slot's free left vertices in
    index order, each the root of a DFS that steps to a right vertex that
    is free, or whose mate is not yet ``seen`` in the round, and flips the
    path at a free one.  A right vertex once stepped to keeps a seen mate
    for the rest of the round, so the left copies of a slot share one
    pointer into its right copies.  A round that grows nothing ran on an
    unchanged matching, so its marks prove that the slot has no augmenting
    path left; no other slot is touched by it.  The DFS runs on an
    explicit stack, and vertices and edges are visited in a fixed order,
    so the result is deterministic.
    """
    short = []
    for k, (lo, p, q, hi) in enumerate(slots):
        pool = q  # the next right copy a left copy may take
        for u in range(lo, hi):
            for v in nbrs[u][: cnt[u]]:
                if mate_r[v] == -1:
                    break
            else:  # no free edge: a left copy takes a free right copy
                while u >= p and pool < hi and mate_r[pool] != -1:
                    pool += 1
                if u < p or pool == hi:
                    if not short or short[-1] != k:
                        short.append(k)
                    continue
                v = pool
                pool += 1
            mate_l[u] = v
            mate_r[v] = u
    size = len(mate_l)
    rounds = short
    while rounds:
        seen = [False] * size
        ptr = [0] * size
        grown = []
        for k in rounds:
            lo, p, q, hi = slots[k]
            roots = [u for u in range(lo, hi) if mate_l[u] == -1]
            pool = q  # the next right copy any left copy of this slot tries
            found = 0
            for root in roots:
                seen[root] = True
                stack = [root]
                path: list[int] = []  # path[i]: right vertex from stack[i] to stack[i + 1]
                while stack:
                    u = stack[-1]
                    edges, i, end = nbrs[u], ptr[u], cnt[u]
                    v = -1
                    while i < end:
                        w = mate_r[edges[i]]
                        i += 1
                        if w == -1 or not seen[w]:
                            v = edges[i - 1]
                            break
                    ptr[u] = i
                    if v == -1 and u >= p:
                        while pool < hi:
                            w = mate_r[pool]
                            pool += 1
                            if w == -1 or not seen[w]:
                                v = pool - 1
                                break
                    if v == -1:  # dead end for the rest of the round
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    path.append(v)
                    w = mate_r[v]
                    if w == -1:
                        for x, y in zip(stack, path):
                            mate_l[x] = y
                            mate_r[y] = x
                        found += 1
                        break
                    seen[w] = True
                    stack.append(w)
            if 0 < found < len(roots):  # grown, and still short
                grown.append(k)
        rounds = grown
    return [k for k in short if -1 in mate_l[slots[k][0] : slots[k][3]]]


def _cheapest_path(
    nbrs: Sequence[Sequence[int]],
    ecost: Sequence[Sequence[float]],
    slot: tuple[int, int, int, int],
    mate_l: list[int],
    mate_r: list[int],
    eps: float,
) -> float:
    """Augment the matching along a path in ``slot`` (``(lo, p, q, hi)`` as
    in ``_max_matching``) whose dearest edge is least, and return
    ``max(eps, that edge's cost)``.

    Every matched edge must cost at most ``eps``, so a path's price is its
    dearest unmatched edge.  The search grows from every free left vertex
    of the slot at once in rising order of eps: each reached left vertex
    takes the edges of its sorted row up to eps from a pointer into the
    row, and a heap holds the next dearer edge of each one; when no reached
    vertex has an edge left within eps, eps rises to the cheapest edge on
    the heap.  The first left copy reached takes every right copy of the
    slot at cost 0.  The first free right vertex reached ends the search,
    and the path to it is flipped.  Ties are broken by vertex index, so the
    result is deterministic.  The search keeps only what it reaches.
    """
    lo, p, q, hi = slot
    pred: dict[int, int] = {}  # pred[v]: the left vertex that reached right vertex v
    ptr: dict[int, int] = {}
    heap: list[tuple[float, int]] = []
    queue = [u for u in range(lo, hi) if mate_l[u] == -1]
    pooled = False
    while True:
        for u in queue:  # grows while it is read
            costs, k = ecost[u], ptr.get(u, 0)
            stop = bisect_right(costs, eps, k)
            targets = nbrs[u][k:stop]
            if stop < len(costs):
                heappush(heap, (costs[stop], u))
            ptr[u] = stop
            if u >= p and not pooled:
                pooled = True
                targets = [*targets, *range(q, hi)]
            for v in targets:
                if v not in pred:
                    pred[v] = u
                    w = mate_r[v]
                    if w == -1:
                        while v != -1:  # flip the path back to its free root
                            u = pred[v]
                            w = mate_l[u]
                            mate_l[u], mate_r[v] = v, u
                            v = w
                        return eps
                    queue.append(w)
        if not heap:  # a perfect matching exists, so a path must: a bug
            raise AssertionError("no augmenting path in a feasible slot")
        # every edge on the heap lies above the eps at which it was pushed,
        # so the eps popped never falls
        eps, u = heappop(heap)
        queue = [u]


Pairing = tuple[tuple[GradedInterval | None, GradedInterval | None, float], ...]
Bars = list[GradedInterval | None]

_SIDES = {"central": 0, "R": 1, "L": 2}  # the order of slots: central, R, L


def split_clr(
    left: Sequence[GradedInterval], right: Sequence[GradedInterval]
) -> tuple[dict, dict]:
    """The central/R/L split of two lists of bars, in one walk over them:
    ``(groups, need)``.

    ``groups`` maps each slot either side fills (``point``'s
    ``("central", m)``, ``("R", j)`` or ``("L", j)``) to its left bars and
    its right bars, each in the order given.  ``need`` maps each
    ``(slot, class)`` of undeletable bars (central bars, rays to -inf, rays
    to inf, the line) to its count of left bars minus right ones.  This is
    the component rule: the distance is finite exactly when every count is
    0, since every other bar can be deleted and every cost within a class
    is finite.
    """
    groups: dict = {}
    need: dict = {}
    for k, sign, bars in ((0, 1, left), (1, -1, right)):
        for g in bars:
            pt = point(g)
            group = groups.get(pt[0])
            if group is None:
                group = groups[pt[0]] = ([], [])
            group[k].append(g)
            if pt[1]:
                key = pt[:2]
                need[key] = need.get(key, 0) + sign
    return groups, need


def same_component(F: Barcode, G: Barcode) -> bool:
    """Whether the barcodes lie in one connected component, that is, at a
    finite distance: each slot holds as many undeletable bars of F as of
    G in each class (``split_clr``).  Nothing is solved."""
    return not any(split_clr(F.bars, G.bars)[1].values())


def _rows(
    left: Sequence[GradedInterval], right: Sequence[GradedInterval]
) -> tuple[list[tuple[int, ...]], list[tuple[float, ...]], list[tuple[int, int, int, int]],
           list[float], Bars, Bars] | None:
    """The graph of ``part_bottleneck``, built in one walk over the bars:
    ``(nbrs, ecost, slots, lbs, bar_l, bar_r)``, or ``None`` when a class
    of undeletable bars differs in size between the sides (the ``need`` of
    ``split_clr``, which groups the bars by slot).  Else no row is
    empty, as every cost within a class is finite: a deletable bar has its
    copy, an undeletable one an edge to each bar of its class.

    ``slots`` holds each slot's ``(lo, p, q, hi)``, central indices first,
    then R and L degrees, each ascending, and ``lbs`` its lower bound.  Its
    left vertices are its left bars, in the order given, then the copies of
    its deletable right bars; its right vertices are its right bars, then
    the copies of its deletable left bars.  ``bar_l`` and ``bar_r`` give
    each vertex's bar, ``None`` for a copy.  ``nbrs[u]`` and ``ecost[u]``
    hold the listed edges of left vertex ``u``, sorted by cost and then
    vertex, so the graph at any eps keeps a bisect prefix of each: a left
    bar's copy edge at its deletion cost among its pair edges, a right
    bar's copy only its edge to that bar.  A slot's lb is the max over its
    bars of their cheapest listed edge, own deletion included: every bar
    needs a partner or its copy, so no eps below it is feasible.

    A left bar at ``(u, v)`` bisects to ``u`` in the block of its slot and
    class and walks outward, in one index loop per direction, while the
    first-coordinate gap alone (``us[m] - u`` going right, ``u - us[m]``
    going left) is within the larger of its own deletion cost and the
    dearest one in the block: an edge dearer than both of its bars'
    deletion costs is not listed.  Only the first gap going right can be
    zero, and it is ``-0.0`` when ``us[m]`` is ``-0.0`` and ``u`` is
    ``0.0``; the cost takes the second gap ``h``, an ``abs`` and so
    ``+0.0``, whenever ``h >= g``, so every listed cost is the float
    ``pair_cost`` returns, sign included.
    """
    groups, need = split_clr(left, right)
    if any(need.values()):
        return None
    nbrs: list[tuple[int, ...]] = []
    ecost: list[tuple[float, ...]] = []
    slots: list[tuple[int, int, int, int]] = []
    lbs: list[float] = []
    bar_l: Bars = []
    bar_r: Bars = []
    col = [INF] * (len(left) + len(right))  # col[j]: the cheapest listed edge of right bar j
    for slot in sorted(groups, key=lambda slot: (_SIDES[slot[0]], slot[1])):
        ls, rs = groups[slot]
        lo = len(nbrs)
        blocks: dict = {}
        dr = []  # the deletion cost of each right bar
        j = lo
        for _, s, u, v in map(point, rs):
            d = INF if s else (v - u) / 2.0
            dr.append(d)
            block = blocks.get(s)
            if block is None:
                blocks[s] = [(u, v, j, d)]
            else:
                block.append((u, v, j, d))
            j += 1
        for s, block in blocks.items():
            block.sort()
            us, vs, js, ds = zip(*block)
            blocks[s] = us, vs, js, ds, len(us), max(ds)
        lb = -INF
        vertex = lo + len(rs)  # the next left copy's right vertex
        for _, s, u, v in map(point, ls):
            if s:
                di, row = INF, []
            else:
                di = (v - u) / 2.0
                row = [(di, vertex)]
                vertex += 1
            block = blocks.get(s)
            if block is not None:
                us, vs, js, ds, n, top = block
                bound = di if di > top else top
                start = bisect_left(us, u)
                # us[m] >= u from start on and us[m] < u before it; a gap
                # of -0.0 (-0.0 - 0.0) yields to h's +0.0 at h >= g
                for m in range(start, n):
                    g = us[m] - u
                    if g > bound:
                        break
                    h = abs(v - vs[m])
                    c = h if h >= g else g
                    if c <= di or c <= ds[m]:
                        j = js[m]
                        row.append((c, j))
                        if c < col[j]:
                            col[j] = c
                for m in range(start - 1, -1, -1):
                    g = u - us[m]
                    if g > bound:
                        break
                    h = abs(v - vs[m])
                    c = h if h >= g else g
                    if c <= di or c <= ds[m]:
                        j = js[m]
                        row.append((c, j))
                        if c < col[j]:
                            col[j] = c
            row.sort()
            cs, ns = zip(*row)
            nbrs.append(ns)
            ecost.append(cs)
            if cs[0] > lb:
                lb = cs[0]
        j = lo
        for dj in dr:
            c = col[j]
            if dj < c:  # its copy edge, cheaper than every listed one
                c = dj
            if c > lb:
                lb = c
            if dj < INF:
                nbrs.append((j,))
                ecost.append((dj,))
            j += 1
        hi = len(nbrs)
        slots.append((lo, lo + len(ls), lo + len(rs), hi))
        lbs.append(lb)
        bar_l += ls + [None] * (hi - lo - len(ls))
        bar_r += rs + [None] * (hi - lo - len(rs))
    return nbrs, ecost, slots, lbs, bar_l, bar_r


def part_bottleneck(
    left: list[GradedInterval] | tuple[GradedInterval, ...],
    right: list[GradedInterval] | tuple[GradedInterval, ...],
) -> tuple[float, Pairing]:
    """Bottleneck value and an optimal matching of two lists of bars.

    The bars may come from any mix of slots.  One graph (``_rows``) holds
    them all, and each slot solves in it at its own lb, with its own copy
    pool and its own cheapest paths, so the value is the max over slots and
    the witness's part in each slot costs that slot's own value.  Central
    bars cannot be deleted, so a central slot comes out as a bijection (or
    ``inf`` when the sizes differ).  The witness comes out slot by slot,
    central indices first, then R and L degrees, each ascending; within a
    slot, each right bar with its partner or deleted, then each deleted
    left bar.  Within a slot the bars are read in the order given; another
    order can change only which of several equally optimal witnesses comes
    back.

    The rows leave out an edge ``(i, j)`` dearer than both bars' deletion
    costs: a perfect matching that uses it stays perfect, and no dearer,
    with the two copy edges and a free copy-to-copy edge in its place, and
    the cheapest edge at each bar, which sets lb, is still listed.  One
    ``_max_matching`` run finds a maximum matching with each slot at its
    lb; it is perfect in most slots.  Then each vertex it leaves free costs
    one ``_cheapest_path`` in its slot (Derigs & Zimmermann, Computing
    1978), from the slot's lb up.  Every matched edge stays within the
    slot's optimum d: the matching lies in the graph at d, which has a
    perfect matching, so it has an augmenting path there (Berge), and the
    cheapest path costs at most d.  So the eps of a slot's last path is d.
    """
    graph = _rows(left, right)
    if graph is None:
        return INF, ()
    nbrs, ecost, slots, lbs, bar_l, bar_r = graph
    cnt = [bisect_right(c, lb) for (lo, _, _, hi), lb in zip(slots, lbs) for c in ecost[lo:hi]]
    mate_l, mate_r = [-1] * len(nbrs), [-1] * len(nbrs)
    value = max(lbs, default=0.0)
    for k in _max_matching(nbrs, cnt, slots, mate_l, mate_r):
        lo, _, _, hi = slot = slots[k]
        eps = lbs[k]
        for _ in range(mate_l[lo:hi].count(-1)):
            eps = _cheapest_path(nbrs, ecost, slot, mate_l, mate_r, eps)
        value = max(value, eps)
    out: list[tuple[GradedInterval | None, GradedInterval | None, float]] = []
    for v, (u, r) in enumerate(zip(mate_r, bar_r)):
        l = bar_l[u]
        if l is not None or r is not None:  # not two copies
            out.append((l, r, ecost[u][nbrs[u].index(v)]))
    return value, tuple(out)


def distance_with_matching(F: Barcode, G: Barcode) -> tuple[float, Matching]:
    """Bottleneck distance together with an optimal matching: one
    ``part_bottleneck`` call solves every slot, and its entries are the
    matching's ``pairs``; ``(inf, Matching.infeasible())`` when no finite
    matching exists, as when a central slot has mismatched sizes.  Equal
    inputs give identical matchings."""
    value, pairs = part_bottleneck(F.bars, G.bars)
    return value, Matching(pairs, value)


# ---------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------


def _brute(left, right) -> float:
    """Least bottleneck over every partial matching.  A branch ends once
    its cost is ``inf``, so undeletable bars (a central slot's, rays,
    the line) are enumerated only in bijections."""
    del_r = [deletion_cost(r) for r in right]

    def go(i: int, used: frozenset, cur: float) -> float:
        if cur == INF:
            return INF
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
    """Distance by exhaustive enumeration of matchings, slot by slot: the
    max of ``_brute`` over the groups of ``split_clr``.

    Refuses slots larger than ``limit`` bars per side.  Semantically
    identical to ``distance_with_matching`` and kept that way: the fast
    path is tested against this function.
    """
    total = 0.0
    for left, right in split_clr(F.bars, G.bars)[0].values():
        if max(len(left), len(right)) > limit:
            raise ValueError(f"slot larger than limit={limit}")
        total = max(total, _brute(left, right))
    return total
