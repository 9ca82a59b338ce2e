"""Exact bottleneck distance between graded barcodes.

The distance decomposes over the slots of ``intervals.point`` (central
index m, half-open side and degree): the whole-barcode distance is the
max over slots, attained by a concrete matching that
``distance_with_matching`` returns.  In a slot, unmatched bars pay their
deletion cost; central bars, rays and the line have none, so a central
slot is a perfect-matching problem (a bijection) and a half-open slot a
partial one.  Every cost within a shape class is finite (``Interval``
keeps ends below 2**1022), so a slot's distance is infinite exactly when
a class of undeletable bars differs in size between the sides.

One solver serves every slot: the least eps whose threshold graph (the
edges of cost at most eps) has a perfect matching.  Each bar with a
finite deletion cost gets one virtual diagonal copy on the other side,
the classic square reduction, and copies meet each other for free;
undeletable bars get none, which keeps a central slot's graph at n x n.
One walk over the bars builds the graph (``_rows``): each left vertex's
partners and costs as two parallel lists sorted by cost, its copy edge
among them, so the graph at any eps is a prefix of each, and with them
the lower bound lb, the max over bars of min(cheapest pair cost,
deletion cost).  No eps below lb is feasible, so Hopcroft-Karp (SIAM
J. Comput. 1973) first finds a maximum matching at lb, after a greedy
pass in which each free vertex takes its cheapest free partner; that
matching is usually perfect.  Each vertex it leaves free then costs one
augmenting path whose dearest edge is least, found by a search in
rising order of eps (Derigs & Zimmermann, Computing 1978): every
matched edge stays within the optimum, so the eps of the last path is
the value and the final matching the witness.  No candidate set is
built or searched, and no floating-point threshold is ever
approximated: the value is one of the listed costs.  Both searches run
on explicit queues and stacks, so no slot size meets Python's recursion
limit, and neither lists the copy-to-copy block.

No slot builds its p x q cost matrix.  ``point`` also places each bar
in the plane: a finite pair cost joins two bars exactly when they share
a slot and class (central bars; or bounded bars, rays to -inf, rays to
inf, the line) and is the L-infinity distance of their points, the
float ``pair_cost`` returns.  A pair of bounded half-open bars dearer
than both of their deletion costs is not listed (hera's per-pair
bound): deleting both, their copies matched to each other for free, is
cheaper.  The other classes list every edge.  The right bars are
grouped into one block per slot and class, sorted by first coordinate,
and each left bar bisects into its block and walks outward while that
coordinate alone is within the bound (the sorted-endpoint neighbour
query of Efrat, Itai & Katz, Algorithmica 2001), an exact stop because
rounded subtraction is monotone.

``bruteforce_distance`` re-solves every slot by one exhaustive
enumeration of partial matchings, purely as an oracle for the fast path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import islice

from .barcode import Barcode, split_clr
from .costs import deletion_cost, pair_cost
from .intervals import INF, GradedInterval, point


class Matching(namedtuple("Matching", "central_pairs halfopen_pairs deletions achieved")):
    """Witness of an achieved bottleneck value.

    ``central_pairs``: (index m, left bar, right bar, cost)
    ``halfopen_pairs``: (side "R"|"L", degree, left bar, right bar, cost)
    ``deletions``: (side, degree, origin "left"|"right", bar, cost)
    ``achieved``: max over all listed costs (inf when no matching exists).
    """

    __slots__ = ()

    @staticmethod
    def infeasible() -> "Matching":
        return Matching((), (), (), INF)


def _hopcroft_karp(
    nbrs: Sequence[Sequence[int]],
    cnt: list[int],
    p: int,
    q: int,
    mate_l: list[int],
    mate_r: list[int],
) -> None:
    """Grow the matching ``mate_l``/``mate_r`` (-1 for free) to a maximum one.
    ``_slot_solve`` calls it once per slot, at lb, on an empty matching.

    Left vertex ``u`` is joined to ``nbrs[u][:cnt[u]]``.  The left copies
    ``u >= p`` are also joined to every right copy ``v >= q``; that block
    is never listed.  A greedy pass first gives each free left vertex, in
    index order, the first free right vertex of its prefix (its cheapest
    edge), then each free left copy the next free right copy; the phases
    augment what it leaves.  In a phase's BFS only the first left copy
    reached scans the right copies, and in its DFS the left copies of one
    layer share one pointer into them: a right copy tried from layer k is
    useless to every other vertex of layer k.  Both searches run on
    explicit queues and stacks, and vertices and edges are visited in a
    fixed order, so the result is deterministic.
    """
    size = len(mate_l)
    for u in range(size):
        if mate_l[u] == -1:
            for v in islice(nbrs[u], cnt[u]):
                if mate_r[v] == -1:
                    mate_l[u] = v
                    mate_r[v] = u
                    break
    free = [v for v in range(q, size) if mate_r[v] == -1]
    for u, v in zip((u for u in range(p, size) if mate_l[u] == -1), free):
        mate_l[u] = v
        mate_r[v] = u
    while True:
        roots = [u for u in range(size) if mate_l[u] == -1]
        if not roots:
            return
        # BFS layers; ``last`` is the first layer that sees a free right vertex
        dist = [-1] * size
        for u in roots:
            dist[u] = 0
        last = size
        pooled = False
        queue = roots[:]
        for u in queue:  # grows while it is read
            d = dist[u]
            if d >= last:
                break
            targets = nbrs[u][: cnt[u]]
            if u >= p and not pooled:
                pooled = True
                targets = [*targets, *range(q, size)]
            for v in targets:
                w = mate_r[v]
                if w == -1:
                    last = d
                elif dist[w] == -1:
                    dist[w] = d + 1
                    queue.append(w)
        if last == size:
            return
        # DFS for vertex-disjoint shortest augmenting paths: from layer d < last
        # step to a right vertex whose mate is in layer d + 1; at layer last
        # take a free right vertex
        ptr = [0] * size
        pool = [q] * (last + 1)
        grown = False
        for root in roots:
            stack = [root]
            path: list[int] = []  # path[k]: right vertex from stack[k] to stack[k + 1]
            while stack:
                u = stack[-1]
                d = dist[u]
                edges, k, end = nbrs[u], ptr[u], cnt[u]
                v = -1
                while k < end:
                    w = mate_r[edges[k]]
                    k += 1
                    if (d < last and dist[w] == d + 1) if w != -1 else d == last:
                        v = edges[k - 1]
                        break
                ptr[u] = k
                if v == -1 and u >= p:
                    k = pool[d]
                    while k < size:
                        w = mate_r[k]
                        k += 1
                        if (d < last and dist[w] == d + 1) if w != -1 else d == last:
                            v = k - 1
                            break
                    pool[d] = k
                if v == -1:  # dead end for the rest of the phase
                    dist[u] = -1
                    stack.pop()
                    if path:
                        path.pop()
                elif mate_r[v] == -1:
                    path.append(v)
                    for x, y in zip(stack, path):
                        mate_l[x] = y
                        mate_r[y] = x
                    grown = True
                    break
                else:
                    path.append(v)
                    stack.append(mate_r[v])
        if not grown:  # the BFS saw a path the DFS cannot take: a bug, not a hang
            raise AssertionError("Hopcroft-Karp phase augmented nothing")


def _cheapest_path(
    nbrs: Sequence[Sequence[int]],
    ecost: Sequence[Sequence[float]],
    p: int,
    q: int,
    mate_l: list[int],
    mate_r: list[int],
    eps: float,
) -> float:
    """Augment the matching along a path whose dearest edge is least, and
    return ``max(eps, that edge's cost)``.

    Every matched edge must cost at most ``eps``, so a path's price is its
    dearest unmatched edge.  The search grows from every free left vertex
    at once in rising order of eps: each reached left vertex takes the
    edges of its sorted row up to eps from a pointer into the row, and a
    heap holds the next dearer edge of each one; when no reached vertex
    has an edge left within eps, eps rises to the cheapest edge on the
    heap.  The first left copy reached takes every right copy at cost 0,
    as in ``_hopcroft_karp``.  The first free right vertex reached ends the
    search, and the path to it is flipped.  Ties are broken by vertex
    index, so the result is deterministic.
    """
    size = len(mate_l)
    pred = [-1] * size  # pred[v]: the left vertex that reached right vertex v
    ptr = [0] * size
    heap: list[tuple[float, int]] = []
    queue = [u for u in range(size) if mate_l[u] == -1]
    pooled = False
    while True:
        for u in queue:  # grows while it is read
            costs, k = ecost[u], ptr[u]
            stop = bisect_right(costs, eps, k)
            targets = nbrs[u][k:stop]
            if stop < len(costs):
                heappush(heap, (costs[stop], u))
            ptr[u] = stop
            if u >= p and not pooled:
                pooled = True
                targets = [*targets, *range(q, size)]
            for v in targets:
                if pred[v] == -1:
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


def _slot_solve(
    left: Sequence[GradedInterval],
    right: Sequence[GradedInterval],
    nbrs: list[tuple[int, ...]],
    ecost: list[tuple[float, ...]],
    lb: float,
    del_l: list[float],
    del_r: list[float],
) -> tuple[float, Pairing]:
    """Square reduction: a bar with a finite deletion cost gets a diagonal
    copy on the other side, and copies meet each other for free.

    ``nbrs``, ``ecost`` and ``lb`` are what ``_rows`` returns: left vertex
    ``u`` has the listed edges to ``nbrs[u]`` at ``ecost[u]``, cheapest
    first, its own copy edge included, and no eps below ``lb`` is
    feasible, and finite.  The lists may leave out edges dearer than some
    eps at which the edges kept already admit a perfect matching: below
    that eps nothing is left out, and from it on the slot is feasible
    either way.  They may also leave out an edge ``(i, j)`` dearer than both
    ``del_l[i]`` and ``del_r[j]``: a perfect matching that uses it stays
    perfect, and no dearer, with the two copy edges and a free
    copy-to-copy edge in its place, and the cheapest edge at each bar,
    which sets lb, is still listed.

    One Hopcroft-Karp run finds a maximum matching at lb; it is perfect
    in most slots.  Then each vertex it leaves free costs one
    ``_cheapest_path``, the augmenting-path method for bottleneck
    assignment (Derigs & Zimmermann, Computing 1978).  Every matched edge
    stays within the optimum d: the matching lies in the graph at d, which
    has a perfect matching, so it has an augmenting path there (Berge),
    and the cheapest path costs at most d.  So the last path's eps is d,
    and the final matching is the witness.  No candidate set is built.
    """
    p, q, size = len(left), len(right), len(nbrs)
    if size == 0:
        return 0.0, ()
    mate_l, mate_r = [-1] * size, [-1] * size
    _hopcroft_karp(nbrs, [bisect_right(c, lb) for c in ecost], p, q, mate_l, mate_r)
    eps = lb
    for _ in range(mate_l.count(-1)):
        eps = _cheapest_path(nbrs, ecost, p, q, mate_l, mate_r, eps)
    out: list[tuple[GradedInterval | None, GradedInterval | None, float]] = []
    for j, i in enumerate(mate_r):
        if i < p and j < q:
            out.append((left[i], right[j], ecost[i][nbrs[i].index(j)]))
        elif i < p:  # left bar matched to its diagonal copy
            out.append((left[i], None, del_l[i]))
        elif j < q:  # right bar matched to its diagonal copy
            out.append((None, right[j], del_r[j]))
    return eps, tuple(out)


def _rows(
    left: Sequence[GradedInterval],
    right: Sequence[GradedInterval],
    del_l: list[float],
    del_r: list[float],
) -> tuple[list[tuple[int, ...]], list[tuple[float, ...]], float] | None:
    """The slot graph of ``_slot_solve``, built in one walk: ``(nbrs,
    ecost, lb)``, or ``None`` when no perfect matching can exist because
    a class of undeletable bars differs in size between the sides.  Else
    the sides have equal vertex counts and no row is empty, as every cost
    within a class is finite: a deletable bar has its copy, an undeletable
    one an edge to each bar of its class.

    Left vertices are the left bars, then the copies of the deletable
    right bars in index order; right vertices are the right bars, then
    the copies of the deletable left bars (``q``, ``q + 1``, ...).
    ``nbrs[u]`` and ``ecost[u]`` hold the listed edges of left vertex
    ``u``, sorted by cost and then vertex, so the graph at any eps keeps
    a bisect prefix of each: a left bar's copy edge ``(del_l[i], q + k)``
    among its pair edges, a right bar's copy only its edge to that bar,
    at ``del_r[j]``.  ``lb`` is the max over bars of their cheapest
    listed edge, own deletion included: every bar needs a partner or its
    copy, so no eps below it is feasible.

    A finite pair cost joins two bars exactly when they share a
    ``point`` slot and class, and it is the L-infinity distance of their
    points.  The right bars are grouped once into blocks by slot and
    class, each sorted by point, and each left bar at ``(u, v)`` looks
    up its block, bisects to ``u`` and walks outward while
    ``abs(u - us[m])`` alone is within its bound, an exact stop as
    rounded subtraction is monotone.  An edge ``(i, j)`` is listed only
    when its cost is at most ``max(del_l[i], del_r[j])``, hera's
    per-pair bound (see ``_slot_solve``), so a left bar walks only up to
    the larger of its own deletion cost and the dearest one in its
    block.  Undeletable bars have infinite deletion costs and keep every
    edge of their class.  A finite pair cost never joins a deletable bar
    to an undeletable one, so the undeletable bars must pair off inside
    their slot and class.
    """
    blocks: dict = {}
    for j, g in enumerate(right):
        slot, s, u, v = point(g)
        blocks.setdefault((slot, s), []).append((u, v, j))
    left_pts = [point(g) for g in left]
    # undeletable bars must pair off inside their slot and class
    need: dict = {}
    for slot, s, _, _ in left_pts:
        if s:
            need[slot, s] = need.get((slot, s), 0) + 1
    if need != {k: len(block) for k, block in blocks.items() if k[1]}:
        return None
    for k, block in blocks.items():
        block.sort()
        us, vs, js = zip(*block)
        ds = [del_r[j] for j in js]
        blocks[k] = us, vs, js, ds, max(ds)
    q = len(right)
    nbrs: list[tuple[int, ...]] = []
    ecost: list[tuple[float, ...]] = []
    col = [INF] * q  # col[j]: the cheapest listed edge of right bar j
    lb = -INF
    vertex = q  # the next left copy's right vertex
    for di, (slot, s, u, v) in zip(del_l, left_pts):
        row = []
        if di < INF:
            row.append((di, vertex))
            vertex += 1
        block = blocks.get((slot, s))
        if block is not None:
            us, vs, js, ds, top = block
            bound = di if di > top else top
            start = bisect_left(us, u)
            for steps in (range(start, len(us)), range(start - 1, -1, -1)):
                for m in steps:
                    g = abs(u - us[m])
                    if g > bound:
                        break
                    h = abs(v - vs[m])
                    c = h if h > g else g
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
    for j, dj in enumerate(del_r):
        c = col[j]
        if dj < c:  # its copy edge, cheaper than every listed one
            c = dj
        if c > lb:
            lb = c
        if dj < INF:
            nbrs.append((j,))
            ecost.append((dj,))
    return nbrs, ecost, lb


def part_bottleneck(
    left: list[GradedInterval] | tuple[GradedInterval, ...],
    right: list[GradedInterval] | tuple[GradedInterval, ...],
) -> tuple[float, Pairing]:
    """Bottleneck value and an optimal matching of two lists of bars.

    The bars may come from any mix of slots.  No finite edge joins two
    ``point`` slots or shape classes, so the value is the max over them
    and the witness their union.  Central bars cannot be deleted, so a
    central slot comes out as a bijection (or ``inf`` when the sizes
    differ).  The sides are read in the order given
    (``distance_with_matching`` passes one slot at a time, in key
    order); another order can change only which of several equally
    optimal witnesses comes back.
    """
    del_l = [deletion_cost(g) for g in left]
    del_r = [deletion_cost(g) for g in right]
    graph = _rows(left, right, del_l, del_r)
    if graph is None:
        return INF, ()
    return _slot_solve(left, right, *graph, del_l, del_r)


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
        value, pairs = part_bottleneck(fs, gs)
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
    """Distance by exhaustive enumeration of matchings, slot by slot.

    Refuses slots larger than ``limit`` bars per side.  Semantically
    identical to ``distance_with_matching`` and kept that way: the fast
    path is tested against this function.
    """
    total = 0.0
    for _, left, right in _slots(F, G):
        if max(len(left), len(right)) > limit:
            raise ValueError(f"slot larger than limit={limit}")
        total = max(total, _brute(left, right))
    return total
