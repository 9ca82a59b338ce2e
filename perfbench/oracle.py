"""Answer checks, run outside the timed region.

``check_matching`` verifies a distance and its witness from the
outside: the witness must use every bar of F and G exactly once, its
listed costs must be the costs recomputed bar by bar, and their max must
be the distance.  Optimality is certified independently of the solver's
own matcher: each slot attaining the distance is rebuilt as a threshold
graph from costs computed here with numpy, which must have a perfect
matching at the distance and none at the largest candidate below it.
Perfect matchings are decided with ``scipy.optimize.linear_sum_assignment``:
the graph has one exactly when the assignment that pays 1 per non-edge
pays nothing.  (``scipy.sparse.csgraph.maximum_bipartite_matching`` would
be the direct tool, but in scipy 1.17 it did not finish within 40 s on a
700 x 700 threshold graph of 26k edges that this takes 15 ms on.)
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment

INF = math.inf


def slot_of(g) -> tuple:
    """The slot a bar is matched in: ("central", m), ("R", j) or ("L", j)."""
    iv = g.interval
    lo_inf, hi_inf = iv.lo == -INF, iv.hi == INF
    if not (lo_inf or hi_inf) and iv.lo_closed == iv.hi_closed:
        return ("central", g.degree - 1 if iv.lo_closed else g.degree)
    if lo_inf and hi_inf:
        right = True
    elif lo_inf:
        right = not iv.hi_closed
    elif hi_inf:
        right = iv.lo_closed
    else:
        right = iv.lo_closed
    return ("R" if right else "L", g.degree)


def _gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        out = np.abs(x - y)
    out[np.isinf(x) | np.isinf(y)] = INF
    out[x == y] = 0.0
    return out


def _costs(left: list, right: list, central: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair cost matrix and deletion costs of one slot."""

    def arrays(bars):
        lo = np.array([g.interval.lo for g in bars], dtype=float)
        hi = np.array([g.interval.hi for g in bars], dtype=float)
        closed = np.array([g.interval.lo_closed for g in bars], dtype=bool)
        return lo, hi, closed

    (la, ha, ca), (lb, hb, cb) = arrays(left), arrays(right)
    cost = np.maximum(_gap(la[:, None], lb[None, :]), _gap(ha[:, None], hb[None, :]))
    if not central:
        return cost, np.where(np.isfinite(ha - la), (ha - la) / 2.0, INF), np.where(
            np.isfinite(hb - lb), (hb - lb) / 2.0, INF
        )
    # an open bar u against a closed bar s one degree up: r + max(c - s.lo, s.hi - c)
    ra, ma = (ha - la) / 2.0, (la + ha) / 2.0
    rb, mb = (hb - lb) / 2.0, (lb + hb) / 2.0
    open_closed = ra[:, None] + np.maximum(ma[:, None] - lb[None, :], hb[None, :] - ma[:, None])
    closed_open = rb[None, :] + np.maximum(mb[None, :] - la[:, None], ha[:, None] - mb[None, :])
    cost = np.where(ca[:, None] == cb[None, :], cost, np.where(ca[:, None], closed_open, open_closed))
    none_l, none_r = np.full(len(left), INF), np.full(len(right), INF)
    return cost, none_l, none_r


def _perfect(cost, del_l, del_r, eps: float, central: bool) -> bool:
    """Whether the threshold graph at ``eps`` has a perfect matching.

    Half-open slots use the square reduction: each bar may also meet a
    diagonal copy of itself, and diagonal copies meet each other freely.
    """
    p, q = cost.shape
    if central:
        if p != q:
            return False
        adj = cost <= eps
    else:
        adj = np.zeros((p + q, p + q), dtype=bool)
        adj[:p, :q] = cost <= eps
        adj[np.arange(p), q + np.arange(p)] = del_l <= eps
        adj[p + np.arange(q), np.arange(q)] = del_r <= eps
        adj[p:, q:] = True
    missing = ~adj
    rows, cols = linear_sum_assignment(missing)
    return not missing[rows, cols].any()


def _certify(left: list, right: list, central: bool, d: float) -> str | None:
    """Perfect matching at ``d``, none at the largest candidate below it."""
    cost, del_l, del_r = _costs(left, right, central)
    cands = np.concatenate([cost.ravel(), del_l, del_r, [] if central else [0.0]])
    below = cands[cands < d]
    if d < INF and not _perfect(cost, del_l, del_r, d, central):
        return f"no perfect matching at d={d}"
    if below.size and _perfect(cost, del_l, del_r, below.max(), central):
        return f"perfect matching below d at {below.max()}"
    return None


def check_matching(F, G, d: float, matching, pair_cost, deletion_cost) -> str | None:
    """None when ``(d, matching)`` is a correct answer for F and G, else
    what is wrong."""
    if matching.achieved != d:
        return f"achieved {matching.achieved} != distance {d}"
    slots_f: dict[tuple, list] = defaultdict(list)
    slots_g: dict[tuple, list] = defaultdict(list)
    for g in F.bars:
        slots_f[slot_of(g)].append(g)
    for g in G.bars:
        slots_g[slot_of(g)].append(g)
    keys = set(slots_f) | set(slots_g)

    if d == INF:  # some slot must admit no matching at any finite threshold
        if any(_certify(slots_f[k], slots_g[k], k[0] == "central", INF) is None for k in keys):
            return None
        return "infinite distance without an infeasible slot"

    used_f: Counter = Counter()
    used_g: Counter = Counter()
    worst: dict[tuple, float] = defaultdict(float)
    entries = [(("central", m), l, r, c) for m, l, r, c in matching.central_pairs]
    entries += [((s, j), l, r, c) for s, j, l, r, c in matching.halfopen_pairs]
    entries += [
        ((s, j), bar if o == "left" else None, bar if o == "right" else None, c)
        for s, j, o, bar, c in matching.deletions
    ]
    for key, l, r, c in entries:
        for bar, used in ((l, used_f), (r, used_g)):
            if bar is not None:
                if slot_of(bar) != key:
                    return f"{bar} listed in slot {key}"
                used[bar] += 1
        if l is not None and r is not None:
            real = pair_cost(l, r)
        else:
            real = deletion_cost(l if l is not None else r)
        if real != c or c == INF:
            return f"listed cost {c} != recomputed {real} for {l} / {r}"
        worst[key] = max(worst[key], c)
    if used_f != Counter(F.bars) or used_g != Counter(G.bars):
        return "witness does not use every bar exactly once"
    if max(worst.values(), default=0.0) != d:
        return f"witness max {max(worst.values(), default=0.0)} != distance {d}"
    for key in keys:
        if worst[key] == d:
            err = _certify(slots_f[key], slots_g[key], key[0] == "central", d)
            if err:
                return f"slot {key}: {err}"
    return None
