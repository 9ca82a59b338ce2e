"""A fixed reference computation that gauges the host's speed.

The benchmark runs on shared machines whose speed drifts by 1.4-1.8x
over minutes, and a run of 45 s can fall wholly in a slow stretch.  The
reference is a small pure-Python bottleneck matching on a fixed input,
written here and independent of the package under test, so a change to
the package cannot move it.  Timed between the operations of a run, it
says how fast the host was during that run, and the benchmark scales its
timings by it (see ``REF_MS`` in ``run.py``).
"""

from __future__ import annotations

import random

N = 48  # points per side


def _instance() -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    rng = random.Random(20180524)
    left = [(rng.uniform(0, 50), rng.uniform(0.5, 8)) for _ in range(N)]
    right = [(a + rng.uniform(-1, 1), w + rng.uniform(-1, 1)) for a, w in left]
    rng.shuffle(right)
    return left, right


LEFT, RIGHT = _instance()


def _augment(u: int, adj: list[list[int]], match_r: list[int], seen: list[bool]) -> bool:
    for v in adj[u]:
        if not seen[v]:
            seen[v] = True
            if match_r[v] < 0 or _augment(match_r[v], adj, match_r, seen):
                match_r[v] = u
                return True
    return False


def _perfect(cost: list[list[float]], eps: float) -> bool:
    adj = [[v for v, c in enumerate(row) if c <= eps] for row in cost]
    match_r = [-1] * len(cost)
    return all(_augment(u, adj, match_r, [False] * len(cost)) for u in range(len(cost)))


def bottleneck() -> float:
    """The bottleneck cost of a perfect matching of LEFT against RIGHT:
    a cost matrix, its sorted distinct values, and a binary search of
    augmenting-path matchings over them."""
    cost = [[max(abs(a - b), abs(a + w - b - x)) for b, x in RIGHT] for a, w in LEFT]
    values = sorted({c for row in cost for c in row})
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect(cost, values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return values[lo]
