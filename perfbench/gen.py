"""Seeded input generators for the benchmark.

Every generator draws only from the ``random.Random`` it is given, so
one seed gives the same inputs on every run and machine.  Inputs are
produced as ``.gbc`` text, so generating them does not import the
package under test.  Endpoints are multiples of 1/256 within about
[-60, 60]: every cost the solver computes from them is exact in binary
floating point, which lets the checks compare costs with ``==``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GRID = 256
SPAN = 50.0  # left endpoints are drawn from [-SPAN, SPAN]
INF = float("inf")


@dataclass(frozen=True)
class Case:
    """One input pair: ``.gbc`` texts plus what the checks need to know."""

    f_text: str
    g_text: str
    slot_max: int  # largest slot, in bars per side
    infinite: bool = False  # built to be at infinite distance
    eps: float = 0.0  # smoothing width of the pipeline operation


def _q(x: float) -> float:
    return round(x * GRID) / GRID


def _num(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return repr(x)


def _line(degree: int, lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> str:
    lb = "[" if lo_closed else "("
    rb = "]" if hi_closed else ")"
    return f"{degree} {lb}{_num(lo)},{_num(hi)}{rb}"


def _halfopen(side: str, degree: int, lo: float, hi: float) -> str:
    """An R bar ``[a,b)`` or an L bar ``(a,b]``; infinite ends stay open."""
    if side == "R":
        return _line(degree, lo, hi, lo != -INF, False)
    return _line(degree, lo, hi, False, hi != INF)


def _start(rng: random.Random) -> float:
    return _q(rng.uniform(-SPAN, SPAN))


def _width(rng: random.Random) -> float:
    return _q(rng.uniform(0.5, 8.0))


def _jitter(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    new_lo = _q(lo + rng.uniform(-1.0, 1.0))
    return new_lo, max(new_lo + 0.25, _q(hi + rng.uniform(-1.0, 1.0)))


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def halfopen_slot(
    rng: random.Random,
    n: int,
    side: str,
    degree: int,
    rays: float = 0.05,
    line: float = 0.0,
) -> tuple[list[str], list[str]]:
    """One half-open slot with ``n`` bars per side.

    A share ``rays`` of the bars are rays, jittered on their finite end;
    rays cannot be deleted, so both sides get the same rays.  About 15%
    of the bounded bars get no counterpart: the other side holds an
    unrelated fresh bar instead, so deletions matter.  A share ``line``
    of an R slot's bars are the full line.
    """
    f: list[str] = []
    g: list[str] = []
    for _ in range(n):
        u = rng.random()
        if side == "R" and u < line:
            f.append(_line(degree, -INF, INF, False, False))
            g.append(f[-1])
        elif u < line + rays:
            a = _start(rng)
            b = _q(a + rng.uniform(-1.0, 1.0))
            if rng.random() < 0.5:
                f.append(_halfopen(side, degree, a, INF))
                g.append(_halfopen(side, degree, b, INF))
            else:
                f.append(_halfopen(side, degree, -INF, a))
                g.append(_halfopen(side, degree, -INF, b))
        else:
            lo = _start(rng)
            hi = lo + _width(rng)
            f.append(_halfopen(side, degree, lo, hi))
            if u < line + rays + 0.15:
                lo = _start(rng)
                g.append(_halfopen(side, degree, lo, lo + _width(rng)))
            else:
                g.append(_halfopen(side, degree, *_jitter(rng, lo, hi)))
    return f, g


def central_slot(rng: random.Random, n: int, m: int) -> tuple[list[str], list[str]]:
    """One central slot ``m`` with ``n`` bars per side.

    F holds open bars in degree m and, for about 30% of its bars, closed
    bars in degree m+1.  G jitters each bar within its type, except that
    about 25% of the open bars are replaced by their collapse: a closed
    bar about the same centre one degree up.  Those cross-degree pairs
    cost at least half the open bar's width.
    """
    f: list[str] = []
    g: list[str] = []
    for _ in range(n):
        lo = _start(rng)
        hi = lo + _width(rng)
        if rng.random() < 0.3:
            f.append(_line(m + 1, lo, hi, True, True))
            g.append(_line(m + 1, *_jitter(rng, lo, hi), True, True))
            continue
        f.append(_line(m, lo, hi, False, False))
        if rng.random() < 0.25:
            c = (lo + hi) / 2
            rad = _q(rng.uniform(0.0, 1.0))
            g.append(_line(m + 1, c - rad, c + rad, True, True))
        else:
            g.append(_line(m, *_jitter(rng, lo, hi), False, False))
    return f, g


# operations per size tier, smallest tier first: the median is the median
# of the middle tier and p90 that of the top one, so both are taken among
# operations of one size and hold steady across seeds
TIERS = (20, 20, 20, 20, 20)


def tiered_sizes(rng: random.Random, lo: int, hi: int, tiers: tuple[int, ...] = TIERS) -> list[int]:
    """Sizes on a geometric ladder from ``lo`` to ``hi``, ``tiers[k]`` of
    the k-th, in random order.  Every seed gets the same sizes."""
    steps = len(tiers) - 1
    sizes = [round(lo * (hi / lo) ** (k / steps)) for k, count in enumerate(tiers) for _ in range(count)]
    rng.shuffle(sizes)
    return sizes


HALFOPEN_SLOTS = (("R", 0), ("L", 0), ("R", 1), ("L", 1))


def halfopen_case(rng: random.Random, big: int, small: int, which: int) -> Case:
    """R and L slots in degrees 0 and 1; slot ``which`` holds ``big``
    bars per side and the other three hold ``small``."""
    f: list[str] = []
    g: list[str] = []
    for k, (side, degree) in enumerate(HALFOPEN_SLOTS):
        fs, gs = halfopen_slot(rng, big if k == which else small, side, degree)
        f += fs
        g += gs
    return Case(_text(f), _text(g), max(big, small))


def halfopen_ladder_case(rng: random.Random, n: int) -> Case:
    """A single R slot with ``n`` bars per side."""
    f, g = halfopen_slot(rng, n, "R", 0)
    return Case(_text(f), _text(g), n)


def many_slots_case(rng: random.Random, degrees: int, infinite: bool) -> Case:
    """A barcode over ``degrees`` degrees and its perturbation.

    Each degree gets each slot kind (central, R, L) with probability
    0.6, holding 1 to 4 bars per side, with rays and the full line
    among the half-open bars.  With ``infinite`` one central bar is
    dropped from G, so one central slot has mismatched sizes.
    """
    f: list[str] = []
    g: list[str] = []
    central_g: list[int] = []
    largest = 0
    for degree in range(degrees):
        for kind in ("C", "R", "L"):
            if rng.random() >= 0.6:
                continue
            n = rng.randint(1, 4)
            largest = max(largest, n)
            if kind == "C":
                fs, gs = central_slot(rng, n, degree)
                central_g += range(len(g), len(g) + len(gs))
            else:
                fs, gs = halfopen_slot(rng, n, kind, degree, rays=0.1, line=0.03)
            f += fs
            g += gs
    if infinite:
        del g[rng.choice(central_g)]
    eps = _q(rng.uniform(0.25, 2.0))
    return Case(_text(f), _text(g), largest, infinite, eps)
