"""Shared generators for randomized tests.

Endpoints are dyadic rationals (multiples of 1/16) so that the float
arithmetic in the library is exact: semigroup laws, matcher-vs-oracle
comparisons and endpoint recovery can then be asserted with ==.
"""

from __future__ import annotations

import random

import pytest

from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    convolve_interval,
)
from sheafdist.intervals import INF, point


def dyadic(rng: random.Random, lo: float = -6, hi: float = 6, step: int = 8) -> float:
    return rng.randrange(int(lo * step), int(hi * step) + 1) / step


def random_interval(rng: random.Random, unbounded_ok: bool = True) -> Interval:
    kind = rng.randrange(8 if unbounded_ok else 4)
    a = dyadic(rng)
    w = dyadic(rng, 0.25, 4)
    if kind == 0:
        return Interval.closed(a, a + w)
    if kind == 1:
        return Interval.open(a, a + w)
    if kind == 2:
        return Interval.right_open(a, a + w)
    if kind == 3:
        return Interval.left_open(a, a + w)
    if kind == 4:
        return Interval.right_open(a, INF)
    if kind == 5:
        return Interval.left_open(-INF, a)
    if kind == 6:
        return Interval.open(a, INF) if rng.random() < 0.5 else Interval.open(-INF, a)
    return Interval.line()


def random_graded(rng: random.Random, unbounded_ok: bool = True) -> GradedInterval:
    return GradedInterval(random_interval(rng, unbounded_ok), rng.randrange(-1, 2))


def random_barcode(rng: random.Random, max_bars: int = 6, unbounded_ok: bool = True) -> Barcode:
    n = rng.randrange(0, max_bars + 1)
    return Barcode(tuple(random_graded(rng, unbounded_ok) for _ in range(n)))


def perturbed_barcode(rng: random.Random, b: Barcode, scale: float = 1.0) -> Barcode:
    """A barcode at guaranteed finite distance from ``b``.

    Central bars are jittered within their type (open bars sometimes
    collapsed onto their closed image one degree up); half-open bars are
    jittered, sometimes dropped (bounded ones only), and fresh short
    half-open bars may be added.
    """
    bars: list[GradedInterval] = []
    for g in b:
        iv = g.interval
        if point(g)[0][0] == "central":
            if not iv.lo_closed and rng.random() < 0.25:  # an open bar
                bars.append(convolve_interval(g, iv.width / 2 + abs(dyadic(rng, 0, 1, 16))))
                continue
            lo = iv.lo + dyadic(rng, -scale, scale, 16)
            hi = iv.hi + dyadic(rng, -scale, scale, 16)
            if hi - lo < 0.125:
                hi = lo + 0.125
            bars.append(GradedInterval(Interval(lo, hi, iv.lo_closed, iv.hi_closed), g.degree))
        else:
            if iv.bounded and rng.random() < 0.25:
                continue
            lo = iv.lo if iv.lo == -INF else iv.lo + dyadic(rng, -scale, scale, 16)
            hi = iv.hi if iv.hi == INF else iv.hi + dyadic(rng, -scale, scale, 16)
            if iv.bounded and hi <= lo:
                hi = lo + 0.25
            bars.append(GradedInterval(Interval(lo, hi, iv.lo_closed, iv.hi_closed), g.degree))
    if rng.random() < 0.4:
        a = dyadic(rng)
        short = Interval.right_open(a, a + 0.5) if rng.random() < 0.5 else Interval.left_open(a, a + 0.5)
        bars.append(GradedInterval(short, rng.randrange(-1, 2)))
    return Barcode(tuple(bars))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBA5E)
