"""Bridge between half-open barcode parts and persistence diagrams.

An R-part bar ``[a,b)@j`` is exactly the interval module with birth a
and death b; an L-part bar ``(a,b]@j`` becomes ``(-b,-a)`` after
reflecting the line, so one diagram convention serves both sides.  The
translation is lossless in both directions and turns the half-open slot
bottleneck into the classical persistence bottleneck (same sup cost,
same half-length deletion cost).  The half-open slots are the R and L
groups of ``matching.split_clr``; ``to_persistence`` reads one straight
off a ``Barcode``, by ``point``.

Diagrams identify barcodes, not finer module structure: two modules at
distance zero translate to the same diagram.
"""

from __future__ import annotations

from collections import namedtuple

from .barcode import Barcode
from .intervals import (
    _BY_KEY,
    _DEGREE,
    _LIMIT,
    INF,
    GradedInterval,
    ParseError,
    _as_degree,
    _degree,
    bar_at,
    fmt_number,
    parse_number,
    point,
)


class PersistenceDiagram(namedtuple("PersistenceDiagram", "degree pairs")):
    """Multiset of (birth, death) pairs in one homological degree, kept
    sorted.  The degree is checked as a bar's is (``_as_degree``), and a
    pair needs ``birth < death`` with each finite end below 2**1022, so
    every diagram prints as lines ``parse_diagrams`` reads back.  ``_make``
    and ``_replace`` build through the checks too."""

    __slots__ = ()

    def __new__(
        cls, degree: int, pairs: tuple[tuple[float, float], ...] = ()
    ) -> "PersistenceDiagram":
        degree = _as_degree(degree)
        pairs = tuple(sorted(pairs))
        for birth, death in pairs:
            if not birth < death or _LIMIT <= abs(birth) < INF or _LIMIT <= abs(death) < INF:
                raise ValueError(f"bad diagram pair ({birth}, {death})")
        return tuple.__new__(cls, (degree, pairs))

    @classmethod
    def _make(cls, iterable) -> "PersistenceDiagram":
        return cls(*iterable)


def to_persistence(barcode: Barcode, side: str, degree: int) -> PersistenceDiagram:
    """Diagram of one half-open slot of ``barcode``, ``side`` "R" or "L":
    the bars that ``point`` puts in slot ``(side, degree)``, their ends
    read off each bar's key."""
    if side not in ("R", "L"):
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    slot = (side, degree)
    ends = [(g.key[1], g.key[3]) for g in barcode.bars if point(g)[0] == slot]
    pairs = ends if side == "R" else [(-hi, -lo) for lo, hi in ends]
    return PersistenceDiagram(degree, tuple(pairs))


def from_persistence(diagram: PersistenceDiagram, side: str) -> tuple[GradedInterval, ...]:
    """Inverse of ``to_persistence``; returns the slot's bars.  A pair
    with no bar on ``side`` (``(-inf, inf)``, the full line, on L) is a
    ``ValueError``."""
    if side not in ("R", "L"):
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    slot, bars = (side, diagram.degree), []
    for birth, death in diagram.pairs:
        lo, hi = (birth, death) if side == "R" else (-death, -birth)
        g = bar_at(slot, (lo == -INF) + 2 * (hi == INF), lo, hi)
        if point(g)[0][0] != side:
            pair = f"({fmt_number(birth)}, {fmt_number(death)})"
            raise ValueError(f"pair {pair} reads as {g}, not an {side} bar")
        bars.append(g)
    return tuple(sorted(bars, key=_BY_KEY))


# ---------------------------------------------------------------------
# .pdg file format: "<degree> <birth> <death>" per line
# ---------------------------------------------------------------------


def parse_diagrams(text: str) -> tuple[PersistenceDiagram, ...]:
    """Parse a ``.pdg`` file into one diagram per degree.  A malformed
    line, or a degree of more than 4,299 digits, is a ParseError naming
    the line."""
    by_degree: dict[int, list[tuple[float, float]]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"line {ln}: expected '<degree> <birth> <death>'")
        if _DEGREE(fields[0]) is None:
            raise ParseError(f"line {ln}: bad degree {fields[0]!r}")
        try:
            degree = _degree(fields[0])
            birth = parse_number(fields[1])
            death = parse_number(fields[2])
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
        if not birth < death:
            raise ParseError(f"line {ln}: birth must be below death")
        by_degree.setdefault(degree, []).append((birth, death))
    return tuple(
        PersistenceDiagram(deg, tuple(pairs)) for deg, pairs in sorted(by_degree.items())
    )


def format_diagrams(diagrams: tuple[PersistenceDiagram, ...] | list[PersistenceDiagram]) -> str:
    lines = []
    for d in sorted(diagrams, key=lambda d: d.degree):
        for birth, death in d.pairs:
            lines.append(f"{d.degree} {fmt_number(birth)} {fmt_number(death)}\n")
    return "".join(lines)
