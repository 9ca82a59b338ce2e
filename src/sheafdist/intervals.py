"""Intervals of the real line with explicit boundary flags.

Endpoints live in the extended reals. ``-inf`` and ``inf`` are honest
sentinels (``math.inf``), never the result of overflow, and an infinite
endpoint is always stored with an open flag: ``[2, inf)`` is fine,
``[2, inf]`` is not constructible.

Every value here is immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

INF = math.inf

#: default absolute tolerance for comparisons that are tolerance-aware
DEFAULT_TOL = 1e-9


class ParseError(ValueError):
    """Malformed textual input (interval literal, barcode or diagram file)."""


def close(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    """Equality of extended reals up to an absolute tolerance.

    Two equal infinities are close; an infinity is never close to a
    finite value.
    """
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol


class Kind(Enum):
    """Support classification of an interval.

    Bounded intervals whose two flags agree are *central* (C_OPEN /
    C_CLOSED).  Intervals shaped like ``[a,b)`` with a,b in the extended
    reals are *right-directed* (R); intervals shaped like ``(a,b]``,
    except the full line, are *left-directed* (L).  Rays are typed by
    which extended-real form they fit: ``(-inf,b)`` and ``[a,inf)`` are
    R, ``(-inf,b]`` and ``(a,inf)`` are L, and the full line is R.
    """

    C_OPEN = "C_open"
    C_CLOSED = "C_closed"
    R = "R"
    L = "L"


@dataclass(frozen=True)
class Interval:
    """A nonempty interval of the real line.

    ``lo_closed`` / ``hi_closed`` record whether each endpoint belongs
    to the interval.  Valid states: ``lo < hi``, or ``lo == hi`` finite
    with both flags closed (a single point).
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("NaN endpoint")
        if self.lo == INF or self.hi == -INF:
            raise ValueError("empty interval: endpoint at the wrong infinity")
        if self.lo == -INF and self.lo_closed:
            raise ValueError("closed flag on infinite endpoint")
        if self.hi == INF and self.hi_closed:
            raise ValueError("closed flag on infinite endpoint")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("empty interval: equal endpoints need both flags closed")

    # -- constructors ------------------------------------------------

    @staticmethod
    def closed(a: float, b: float) -> "Interval":
        return Interval(a, b, True, True)

    @staticmethod
    def open(a: float, b: float) -> "Interval":
        return Interval(a, b, False, False)

    @staticmethod
    def right_open(a: float, b: float) -> "Interval":
        """``[a, b)``; b may be ``inf``."""
        return Interval(a, b, True, False)

    @staticmethod
    def left_open(a: float, b: float) -> "Interval":
        """``(a, b]``; a may be ``-inf``."""
        return Interval(a, b, False, True)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x, True, True)

    @staticmethod
    def line() -> "Interval":
        return Interval(-INF, INF, False, False)

    # -- queries -----------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.lo != -INF and self.hi != INF

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        if not self.bounded:
            raise ValueError("center of an unbounded interval")
        return (self.lo + self.hi) / 2.0

    def contains(self, x: float) -> bool:
        above = self.lo < x or (x == self.lo and self.lo_closed)
        below = x < self.hi or (x == self.hi and self.hi_closed)
        return above and below

    def intersection(self, other: "Interval") -> "Interval | None":
        """Set intersection, or None when it is empty."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        lo_c = all(lo > iv.lo or (lo == iv.lo and iv.lo_closed) for iv in (self, other))
        hi_c = all(hi < iv.hi or (hi == iv.hi and iv.hi_closed) for iv in (self, other))
        if lo > hi or (lo == hi and not (lo_c and hi_c)):
            return None
        return Interval(lo, hi, lo_c, hi_c)

    def translate(self, s: float) -> "Interval":
        lo = self.lo if self.lo == -INF else self.lo + s
        hi = self.hi if self.hi == INF else self.hi + s
        return Interval(lo, hi, self.lo_closed, self.hi_closed)

    @property
    def key(self) -> tuple:
        """Deterministic sort key (lo before hi, closed before open)."""
        return (self.lo, not self.lo_closed, self.hi, not self.hi_closed)

    def approx_eq(self, other: "Interval", tol: float = DEFAULT_TOL) -> bool:
        return (
            self.lo_closed == other.lo_closed
            and self.hi_closed == other.hi_closed
            and close(self.lo, other.lo, tol)
            and close(self.hi, other.hi, tol)
        )

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{fmt_number(self.lo)},{fmt_number(self.hi)}{rb}"


def classify(iv: Interval) -> Kind:
    """CLR type of an interval.  Total and single-valued."""
    lo_inf = iv.lo == -INF
    hi_inf = iv.hi == INF
    if lo_inf and hi_inf:
        return Kind.R
    if lo_inf:
        return Kind.L if iv.hi_closed else Kind.R
    if hi_inf:
        return Kind.R if iv.lo_closed else Kind.L
    if iv.lo_closed and iv.hi_closed:
        return Kind.C_CLOSED
    if not iv.lo_closed and not iv.hi_closed:
        return Kind.C_OPEN
    return Kind.R if iv.lo_closed else Kind.L


@dataclass(frozen=True)
class GradedInterval:
    """An interval placed in a cohomological degree.

    The pair (interval, degree) is the atom every barcode is made of.
    Degrees are explicit integers; no shift bookkeeping is implied by
    the notation.
    """

    interval: Interval
    degree: int

    @property
    def key(self) -> tuple:
        return (self.degree, *self.interval.key)

    def __str__(self) -> str:
        return f"{self.interval}@{self.degree}"


# ---------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------

_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_LITERAL = re.compile(r"([\[\(])([^,\s]+),([^,\s]+)([\]\)])$")


def parse_number(tok: str) -> float:
    if tok in ("inf", "+inf"):
        return INF
    if tok == "-inf":
        return -INF
    if not _NUMBER.match(tok):
        raise ParseError(f"bad number {tok!r}")
    x = float(tok)
    if abs(x) >= 2.0**1022:  # 1e400 reads as inf; below 2**1022 no width overflows
        raise ParseError(f"number {tok!r} out of range: a finite value must be below 2**1022")
    return x


def fmt_number(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def interval_parts(text: str) -> tuple[float, float, bool, bool]:
    """Split an interval literal like ``[-1,2.5)`` into raw parts."""
    m = _LITERAL.match(text)
    if m is None:
        raise ParseError(f"bad interval literal {text!r}")
    lo = parse_number(m.group(2))
    hi = parse_number(m.group(3))
    return lo, hi, m.group(1) == "[", m.group(4) == "]"


def parse_interval(text: str) -> Interval:
    lo, hi, lc, hc = interval_parts(text)
    try:
        return Interval(lo, hi, lc, hc)
    except ValueError as exc:
        raise ParseError(f"{text!r}: {exc}") from exc


def parse_graded_interval(text: str) -> GradedInterval:
    """Parse a graded literal like ``[0,1)@2``; degree defaults to 0."""
    body, at, deg = text.partition("@")
    if at and not re.match(r"-?\d+$", deg):
        raise ParseError(f"bad degree in {text!r}")
    return GradedInterval(parse_interval(body), int(deg) if at else 0)
