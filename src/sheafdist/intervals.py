"""Intervals of the real line with explicit boundary flags.

Endpoints live in the extended reals. ``-inf`` and ``inf`` are honest
sentinels (``math.inf``), never the result of overflow, and an infinite
endpoint is always stored with an open flag: ``[2, inf)`` is fine,
``[2, inf]`` is not constructible.  A finite endpoint lies below
``2**1022`` (``_LIMIT``), so no width, midpoint or cost overflows.
``readable`` is the tolerance half of the rule that admits a bar.

``point`` holds the CLR rule that every other module reads: a bar's
slot, shape class and plane point, from its flags, infinities and degree.

Every value here is immutable; all operations are pure functions.  A
bar keeps its sort key and, once read, its ``point``; both follow from
its fields.

The records are written out by hand rather than with ``dataclasses``,
whose import alone (it pulls in ``inspect``) costs a command-line call
about as much as its computation: ``Interval`` is a named tuple whose
constructor runs the checks, ``GradedInterval`` a ``__slots__`` class.
Assigning or deleting a field of either raises ``AttributeError``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum

INF = math.inf

#: default absolute tolerance for comparisons that are tolerance-aware
DEFAULT_TOL = 1e-9

_LIMIT = 2.0**1022  # every finite end is below it: no difference of two ends overflows


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
    """CLR type of an interval: central (C_OPEN, C_CLOSED), right- or
    left-directed (R, L).  ``point`` holds the rule; see ``classify``."""

    C_OPEN = "C_open"
    C_CLOSED = "C_closed"
    R = "R"
    L = "L"


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    """A nonempty interval of the real line.

    ``lo_closed`` / ``hi_closed`` record whether each endpoint belongs
    to the interval.  Valid states: ``lo < hi``, or ``lo == hi`` finite
    with both flags closed (a single point); a finite end is below
    ``2**1022`` in magnitude, so every cost is finite and the text of
    every bar reads back exactly.  Anything else is a ValueError.

    A named tuple: it unpacks as ``lo, hi, lo_closed, hi_closed`` and
    compares equal to (and orders like) the plain tuple of its fields;
    sort bars by ``key``.  ``_make`` and ``_replace`` build through the
    checks too.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> "Interval":
        if not -_LIMIT < lo < hi < _LIMIT:  # bounded, nonempty, in range: every check holds
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("NaN endpoint")
            if lo == INF or hi == -INF:
                raise ValueError("empty interval: endpoint at the wrong infinity")
            if lo == -INF and lo_closed:
                raise ValueError("closed flag on infinite endpoint")
            if hi == INF and hi_closed:
                raise ValueError("closed flag on infinite endpoint")
            if lo > hi:
                raise ValueError(f"empty interval: lo={lo} > hi={hi}")
            if lo == hi and not (lo_closed and hi_closed):
                raise ValueError("empty interval: equal endpoints need both flags closed")
            if _LIMIT <= abs(lo) < INF or _LIMIT <= abs(hi) < INF:
                raise ValueError("endpoint out of range: a finite end must be below 2**1022")
        return tuple.__new__(cls, (lo, hi, lo_closed, hi_closed))

    @classmethod
    def _make(cls, iterable) -> "Interval":
        return cls(*iterable)

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


class _Frozen:
    """Base of the ``__slots__`` records: ``__init__`` sets each field
    once through its slot, and neither assigning nor deleting one is
    allowed afterwards."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GradedInterval(_Frozen):
    """An interval placed in a cohomological degree.

    The pair (interval, degree) is the atom every barcode is made of.
    Degrees are explicit integers; no shift bookkeeping is implied by
    the notation.

    Two values are cached on the instance, outside equality, hashing
    and ``repr``: ``key``, the sort key ``(degree, *interval.key)``, set
    at construction, and the bar's ``point``, set on its first call.
    """

    __slots__ = ("interval", "degree", "key", "_point")
    __match_args__ = ("interval", "degree")

    def __init__(self, interval: Interval, degree: int) -> None:
        _set_interval(self, interval)
        _set_degree(self, degree)
        lo, hi, lc, hc = interval  # (degree, *interval.key), without the property call
        _set_key(self, (degree, lo, not lc, hi, not hc))
        _set_point(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.interval == other.interval and self.degree == other.degree

    def __hash__(self) -> int:
        return hash((self.interval, self.degree))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(interval={self.interval!r}, degree={self.degree!r})"

    def __reduce__(self):
        return self.__class__, (self.interval, self.degree)

    def __str__(self) -> str:
        return f"{self.interval}@{self.degree}"


# the slots' own setters, which ``_Frozen.__setattr__`` leaves as the only way in
_set_interval, _set_degree, _set_key, _set_point = (
    GradedInterval.__dict__[name].__set__ for name in GradedInterval.__slots__
)


def point(g: GradedInterval) -> tuple[tuple[str, int], int, float, float]:
    """Slot, shape class and plane point of a bar: the CLR rule.

    ``(a,b)@m`` sits at ``(b,a)`` and ``[x,y]@m+1`` at ``(x,y)``, both
    bounded, in class 4 of slot ``("central", m)``.  Other bars lie in
    slot ``("R"|"L", degree)`` at their ends, an infinite end mapped to
    0, in class 0 (bounded), 1 (ray to -inf), 2 (ray to inf) or 3 (the
    line).  R holds ``[a,b)``, ``(-inf,b)``, ``[a,inf)`` and the line;
    L holds ``(a,b]``, ``(-inf,b]`` and ``(a,inf)``.  Bars match at
    finite cost exactly when they share slot and class, at the
    L-infinity distance of their points; only class 0 can be deleted.

    The result is computed on the first call and kept on the bar, where
    every later call reads it; it takes no part in equality or hashing."""
    p = g._point
    if p is None:
        iv = g.interval
        lo, hi, lc, hc = iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
        cls = (lo == -INF) + 2 * (hi == INF)
        if not cls and lc == hc:
            p = (("central", g.degree - 1), 4, lo, hi) if lc else (("central", g.degree), 4, hi, lo)
        else:
            side = "R" if lc or (lo == -INF and not hc) else "L"
            p = (side, g.degree), cls, (lo if lo > -INF else 0.0), (hi if hi < INF else 0.0)
        _set_point(g, p)
    return p


def _src_shape(iv: Interval) -> str:
    """Boundary shape of a morphism source: "closed", "ro" (``[a,b)``),
    "lo" (``(a,b]``) or "open".  Infinite bounds are stored open, which
    is exactly the source reading."""
    if iv.lo_closed and iv.hi_closed:
        return "closed"
    if iv.lo_closed:
        return "ro"
    if iv.hi_closed:
        return "lo"
    return "open"


def _tgt_shape(iv: Interval) -> str:
    """Boundary shape of a morphism target: an infinite bound reads as
    closed."""
    lc = iv.lo_closed or iv.lo == -INF
    hc = iv.hi_closed or iv.hi == INF
    if lc and hc:
        return "closed"
    if lc:
        return "ro"
    if hc:
        return "lo"
    return "open"


def classify(iv: Interval) -> Kind:
    """CLR type of an interval, read off its ``point`` in degree 0."""
    (side, m), _, _, _ = point(GradedInterval(iv, 0))
    if side != "central":
        return Kind(side)
    return Kind.C_OPEN if m == 0 else Kind.C_CLOSED


# ---------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------

# ASCII only: ``float`` and ``int`` also read other scripts' digits, and
# ``int`` reads ``+1`` and ``1_0``; ``fullmatch``, as ``$`` also matches
# before a final newline
_FINITE = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER = re.compile(_FINITE, re.ASCII).fullmatch
_INTERVAL = rf"([\[\(])({_FINITE}|[+-]?inf),({_FINITE}|[+-]?inf)([\]\)])"
_DEGREE = re.compile(r"-?[0-9]+").fullmatch  # the one degree grammar of every reader
_SHAPE = re.compile(r"([\[\(])([^,\s]+),([^,\s]+)([\]\)])").fullmatch


def parse_number(tok: str) -> float:
    if tok in ("inf", "+inf"):
        return INF
    if tok == "-inf":
        return -INF
    if not _NUMBER(tok):
        raise ParseError(f"bad number {tok!r}")
    x = float(tok)
    if abs(x) >= _LIMIT:
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
    """Split an interval literal like ``[-1,2.5)`` into raw parts;
    ``parse_number`` reads each end and names any error."""
    m = _SHAPE(text)
    if m is None:
        raise ParseError(f"bad interval literal {text!r}")
    lb, a, b, rb = m.groups()
    return parse_number(a), parse_number(b), lb == "[", rb == "]"


def readable(lo: float, hi: float, lo_closed: bool, hi_closed: bool, tol: float) -> bool:
    """Whether the bar with these parts reads back under ``tol``: one with
    an open end must be wider than ``tol``.  ``Interval`` holds the rest."""
    return hi - lo > tol or (lo_closed and hi_closed and hi >= lo)


def parse_interval(text: str) -> Interval:
    lo, hi, lc, hc = interval_parts(text)
    try:
        return Interval(lo, hi, lc, hc)
    except ValueError as exc:
        raise ParseError(f"{text!r}: {exc}") from exc


def parse_graded_interval(text: str) -> GradedInterval:
    """Parse a graded literal like ``[0,1)@2``; degree defaults to 0."""
    body, at, deg = text.partition("@")
    if at and _DEGREE(deg) is None:
        raise ParseError(f"bad degree in {text!r}")
    return GradedInterval(parse_interval(body), int(deg) if at else 0)
