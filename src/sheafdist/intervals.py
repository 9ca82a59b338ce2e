"""Intervals of the real line with explicit boundary flags.

Endpoints live in the extended reals. ``-inf`` and ``inf`` are honest
sentinels (``math.inf``), never the result of overflow, and an infinite
endpoint is always stored with an open flag: ``[2, inf)`` is fine,
``[2, inf]`` is not constructible.  A finite endpoint lies below
``2**1022`` (``_LIMIT``), so no width, midpoint or cost overflows.
These checks of ``Interval``, with the bar builders' limit on a degree's
digits, are the one rule that admits a bar: the parser reads a literal
as exactly the bar ``Interval`` builds from it, with no tolerance, so
every bar the library builds prints as text that reads back exactly.

A bar (``GradedInterval``) is the pair of two immutable values, both
set when it is built and neither cached later:

- its sort key ``(degree, lo, lo_open, hi, hi_open)``, the order of every
  ``Barcode``.  It is stored because every ``Barcode`` sorts its bars by
  it, and the pipeline builds several barcodes from the same bars;
- its point ``(slot, cls, u, v)``: the bar's slot, shape class and plane
  point under the CLR rule (``_graded`` states it).  The solver, the
  costs, convolution and geodesics read it through ``point``, a plain
  field read.  ``_graded`` takes each slot tuple ``(side, m)`` from one
  table (``_Slots``), so the bars of a slot share one tuple; the table
  keeps the slots of degrees up to ``_SLOTS_KEPT`` in magnitude, one
  tuple each, and changes no result.

``interval`` and ``degree`` are views of the key, built on each read.
A bar is built from its interval and degree or, by ``bar_at``, from its
point (the inverse of ``point``, and the one place a moved point becomes
a bar again).  The builders own the two rules of a bar: both apply
``Interval``'s rule, and a refused bar raises ``Interval``'s message;
both refuse a degree of more than ``_DEGREE_DIGITS`` (4,299) digits, in
the readers' words ("degree of N digits: a degree has at most 4299"), so
every bar prints as a line the readers take.  ``bar_at`` builds the key
and point of a finite central point, or of a class-0 point with
``u < v``, directly, as ``_graded`` would; rays, the line and every point
it refuses go through ``GradedInterval``.  It also refuses a point with a
finite end's coordinate at an infinity, which no bar of its class has.
The parser's fast loop calls ``_graded`` itself: its grammar already
limits a degree's digits.

Every value here is immutable; all operations are pure functions.  The
records are written out by hand rather than with ``dataclasses``, whose
import alone (it pulls in ``inspect``) costs a command-line call about
as much as its computation: ``Interval`` is a named tuple whose
constructor runs the checks, ``GradedInterval`` a tuple of its key and
point that equals only another bar and orders against nothing.
Assigning or deleting a field of either raises ``AttributeError``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from operator import index, itemgetter

INF = math.inf

_LIMIT = 2.0**1022  # every finite end is below it: no difference of two ends overflows
# the most digits a degree may have.  The commands print degrees one away from
# a bar's (``match``'s central slot, ``gamma``'s sections, ``convolve``'s
# collapse), and one away from 4,300 digits can need 4,301, which ``str``
# refuses (``sys.get_int_max_str_digits``)
_DEGREE_DIGITS = 4299
_DEGREE_MAX = 10**_DEGREE_DIGITS - 1  # the largest degree magnitude of a bar
_DEGREE_MIN = -_DEGREE_MAX  # kept: negating a 4,300-digit int at each test costs more than it


class ParseError(ValueError):
    """Malformed textual input (interval literal, barcode or diagram file)."""


_new = tuple.__new__


def _refuse(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> None:
    """The checks of ``Interval`` that its fast test leaves: a ValueError
    naming what is wrong, or nothing when the interval is admitted."""
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


def _long_degree(digits: int) -> ValueError:
    """The refusal of a degree of ``digits`` digits, more than ``_DEGREE_DIGITS``."""
    return ValueError(f"degree of {digits} digits: a degree has at most {_DEGREE_DIGITS}")


def _as_degree(degree) -> int:
    """``degree`` as ``operator.index`` reads it (``True`` is 1), or a ValueError naming it."""
    try:
        return index(degree)
    except TypeError:
        raise ValueError(f"degree {degree!r} is not an integer") from None


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    """A nonempty interval of the real line.

    ``lo_closed`` / ``hi_closed`` record whether each endpoint belongs
    to the interval.  Valid states: ``lo < hi``, or ``lo == hi`` finite
    with both flags closed (a single point); a finite end is below
    ``2**1022`` in magnitude, so every cost is finite and the text of
    every bar reads back exactly.  Anything else is a ValueError.

    A named tuple: it unpacks as ``lo, hi, lo_closed, hi_closed`` and
    compares equal to (and orders like) the plain tuple of its fields;
    sort bars by ``GradedInterval.key``.  ``_make`` and ``_replace``
    build through the checks too.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> "Interval":
        if not -_LIMIT < lo < hi < _LIMIT:  # bounded, nonempty, in range: every check holds
            _refuse(lo, hi, lo_closed, hi_closed)
        return _new(cls, (lo, hi, lo_closed, hi_closed))

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

    def __str__(self) -> str:
        return _text(self.lo, not self.lo_closed, self.hi, not self.hi_closed)


class _Frozen:
    """Base of the hand-written records: each field is set once, when the
    record is built, and neither assigning nor deleting one is allowed
    afterwards."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_SLOTS_KEPT = 1024  # the degrees whose slot tuples ``_Slots`` keeps


class _Slots(dict):
    """The one ``(side, m)`` tuple of each slot of a side, made on first
    use, for ``|m| <= _SLOTS_KEPT``.  A slot of a larger degree gets a new
    (equal) tuple at each use, so the table stays bounded whatever degrees
    the input holds.  Sharing changes no result, but it spares each bar a
    tuple that the garbage collector tracks (without it, parsing the
    23,120 bars of one halfopen benchmark set-up ran one more full
    collection, about 75 ms on a 2-vCPU host), and a dict finds a shared
    slot key by identity, with no tuple compare."""

    __slots__ = ("side",)

    def __missing__(self, m: int) -> tuple[str, int]:
        slot = (self.side, m)
        if -_SLOTS_KEPT <= m <= _SLOTS_KEPT:
            self[m] = slot
        return slot


_CENTRAL, _R, _L = _Slots(), _Slots(), _Slots()
_CENTRAL.side, _R.side, _L.side = "central", "R", "L"


def _unordered(op: str):
    """An order method that refuses: a bar has no order, and tuple's own
    order would compare a bar's fields with a plain tuple's."""

    def refuse(self, other):
        if isinstance(other, tuple):
            raise TypeError(f"{op!r} not supported between instances of "
                            f"{type(self).__name__!r} and {type(other).__name__!r}")
        return NotImplemented

    return refuse


_BY_KEY = itemgetter(0)  # a bar's sort key: the order of every ``Barcode``
point = itemgetter(1)  # a bar's slot, class and plane point: see ``_graded``


class GradedInterval(_Frozen, tuple):
    """An interval placed in a cohomological degree.

    The pair (interval, degree) is the atom every barcode is made of.
    Degrees are explicit integers of at most 4,299 digits, the readers'
    limit (a ValueError in their words otherwise), stored as the ``int``
    ``operator.index`` gives: ``True`` is 1, a float such as ``1.5`` a
    ValueError.  No shift bookkeeping is implied by the notation.

    A bar is the tuple of its two stored fields, ``(key, point)`` (see
    the module docstring), but it equals only a bar of the same class
    with the same key, and orders against nothing.  ``interval`` and
    ``degree`` are read off the key.
    """

    __slots__ = ()
    __match_args__ = ("interval", "degree")

    def __new__(cls, interval: Interval, degree: int) -> "GradedInterval":
        degree = _as_degree(degree)
        if not _DEGREE_MIN <= degree <= _DEGREE_MAX:
            n = abs(degree)  # its digits, counted without ``str``, which refuses 4,301
            digits = int((n.bit_length() - 1) * 0.3010299956639812)  # times log10(2): a lower bound
            while n >= 10**digits:
                digits += 1
            raise _long_degree(digits)
        lo, hi, lo_closed, hi_closed = interval
        return _graded(lo, hi, lo_closed, hi_closed, degree)

    key = property(_BY_KEY, doc="Sort key ``(degree, lo, lo_open, hi, hi_open)``.")

    @property
    def degree(self) -> int:
        return self[0][0]

    @property
    def interval(self) -> Interval:
        _, lo, lo_open, hi, hi_open = self[0]
        return _new(Interval, (lo, hi, not lo_open, not hi_open))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self[0] == other[0]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return self[0] != other[0]
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
    __lt__, __le__, __gt__, __ge__ = map(_unordered, ("<", "<=", ">", ">="))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(interval={self.interval!r}, degree={self.degree!r})"

    def __reduce__(self):
        return self.__class__, (self.interval, self.degree)

    def __str__(self) -> str:
        return f"{self.interval}@{self.degree}"


def _graded(lo: float, hi: float, lo_closed: bool, hi_closed: bool, degree: int) -> GradedInterval:
    """The bar ``Interval(lo, hi, lo_closed, hi_closed)@degree``, or
    ``Interval``'s ValueError; the caller has checked the degree.  It
    stores its key and its point, which holds the CLR rule: the bar's
    slot, shape class and plane point.

    ``(a,b)@m`` sits at ``(b,a)`` and ``[x,y]@m+1`` at ``(x,y)``, both
    bounded, in class 4 of slot ``("central", m)``.  Other bars lie in
    slot ``("R"|"L", degree)`` at their ends, an infinite end mapped to
    0, in class 0 (bounded), 1 (ray to -inf), 2 (ray to inf) or 3 (the
    line).  R holds ``[a,b)``, ``(-inf,b)``, ``[a,inf)`` and the line;
    L holds ``(a,b]``, ``(-inf,b]`` and ``(a,inf)``.  Bars match at
    finite cost exactly when they share slot and class, at the
    L-infinity distance of their points; only class 0 can be deleted."""
    if -_LIMIT < lo < hi < _LIMIT:  # bounded, nonempty, in range: admitted
        if lo_closed != hi_closed:
            p = ((_R if lo_closed else _L)[degree], 0, lo, hi)
        elif lo_closed:
            p = (_CENTRAL[degree - 1], 4, lo, hi)
        else:
            p = (_CENTRAL[degree], 4, hi, lo)
    else:
        _refuse(lo, hi, lo_closed, hi_closed)
        cls = (lo == -INF) + 2 * (hi == INF)
        if not cls:  # a single point [x,x]
            p = (_CENTRAL[degree - 1], 4, lo, hi)
        else:
            side = _R if lo_closed or (cls & 1 and not hi_closed) else _L
            p = (side[degree], cls, 0.0 if cls & 1 else lo, 0.0 if cls & 2 else hi)
    return _new(GradedInterval, ((degree, lo, not lo_closed, hi, not hi_closed), p))


def bar_at(slot: tuple[str, int], cls: int, u: float, v: float) -> GradedInterval:
    """The bar at point ``(u, v)`` of a slot's class: the inverse of ``point``.

    In slot ``("central", m)`` every point is a bar: ``(v,u)@m`` above the
    diagonal (``u > v``) and ``[u,v]@m+1`` on or below it.  A ray or the
    line ignores the coordinate of its infinite end; class 3 is the line on
    either side, which ``point`` reads as an R bar.  A coordinate of a
    finite end (both in a central slot, ``u`` unless ``cls & 1``, ``v``
    unless ``cls & 2``) at an infinity is a ValueError naming the point,
    as no bar of that slot and class lies there; any other end out of
    range is ``Interval``'s ValueError.

    A degree of the bar beyond ``±_DEGREE_MAX`` is a ValueError in the
    readers' words, so every bar built here prints as a line they read.

    A central point with both coordinates below 2**1022 in magnitude, and
    a class-0 point with ``-2**1022 < u < v < 2**1022``, in a slot whose
    degrees ``m`` and ``m + 1`` are both in range, is a bar ``Interval``
    admits: its key and point are built here, exactly as ``_graded``
    would build them, with the slot tuple taken from the ``_Slots`` table.
    Every other point (rays, the line, and each point refused) is tested
    for an infinite coordinate of a finite end, then goes through
    ``GradedInterval``, which applies both rules."""
    side, m = slot
    if _DEGREE_MIN <= m < _DEGREE_MAX:
        if side == "central":
            if -_LIMIT < u < _LIMIT and -_LIMIT < v < _LIMIT:
                if u > v:
                    return _new(GradedInterval, ((m, v, True, u, True), (_CENTRAL[m], 4, u, v)))
                return _new(GradedInterval, ((m + 1, u, False, v, False), (_CENTRAL[m], 4, u, v)))
        elif not cls and -_LIMIT < u < v < _LIMIT:
            if side == "R":
                return _new(GradedInterval, ((m, u, False, v, True), (_R[m], 0, u, v)))
            return _new(GradedInterval, ((m, u, True, v, False), (_L[m], 0, u, v)))
    # an infinite coordinate of a finite end is the point's fault, whatever the bar's
    if (abs(u) == INF and (side == "central" or not cls & 1)) or (
            abs(v) == INF and (side == "central" or not cls & 2)):
        raise ValueError(f"no bar of slot {slot!r} and class {cls} lies at ({u!r}, {v!r}): "
                         "a finite end's coordinate is infinite")
    if side == "central":  # open above the diagonal, closed on or below it
        lo, hi, closed, degree = (v, u, False, m) if u > v else (u, v, True, m + 1)
        lo_closed = hi_closed = closed
    else:
        lo = -INF if cls & 1 else u
        hi = INF if cls & 2 else v
        lo_closed, hi_closed = (lo > -INF, False) if side == "R" else (False, hi < INF)
        degree = m
    return GradedInterval((lo, hi, lo_closed, hi_closed), degree)


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


# ---------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------

# ASCII only: ``float`` and ``int`` also read other scripts' digits, and
# ``int`` reads ``+1`` and ``1_0``; ``fullmatch``, as ``$`` also matches
# before a final newline.  Possessive (``?+``, ``++``, ``*+``): each
# quantified piece is followed by a character it cannot consume, so no match
# needs to backtrack into one, and the grammar reads the strings its
# backtracking form (the tests' reference) reads, in fewer steps
_FINITE = r"[+-]?+(?:\d++(?:\.\d*+)?+|\.\d++)(?:[eE][+-]?+\d++)?+"
_NUMBER = re.compile(_FINITE, re.ASCII).fullmatch
_INTERVAL = rf"([\[\(])({_FINITE}|[+-]?+inf),({_FINITE}|[+-]?+inf)([\]\)])"
_DEGREE = re.compile(r"-?[0-9]+").fullmatch  # the one degree grammar of every reader
_SHAPE = re.compile(r"([\[\(])([^,\s]+),([^,\s]+)([\]\)])").fullmatch


def _degree(tok: str) -> int:
    """The degree ``tok``, a match of ``_DEGREE``, reads as; more than
    ``_DEGREE_DIGITS`` digits is a ValueError."""
    digits = len(tok) - (tok[:1] == "-")
    if digits > _DEGREE_DIGITS:
        raise _long_degree(digits)
    return int(tok)


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
    """``x`` as the ``.gbc`` text writes it: an integral value below 1e15 in
    magnitude as an integer (``-0.0`` as ``0``), anything else, ``inf`` and
    ``-inf`` included, by ``repr``.  ``repr`` of such a value is its digits
    and ``.0``, so that suffix is the test."""
    s = repr(x)
    if s[-2:] == ".0" and -1e15 < x < 1e15:
        return str(int(x))
    return s


def _text(lo: float, lo_open: bool, hi: float, hi_open: bool) -> str:
    """The literal of an interval, such as ``[-1,2.5)``: the one text form,
    of ``Interval.__str__`` and of each line ``format_barcode`` writes."""
    return f"{'(' if lo_open else '['}{fmt_number(lo)},{fmt_number(hi)}{')' if hi_open else ']'}"


def interval_parts(text: str) -> tuple[float, float, bool, bool]:
    """Split an interval literal like ``[-1,2.5)`` into raw parts;
    ``parse_number`` reads each end and names any error."""
    m = _SHAPE(text)
    if m is None:
        raise ParseError(f"bad interval literal {text!r}")
    lb, a, b, rb = m.groups()
    return parse_number(a), parse_number(b), lb == "[", rb == "]"


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
    interval = parse_interval(body)
    try:
        degree = _degree(deg) if at else 0
    except ValueError as exc:  # too many digits
        raise ParseError(f"bad degree in {text!r}: {exc}") from None
    return GradedInterval(interval, degree)
