"""Graded barcodes: finite multisets of graded intervals.

A barcode is the complete isomorphism invariant this library computes
with.  Beyond the container itself this module provides the text format
(``.gbc`` files), the central/right/left split that dictates how bars
may be matched, and the graded dimensions of global sections (ordinary
and compactly supported), which are invariants of finite distance.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import attrgetter

from .intervals import (
    _DEGREE,
    _INTERVAL,
    _LIMIT,
    DEFAULT_TOL,
    GradedInterval,
    Interval,
    ParseError,
    _Frozen,
    _src_shape,
    _tgt_shape,
    interval_parts,
    point,
    readable,
)

_BY_KEY = attrgetter("key")
# a ``.gbc`` line of a degree and a literal, with ``[ \t]`` padding and an
# optional comment: the grammars of ``_DEGREE`` and ``_INTERVAL`` in one match
_LINE = re.compile(rf"[ \t]*(-?[0-9]+)[ \t]+{_INTERVAL}[ \t]*(?:#.*)?", re.ASCII).fullmatch


class Barcode(_Frozen):
    """Finite multiset of graded intervals, stored canonically sorted.

    Multiplicity is preserved (the same bar may occur several times);
    equality and hashing are multiset equality.
    """

    __slots__ = ("bars",)
    __match_args__ = ("bars",)

    def __init__(self, bars: tuple[GradedInterval, ...] = ()) -> None:
        object.__setattr__(self, "bars", tuple(sorted(bars, key=_BY_KEY)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bars == other.bars

    def __hash__(self) -> int:
        return hash((self.bars,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(bars={self.bars!r})"

    def __reduce__(self):
        return self.__class__, (self.bars,)

    def __len__(self) -> int:
        return len(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def approx_eq(self, other: "Barcode", tol: float = DEFAULT_TOL) -> bool:
        """Multiset equality with endpoint tolerance (degrees and flags exact)."""
        if len(self) != len(other):
            return False
        return all(
            a.degree == b.degree and a.interval.approx_eq(b.interval, tol)
            for a, b in zip(self.bars, other.bars)
        )


# ---------------------------------------------------------------------
# .gbc file format: one "<degree> <interval>" entry per line
# ---------------------------------------------------------------------


def parse_barcode(text: str, tol: float = DEFAULT_TOL) -> Barcode:
    """Parse the ``.gbc`` format.

    Each non-blank line is ``<degree> <interval>`` with no interior
    spaces inside the interval, e.g. ``0 [-1,1]`` or ``1 (0,inf)``.
    ``#`` starts a comment.  Multiplicity is encoded by repeating lines.
    Raises ParseError (with line number) for malformed lines, empty
    intervals (up to ``tol``) and closed flags on infinite endpoints.

    A line of a degree and a valid literal, padded with spaces or tabs
    and perhaps commented, is read by one match of ``_LINE`` and the
    checks of ``parse_bar``; any other line, and any such line those
    checks refuse, goes through ``_read_line``, which names the error.
    """
    bars: list[GradedInterval] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        m = _LINE(raw)
        if m is not None:
            deg, lb, a, b, rb = m.groups()
            lo, hi, lc, hc = float(a), float(b), lb == "[", rb == "]"
            if ((abs(lo) < _LIMIT or a[-1] == "f") and (abs(hi) < _LIMIT or b[-1] == "f")
                    and (hi - lo > tol or (lc and hc and hi >= lo))):
                try:
                    bars.append(GradedInterval(Interval(lo, hi, lc, hc), int(deg)))
                    continue
                except ValueError:
                    pass
        g = _read_line(ln, raw, tol)
        if g is not None:
            bars.append(g)
    return Barcode(tuple(bars))


def _read_line(ln: int, raw: str, tol: float) -> GradedInterval | None:
    """Line ``ln`` of a ``.gbc`` text, field by field: its bar, or
    ``None`` when it is blank or a comment.  Raises ParseError naming the
    line and what is wrong with it."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    fields = line.split()
    if len(fields) != 2:
        raise ParseError(f"line {ln}: expected '<degree> <interval>', got {line!r}")
    deg_tok, iv_tok = fields
    if _DEGREE(deg_tok) is None:
        raise ParseError(f"line {ln}: bad degree {deg_tok!r}")
    try:
        return parse_bar(int(deg_tok), iv_tok, tol)
    except ValueError as exc:
        raise ParseError(f"line {ln}: {exc}") from None


def parse_bar(degree: int, literal: str, tol: float = DEFAULT_TOL) -> GradedInterval:
    """One bar as ``parse_barcode`` reads it: the interval ``literal`` in
    ``degree``.  A bar with an open end and a width of at most ``tol`` is
    empty.  Raises ValueError (ParseError for the literal itself)."""
    lo, hi, lc, hc = interval_parts(literal)
    if not readable(lo, hi, lc, hc, tol):
        raise ParseError(f"empty interval {literal!r}")
    return GradedInterval(Interval(lo, hi, lc, hc), degree)


def format_barcode(b: Barcode) -> str:
    """Canonical ``.gbc`` text, which ``parse_barcode`` reads back exactly
    at ``tol=0``: every end is below 2**1022 and printed by ``repr`` or
    as an integer.  At ``tol > 0`` it reads back exactly when no bar with
    an open end is ``tol``-narrow, a width of at most ``tol``
    (``readable``); ``interpolate`` and ``from_persistence`` can build
    such bars, and the command line refuses to print them."""
    return "".join(f"{g.degree} {g.interval}\n" for g in b.bars)


# ---------------------------------------------------------------------
# CLR split
# ---------------------------------------------------------------------


class CLRSplit(namedtuple("CLRSplit", "central right left")):
    """Barcode regrouped for matching: ``central[m]``, ``right[j]`` and
    ``left[j]`` hold the bars that ``point`` puts in slot
    ``("central", m)``, ``("R", j)`` and ``("L", j)``.  Each field
    defaults to a new empty dict."""

    __slots__ = ()

    def __new__(
        cls,
        central: dict[int, tuple[GradedInterval, ...]] | None = None,
        right: dict[int, tuple[GradedInterval, ...]] | None = None,
        left: dict[int, tuple[GradedInterval, ...]] | None = None,
    ) -> "CLRSplit":
        return tuple.__new__(cls, ({} if central is None else central,
                                   {} if right is None else right,
                                   {} if left is None else left))


def split_clr(b: Barcode) -> CLRSplit:
    parts: dict[str, dict[int, list[GradedInterval]]] = {"central": {}, "R": {}, "L": {}}
    for g in b:
        (side, m), _, _, _ = point(g)
        parts[side].setdefault(m, []).append(g)
    freeze = lambda d: {m: tuple(v) for m, v in sorted(d.items())}
    return CLRSplit(freeze(parts["central"]), freeze(parts["R"]), freeze(parts["L"]))


# ---------------------------------------------------------------------
# global sections
# ---------------------------------------------------------------------

# relative degree of the one-dimensional piece a bar of each shape contributes
_SECTION_DEGREE = {"closed": 0, "open": 1}


def global_sections(b: Barcode, compact_support: bool = False) -> dict[int, int]:
    """Graded dimensions of (compactly supported) global sections.

    Each bar contributes one dimension in a single degree, shifted by
    the bar's own degree: closed bars in their own degree, open bars one
    up, half-open bars nothing.  A ray's shape is read as in ``homs``:
    its infinite bound counts as closed for ordinary sections (the
    target reading) and as open for compactly supported ones (the source
    reading).  Two barcodes at finite distance always agree on both
    flavours.
    """
    shape = _src_shape if compact_support else _tgt_shape
    dims: dict[int, int] = {}
    for g in b:
        rel = _SECTION_DEGREE.get(shape(g.interval))
        if rel is None:
            continue
        d = g.degree + rel
        dims[d] = dims.get(d, 0) + 1
    return dict(sorted(dims.items()))
