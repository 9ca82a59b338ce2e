"""Graded barcodes: finite multisets of graded intervals.

A barcode is the complete isomorphism invariant this library computes
with.  Beyond the container itself this module provides the text format
(``.gbc`` files) and the graded dimensions of global sections (ordinary
and compactly supported), which are invariants of finite distance.  The
central/right/left split that dictates how bars may be matched is
``matching.split_clr``.
"""

from __future__ import annotations

import re

from .intervals import (
    _BY_KEY,
    _DEGREE,
    _DEGREE_DIGITS,
    _INTERVAL,
    _LIMIT,
    GradedInterval,
    ParseError,
    _Frozen,
    _degree,
    _graded,
    _src_shape,
    _text,
    _tgt_shape,
    parse_interval,
)

# one match per line of a text whose lines are joined by ``\n``: a line of a
# degree of at most ``_DEGREE_DIGITS`` digits and a literal, with ``[ \t]``
# padding and an optional comment (the grammars of ``_DEGREE`` and
# ``_INTERVAL``), gives its five fields, and any other line five empty
# strings.  Possessive like ``_FINITE``: a line that is not of the first kind
# fails it without backtracking, then ``.*`` takes it
_LINES = re.compile(
    rf"^(?:[ \t]*+(-?+[0-9]{{1,{_DEGREE_DIGITS}}}+)[ \t]++{_INTERVAL}[ \t]*+(?:#.*+)?+|.*)$",
    re.ASCII | re.MULTILINE,
).findall


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


# ---------------------------------------------------------------------
# .gbc file format: one "<degree> <interval>" entry per line
# ---------------------------------------------------------------------


def parse_barcode(text: str) -> Barcode:
    """Parse the ``.gbc`` format.

    Each non-blank line is ``<degree> <interval>`` with no interior
    spaces inside the interval, e.g. ``0 [-1,1]`` or ``1 (0,inf)``.
    ``#`` starts a comment.  Multiplicity is encoded by repeating lines.
    A line reads as exactly the bar ``Interval`` builds from its literal,
    so a bar of any positive width is kept; a line ``Interval`` refuses
    (an empty interval, a closed flag on an infinite end, a finite end of
    magnitude 2**1022 or more), a degree of more than 4,299 digits, or a
    line that is malformed is a ParseError naming the line and the
    literal, number or degree at fault.

    The text is read in one scan: its lines, as ``str.splitlines`` cuts
    them, are joined by ``\n`` and ``_LINES`` gives one match per line.
    A line of a degree and a valid literal, padded with spaces or tabs
    and perhaps commented, yields its fields; any other line, and any
    such line ``Interval`` refuses, goes through ``_read_line``, which
    names the error.
    """
    lines = text.splitlines()
    if not lines:  # a scan of "" would find one empty line
        return Barcode()
    bars: list[GradedInterval] = []
    for ln, (deg, lb, a, b, rb) in enumerate(_LINES("\n".join(lines)), start=1):
        if deg:
            lo, hi, lc, hc = float(a), float(b), lb == "[", rb == "]"
            # a finite literal that float reads as an infinity is out of range
            if (abs(lo) < _LIMIT or a[-1] == "f") and (abs(hi) < _LIMIT or b[-1] == "f"):
                try:
                    bars.append(_graded(lo, hi, lc, hc, int(deg)))
                    continue
                except ValueError:
                    pass
        g = _read_line(ln, lines[ln - 1])
        if g is not None:
            bars.append(g)
    return Barcode(tuple(bars))


def _read_line(ln: int, raw: str) -> GradedInterval | None:
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
        return GradedInterval(parse_interval(iv_tok), _degree(deg_tok))
    except ValueError as exc:  # a ParseError, or a degree of too many digits
        raise ParseError(f"line {ln}: {exc}") from None


def format_barcode(b: Barcode) -> str:
    """Canonical ``.gbc`` text, which ``parse_barcode`` reads back
    exactly: every bar is one ``Interval`` admits, and every end is below
    2**1022 and printed by ``repr`` or as an integer.  Each line is
    written from the bar's key, by the text rule of ``Interval.__str__``."""
    return "".join(
        f"{d} {_text(lo, lo_open, hi, hi_open)}\n" for (d, lo, lo_open, hi, hi_open), _ in b.bars
    )


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
    flavours.  The converse fails: equal sections are necessary for a
    finite distance, not sufficient, so neither flavour tells whether two
    barcodes lie in one connected component.  ``same_component`` (in
    ``matching``) is the test that does: it counts the undeletable bars
    of each slot and class on both sides.
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
