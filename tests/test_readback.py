"""Every record a public builder returns prints as text that its reader reads
back as the same record; a builder that cannot build one raises ValueError.

The builders are ``GradedInterval``, ``PersistenceDiagram``, ``bar_at``,
``convolve_interval``, ``from_persistence`` and ``interpolate``, the last
between a barcode F and a barcode G whose bars are F's, each moved within
its slot and class or deleted, at a time t in [0, d].  Their degrees are
drawn around the readers' limit, ±(10**4299 - 1), and just past it, ±10**4299;
their ends and eps from all floats, with the 2**1022 range limit and the
infinities weighted in.
"""

import math

from hypothesis import given, settings, strategies as st

from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    PersistenceDiagram,
    convolve_interval,
    distance_with_matching,
    format_barcode,
    format_diagrams,
    from_persistence,
    interpolate,
    parse_barcode,
    parse_diagrams,
)
from sheafdist.intervals import INF, bar_at, point

LONG = 10**4299  # the least degree magnitude of 4,300 digits, which no reader reads
EDGE = 2.0**1022  # a finite end is below it in magnitude

degrees = st.sampled_from((0, LONG - 1, 1 - LONG)).flatmap(lambda d: st.integers(d - 2, d + 2))
ends = st.one_of(
    st.sampled_from((0.0, -0.0, 0.5, 1.0, INF, -INF, EDGE, -EDGE,
                     math.nextafter(EDGE, 0), -math.nextafter(EDGE, 0))),
    st.floats(),
)
pairs = st.lists(st.tuples(ends, ends).map(sorted).map(tuple), max_size=3)
shapes = (ends, ends, st.booleans(), st.booleans(), degrees)
# gentler draws for interpolate's barcodes, whose bars must all be built
near = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0)), st.floats(-8, 8), ends)
small_bars = st.tuples(st.tuples(near, near).map(sorted), st.booleans(), st.booleans(),
                       st.one_of(st.integers(-2, 2), degrees))


def _bar(lo, hi, lo_closed, hi_closed, degree):
    return GradedInterval(Interval(lo, hi, lo_closed, hi_closed), degree)


def _convolved(lo, hi, lo_closed, hi_closed, degree, eps):
    return convolve_interval(_bar(lo, hi, lo_closed, hi_closed, degree), eps)


def _from_diagram(degree, pairs, side):
    return from_persistence(PersistenceDiagram(degree, pairs), side)


def _interpolated(moves, frac, swap):
    """The barcode at ``frac`` of the way from F to G.  Each move is a bar
    of F, a shift of its point, and whether G holds the shifted bar (else
    the bar is deleted).  With ``swap`` F and G change roles."""
    F, G = [], []
    for ((lo, hi), lo_closed, hi_closed, degree), du, dv, kept in moves:
        g = _bar(lo, hi, lo_closed, hi_closed, degree)
        F.append(g)
        if kept:
            slot, cls, u, v = point(g)
            G.append(bar_at(slot, cls, u + du, v + dv))
    F, G = Barcode(tuple(F)), Barcode(tuple(G))
    if swap:
        F, G = G, F
    d, matching = distance_with_matching(F, G)
    return interpolate(F, G, matching, d * frac)


BUILDS = st.one_of(
    st.tuples(st.just(_bar), *shapes),
    st.tuples(st.just(PersistenceDiagram), degrees, pairs),
    st.tuples(st.just(bar_at), st.tuples(st.sampled_from(("central", "R", "L")), degrees),
              st.integers(0, 4), ends, ends),
    st.tuples(st.just(_convolved), *shapes, ends),
    st.tuples(st.just(_from_diagram), degrees, pairs, st.sampled_from("RL")),
    st.tuples(st.just(_interpolated),
              st.lists(st.tuples(small_bars, near, near, st.booleans()), min_size=1, max_size=3),
              st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1)), st.booleans()),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(BUILDS)
def test_every_built_record_reads_back(call):
    build, *args = call
    try:
        out = build(*args)
    except ValueError:
        return
    if isinstance(out, PersistenceDiagram):
        assert parse_diagrams(format_diagrams([out])) == ((out,) if out.pairs else ())
    else:
        b = out if type(out) is Barcode else Barcode(out if type(out) is tuple else (out,))
        assert parse_barcode(format_barcode(b)) == b
