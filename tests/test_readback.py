"""Every record a public builder returns prints as text that its reader reads
back as the same record; a builder that cannot build one raises ValueError.

The builders are ``GradedInterval``, ``PersistenceDiagram``, ``bar_at``,
``convolve_interval`` and ``from_persistence``.  Their degrees are drawn
around the readers' limit, ±(10**4299 - 1), and just past it, ±10**4299;
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
    format_barcode,
    format_diagrams,
    from_persistence,
    parse_barcode,
    parse_diagrams,
)
from sheafdist.intervals import INF, bar_at

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


def _bar(lo, hi, lo_closed, hi_closed, degree):
    return GradedInterval(Interval(lo, hi, lo_closed, hi_closed), degree)


def _convolved(lo, hi, lo_closed, hi_closed, degree, eps):
    return convolve_interval(_bar(lo, hi, lo_closed, hi_closed, degree), eps)


def _from_diagram(degree, pairs, side):
    return from_persistence(PersistenceDiagram(degree, pairs), side)


BUILDS = st.one_of(
    st.tuples(st.just(_bar), *shapes),
    st.tuples(st.just(PersistenceDiagram), degrees, pairs),
    st.tuples(st.just(bar_at), st.tuples(st.sampled_from(("central", "R", "L")), degrees),
              st.integers(0, 4), ends, ends),
    st.tuples(st.just(_convolved), *shapes, ends),
    st.tuples(st.just(_from_diagram), degrees, pairs, st.sampled_from("RL")),
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
        b = Barcode(out if type(out) is tuple else (out,))
        assert parse_barcode(format_barcode(b)) == b
