import itertools
import math

import pytest

from conftest import dyadic
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    PersistenceDiagram,
    format_diagrams,
    from_persistence,
    parse_diagrams,
    part_bottleneck,
    to_persistence,
)
from sheafdist.intervals import INF, ParseError
from sheafdist.matching import split_clr


def test_to_persistence_examples():
    b = Barcode((GradedInterval(Interval.right_open(0, 3), 0),))
    assert to_persistence(b, "R", 0) == PersistenceDiagram(0, ((0.0, 3.0),))
    assert to_persistence(b, "R", 1) == PersistenceDiagram(1, ())
    assert to_persistence(b, "L", 0) == PersistenceDiagram(0, ())
    b = Barcode((GradedInterval(Interval.left_open(-2, 5), 1),))
    assert to_persistence(b, "L", 1) == PersistenceDiagram(1, ((-5.0, 2.0),))


def test_from_persistence_examples():
    diagram = PersistenceDiagram(0, ((0.0, 3.0),))
    assert from_persistence(diagram, "R") == (GradedInterval(Interval.right_open(0, 3), 0),)
    assert from_persistence(PersistenceDiagram(0, ()), "R") == ()
    diagram = PersistenceDiagram(1, ((-5.0, 2.0),))
    assert from_persistence(diagram, "L") == (GradedInterval(Interval.left_open(-2, 5), 1),)


@pytest.mark.parametrize("pairs", [(), ((0.0, 1.0),)])
def test_side_is_checked_on_any_diagram(pairs):
    # once only inside the loop over pairs: an empty diagram gave ()
    message = "side must be 'R' or 'L', got 'X'"
    with pytest.raises(ValueError) as exc:
        from_persistence(PersistenceDiagram(0, pairs), "X")
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        to_persistence(Barcode(), "X", 0)
    assert str(exc.value) == message


def test_from_persistence_line_is_not_an_l_bar():
    line = PersistenceDiagram(0, ((-INF, INF),))
    assert from_persistence(line, "R") == (GradedInterval(Interval.line(), 0),)
    with pytest.raises(ValueError):
        from_persistence(line, "L")  # the full line is an R bar


def test_from_persistence_refuses_a_degree_no_reader_reads():
    big = 10**4299  # 4,300 digits
    for side in "RL":
        for degree in (big - 1, 1 - big):
            bars = from_persistence(PersistenceDiagram(degree, ((0.0, 1.0), (-INF, 2.0))), side)
            assert [g.degree for g in bars] == [degree, degree]
        for degree in (big, -big):
            with pytest.raises(ValueError, match="^degree of 4300 digits: a degree has at most 4299$"):
                from_persistence(PersistenceDiagram(degree, ((0.0, 1.0),)), side)


def test_a_diagram_holds_only_what_its_reader_reads():
    # a diagram at degree 10**4299 printed a line parse_diagrams refuses, at
    # 10**4300 format_diagrams raised int's string-limit error, and a pair
    # with an end at 2**1022 printed a number the reader refuses
    big = 10**4299
    for degree, digits in ((big, 4300), (-big, 4300), (10 * big, 4301)):
        with pytest.raises(ValueError, match=f"^degree of {digits} digits: a degree has at most 4299$"):
            PersistenceDiagram(degree, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="^degree of 4300 digits"):
        PersistenceDiagram(0, ((0.0, 1.0),))._replace(degree=big)
    for pair in ((0.0, 2.0**1022), (-(2.0**1022), 0.0), (-1e308, INF), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="^bad diagram pair"):
            PersistenceDiagram(0, (pair,))
    edge = math.nextafter(2.0**1022, 0)
    for degree in (big - 1, 1 - big):
        d = PersistenceDiagram(degree, ((-edge, edge), (-INF, INF)))
        assert parse_diagrams(format_diagrams([d])) == (d,)


def test_a_diagram_takes_its_degree_through_index():
    # PersistenceDiagram(1.5, ...) gave from_persistence a bar that printed
    # as "1.5 [0,1)", which no reader reads
    with pytest.raises(ValueError, match=r"^degree 1\.5 is not an integer$"):
        from_persistence(PersistenceDiagram(1.5, ((0.0, 1.0),)), "R")
    diagram = PersistenceDiagram(True, ((0.0, 1.0),))
    assert type(diagram.degree) is int and diagram == PersistenceDiagram(1, ((0.0, 1.0),))
    assert from_persistence(diagram, "R") == (GradedInterval(Interval.right_open(0.0, 1.0), 1),)


def test_round_trip_with_infinite_ends():
    bars = (
        GradedInterval(Interval.right_open(0, INF), 0),
        GradedInterval(Interval.open(-INF, 2), 0),   # reads as [-inf, 2) on the R side
        GradedInterval(Interval.right_open(1, 4), 0),
    )
    diagram = to_persistence(Barcode(bars), "R", 0)
    assert from_persistence(diagram, "R") == tuple(sorted(bars, key=lambda g: g.key))
    lbars = (
        GradedInterval(Interval.open(3, INF), 2),        # (3, inf) is L-type
        GradedInterval(Interval.left_open(-INF, 0), 2),
        GradedInterval(Interval.left_open(0, 1), 2),
    )
    ld = to_persistence(Barcode(lbars), "L", 2)
    assert from_persistence(ld, "L") == tuple(sorted(lbars, key=lambda g: g.key))


def test_random_round_trips(rng):
    from conftest import random_barcode

    for _ in range(200):
        b = random_barcode(rng, max_bars=8)
        # the diagram of each half-open group of the split is that group
        for (side, degree), (part, _) in split_clr(b.bars, ())[0].items():
            if side != "central":
                diagram = to_persistence(b, side, degree)
                assert from_persistence(diagram, side) == tuple(part)


def test_diagram_validation():
    with pytest.raises(ValueError):
        PersistenceDiagram(0, ((3.0, 3.0),))
    with pytest.raises(ValueError):
        PersistenceDiagram(0, ((4.0, 1.0),))
    with pytest.raises(ValueError):
        to_persistence(Barcode(), "X", 0)


def test_pdg_round_trip():
    text = "# diagram\n0 0 3\n0 -inf 2\n1 1.5 inf\n"
    diagrams = parse_diagrams(text)
    assert [d.degree for d in diagrams] == [0, 1]
    assert diagrams[0].pairs == ((-INF, 2.0), (0.0, 3.0))
    assert parse_diagrams(format_diagrams(diagrams)) == diagrams


def test_pdg_errors():
    with pytest.raises(ParseError):
        parse_diagrams("0 1\n")
    with pytest.raises(ParseError):
        parse_diagrams("0 3 1\n")
    with pytest.raises(ParseError):
        parse_diagrams("x 0 1\n")


# ---------------------------------------------------------------------
# bridge isometry: slot bottleneck == classical diagram bottleneck
# ---------------------------------------------------------------------


def classical_bottleneck(left, right):
    """Brute-force persistence bottleneck on (birth, death) pairs."""

    def pair(p, q):
        gaps = []
        for x, y in zip(p, q):
            if x == y:
                gaps.append(0.0)
            elif x in (INF, -INF) or y in (INF, -INF):
                gaps.append(INF)
            else:
                gaps.append(abs(x - y))
        return max(gaps)

    def diag(p):
        return INF if INF in p or -INF in p else (p[1] - p[0]) / 2

    best = INF
    n, m = len(left), len(right)
    for k in range(0, min(n, m) + 1):
        for keep_l in itertools.combinations(range(n), k):
            for keep_r in itertools.permutations(range(m), k):
                worst = 0.0
                for i, j in zip(keep_l, keep_r):
                    worst = max(worst, pair(left[i], right[j]))
                for i in range(n):
                    if i not in keep_l:
                        worst = max(worst, diag(left[i]))
                for j in range(m):
                    if j not in keep_r:
                        worst = max(worst, diag(right[j]))
                best = min(best, worst)
    return best


def random_r_part(rng, max_bars=4):
    bars = []
    for _ in range(rng.randrange(0, max_bars + 1)):
        lo = dyadic(rng)
        bars.append(GradedInterval(Interval.right_open(lo, lo + dyadic(rng, 0.25, 3)), 0))
    return bars


def test_bridge_isometry(rng):
    for _ in range(200):
        left, right = random_r_part(rng), random_r_part(rng)
        slot_value, _ = part_bottleneck(left, right)
        dl = to_persistence(Barcode(tuple(left)), "R", 0).pairs
        dr = to_persistence(Barcode(tuple(right)), "R", 0).pairs
        assert slot_value == classical_bottleneck(list(dl), list(dr))
