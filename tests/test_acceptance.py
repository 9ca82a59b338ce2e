"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with its
runtime when it succeeds (run with ``pytest -s tests/test_acceptance.py``
to see them inline).  Tolerances are pinned here and nowhere else.
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

from conftest import dyadic, perturbed_barcode, random_barcode
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    bruteforce_distance,
    convolve_interval,
    distance_with_matching,
    ext_oracle,
    global_sections,
    hom_dim,
    interpolate,
    parse_barcode,
    part_bottleneck,
    split_clr,
    stalk_type,
    to_persistence,
)
from sheafdist.homs import _src_shape, _tgt_shape
from sheafdist.intervals import INF, point

FIXTURES = Path(__file__).parent / "fixtures"
CIRCLE_F = FIXTURES / "circle_f.gbc"
CIRCLE_G = FIXTURES / "circle_g.gbc"


def _report(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS  criterion {n}: {label}  [{elapsed:.2f}s]")


# ---------------------------------------------------------------------
# 1. circle example
# ---------------------------------------------------------------------

def test_criterion_1_circle():
    t0 = time.perf_counter()
    F = parse_barcode(CIRCLE_F.read_text())
    G = parse_barcode(CIRCLE_G.read_text())
    value, matching = distance_with_matching(F, G)
    assert value == 1.0
    pairs = {(m, str(l), str(r), c) for m, l, r, c in matching.central_pairs}
    assert (-1, "[-1,1]@0", "[0,0]@0", 1.0) in pairs
    assert (0, "(-1,1)@0", "[0,0]@1", 1.0) in pairs
    _report(1, "circle distance is exactly 1 with the two central pairs", t0, 0.1)
    out = subprocess.run(
        [sys.executable, "-m", "sheafdist", "dist", str(CIRCLE_F), str(CIRCLE_G)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 and float(out.stdout.strip()) == 1.0
    out = subprocess.run(
        [sys.executable, "-m", "sheafdist", "match", str(CIRCLE_F), str(CIRCLE_G)],
        capture_output=True,
        text=True,
    )
    assert "C -1 [-1,1]@0 [0,0]@0 1" in out.stdout
    assert "C 0 (-1,1)@0 [0,0]@1 1" in out.stdout


# ---------------------------------------------------------------------
# 2. hom tables
# ---------------------------------------------------------------------

def _grid(rays):
    vals = (0.0, 1.0, 2.0, 3.0)
    out = []
    for a, b in itertools.combinations(vals, 2):
        for lc in (True, False):
            for hc in (True, False):
                out.append(Interval(a, b, lc, hc))
    out.extend(Interval.point(v) for v in vals)
    if rays:
        for v in vals:
            out += [
                Interval.right_open(v, INF),
                Interval.open(v, INF),
                Interval.open(-INF, v),
                Interval.left_open(-INF, v),
            ]
        out.append(Interval.line())
    return out


def _reference_hom0(s, t):
    a, b, c, d = s.lo, s.hi, t.lo, t.hi
    table = {
        ("open", "open"): c <= a and b <= d,
        ("open", "closed"): a < d and c < b,
        ("open", "ro"): c < b <= d,
        ("open", "lo"): c <= a < d,
        ("closed", "closed"): a <= c and d <= b,
        ("ro", "closed"): a <= c < b,
        ("ro", "ro"): a <= c < b <= d,
        ("lo", "closed"): a < d <= b,  # mirror image of the ro/closed entry
        ("lo", "lo"): c <= a < d <= b,
    }
    return 1 if table.get((_src_shape(s), _tgt_shape(t)), False) else 0


def _naive_hom1(s, t):
    # first-guess endpoint rules; the implementation deviates from these
    # exactly on the documented boundary classes
    a, b, c, d = s.lo, s.hi, t.lo, t.hi
    table = {
        ("open", "open"): a < c and d < b,
        ("closed", "open"): a < d and c < b,
        ("closed", "closed"): c <= a and b <= d,
        ("closed", "ro"): c < a,
        ("closed", "lo"): b < d,
        ("ro", "open"): a <= d < b,
        ("ro", "ro"): c < a <= d < b,
        ("lo", "open"): a < c <= b,
        ("lo", "lo"): a < c <= b < d,
    }
    return 1 if table.get((_src_shape(s), _tgt_shape(t)), False) else 0


# the degree-1 classes where ``_hom1`` differs from ``_naive_hom1``, as
# ``(source_shape, target_shape, naive, actual, condition on a, b, c, d)``;
# docs/hom_boundary_cases.md names each class and gives its witness
DEGREE1_DEVIATIONS = (
    ("closed", "open", 0, 1, lambda a, b, c, d: b == c),
    ("closed", "open", 0, 1, lambda a, b, c, d: a == d),
    ("closed", "closed", 1, 0, lambda a, b, c, d: a == c and b <= d),
    ("closed", "closed", 1, 0, lambda a, b, c, d: b == d and c <= a),
    ("closed", "ro", 1, 0, lambda a, b, c, d: c < a and d < a),
    ("closed", "lo", 1, 0, lambda a, b, c, d: b < d and b < c),
)


def test_criterion_2_hom_tables():
    t0 = time.perf_counter()
    full = _grid(rays=True)
    for s in full:
        for t in full:
            got = hom_dim(GradedInterval(s, 0), GradedInterval(t, 0))
            assert got == _reference_hom0(s, t), (str(s), str(t))
    bounded = _grid(rays=False)
    undocumented, matched = [], set()
    for s in bounded:
        for t in bounded:
            got = hom_dim(GradedInterval(s, 0), GradedInterval(t, 1))
            assert got == ext_oracle(GradedInterval(s, 0), GradedInterval(t, 1))
            naive = _naive_hom1(s, t)
            shapes = (_src_shape(s), _tgt_shape(t))
            documented = [row for row in DEGREE1_DEVIATIONS
                          if row[:2] == shapes and row[4](s.lo, s.hi, t.lo, t.hi)]
            if (naive != got) != bool(documented):
                undocumented.append((str(s), str(t), naive, got))
            for row in documented:
                assert row[2:4] == (naive, got), (row[:4], str(s), str(t))
            matched.update(documented)
    assert not undocumented, undocumented
    # every row names a class the grid holds
    assert [row[:4] for row in DEGREE1_DEVIATIONS if row not in matched] == []
    _report(2, "degree-0 table exact on the full grid; degree-1 matches the "
               "resolution oracle with all deviations enumerated", t0, 5.0)


# ---------------------------------------------------------------------
# 3. convolution
# ---------------------------------------------------------------------

def test_criterion_3_convolution():
    from conftest import random_graded

    t0 = time.perf_counter()
    rng = random.Random(3)
    checked = 0
    while checked < 10_000:
        g = random_graded(rng)
        eps = dyadic(rng, -3, 3)
        out = convolve_interval(g, eps)
        lo = out.interval.lo if out.interval.lo > -INF else -8.0
        hi = out.interval.hi if out.interval.hi < INF else 8.0
        x = dyadic(rng, lo - 1, hi + 1, 16) if rng.random() < 0.5 else rng.uniform(lo - 1, hi + 1)
        expected = {out.degree: 1} if out.interval.contains(x) else {}
        assert stalk_type(g, eps, x) == expected, (g, eps, x)
        checked += 1
    straddled = 0
    for k in range(2000):
        g = random_graded(rng)
        e1, e2 = abs(dyadic(rng)), abs(dyadic(rng))
        if k % 3 == 0:
            # force a crossing of the open-bar collapse threshold
            lo = dyadic(rng)
            g = GradedInterval(Interval.open(lo, lo + dyadic(rng, 0.5, 4)), g.degree)
            e2 = dyadic(rng, 0.0625, g.interval.width / 2, 16)
            e1 = g.interval.width / 2 - e2
            straddled += 1
        assert convolve_interval(g, e1 + e2) == convolve_interval(convolve_interval(g, e1), e2)
    assert straddled > 100
    _report(3, "stalk oracle agreement on 10000 triples; semigroup law exact on "
               "2000 cases incl. threshold straddles", t0, 5.0)


# ---------------------------------------------------------------------
# 4. matching oracle
# ---------------------------------------------------------------------

def test_criterion_4_matching_oracle():
    t0 = time.perf_counter()
    rng = random.Random(4)
    infinite_seen = 0
    for k in range(220):
        F = random_barcode(rng, max_bars=5)
        G = perturbed_barcode(rng, F) if k % 3 == 0 else random_barcode(rng, max_bars=5)
        fast, _ = distance_with_matching(F, G)
        assert fast == bruteforce_distance(F, G)
        infinite_seen += fast == INF
    assert infinite_seen > 10
    _report(4, "fast matcher equals brute force on 220 pairs (inf included)", t0, 30.0)


# ---------------------------------------------------------------------
# 5. metric properties
# ---------------------------------------------------------------------

def test_criterion_5_metric_properties():
    t0 = time.perf_counter()
    rng = random.Random(5)
    zero_cases = 0
    for k in range(520):
        A = random_barcode(rng, max_bars=4)
        B = Barcode(A.bars) if k % 7 == 0 else random_barcode(rng, max_bars=4)
        C = random_barcode(rng, max_bars=4)
        dab = distance_with_matching(A, B)[0]
        assert dab == distance_with_matching(B, A)[0]
        assert distance_with_matching(A, A)[0] == 0.0
        dac = distance_with_matching(A, C)[0]
        dcb = distance_with_matching(C, B)[0]
        if dac < INF and dcb < INF:
            assert dab <= dac + dcb + 1e-9
        if dab == 0.0:
            zero_cases += 1
            assert A == B
    assert zero_cases >= 520 // 7
    _report(5, "symmetry, identity, triangle and zero-implies-equal on 520 triples", t0, 30.0)


# ---------------------------------------------------------------------
# 6. CLR independence
# ---------------------------------------------------------------------

def _restrict(b, side):
    return Barcode(tuple(g for g in b if point(g)[0][0] == side))


def test_criterion_6_clr_independence():
    t0 = time.perf_counter()
    rng = random.Random(6)
    for _ in range(200):
        A = random_barcode(rng, max_bars=5)
        B = random_barcode(rng, max_bars=5)
        whole = distance_with_matching(A, B)[0]
        parts = max(distance_with_matching(_restrict(A, p), _restrict(B, p))[0]
                    for p in ("central", "R", "L"))
        assert whole == parts
    _report(6, "distance equals the max over C/R/L restrictions on 200 pairs", t0, 30.0)


# ---------------------------------------------------------------------
# 7. interpolation
# ---------------------------------------------------------------------

def test_criterion_7_interpolation():
    t0 = time.perf_counter()
    rng = random.Random(7)
    done = 0
    while done < 100:
        F = random_barcode(rng, max_bars=4)
        G = perturbed_barcode(rng, F)
        eps, matching = distance_with_matching(F, G)
        assert eps < INF
        assert interpolate(F, G, matching, 0.0) == F
        assert interpolate(F, G, matching, eps) == G
        if eps == 0.0:
            continue
        times = [eps * k / 10 for k in range(1, 10)]
        points = [interpolate(F, G, matching, t) for t in times]
        for t, U in zip(times, points):
            assert distance_with_matching(F, U)[0] <= t + 1e-9
            assert distance_with_matching(U, G)[0] <= eps - t + 1e-9
        for (s, Us), (t, Ut) in zip(zip(times, points), list(zip(times, points))[1:]):
            assert distance_with_matching(Us, Ut)[0] <= (t - s) + 1e-9
        done += 1
    _report(7, "geodesic bounds at 9 interior times on 100 finite pairs, "
               "exact endpoint recovery", t0, 60.0)


# ---------------------------------------------------------------------
# 8. global-section invariance
# ---------------------------------------------------------------------

def test_criterion_8_global_sections():
    t0 = time.perf_counter()
    rng = random.Random(8)
    for _ in range(200):
        F = random_barcode(rng)
        G = perturbed_barcode(rng, F)
        assert distance_with_matching(F, G)[0] < INF
        assert global_sections(F) == global_sections(G)
        assert global_sections(F, compact_support=True) == global_sections(G, compact_support=True)
    circle_f = parse_barcode(CIRCLE_F.read_text())
    circle_g = parse_barcode(CIRCLE_G.read_text())
    for b in (circle_f, circle_g):
        assert global_sections(b) == {0: 1, 1: 1}
        assert global_sections(b, compact_support=True) == {0: 1, 1: 1}
    _report(8, "sections agree across 200 finite-distance pairs and on the circle", t0, 30.0)


# ---------------------------------------------------------------------
# 9. bridge isometry
# ---------------------------------------------------------------------

def test_criterion_9_bridge_isometry():
    from test_persistence import classical_bottleneck, random_r_part

    t0 = time.perf_counter()
    rng = random.Random(9)
    for _ in range(200):
        left, right = random_r_part(rng), random_r_part(rng)
        slot_value, _ = part_bottleneck(left, right)
        dl = to_persistence(split_clr(Barcode(tuple(left))), "R", 0).pairs
        dr = to_persistence(split_clr(Barcode(tuple(right))), "R", 0).pairs
        assert slot_value == classical_bottleneck(list(dl), list(dr))
    _report(9, "slot bottleneck equals the classical diagram bottleneck on 200 parts", t0, 30.0)
