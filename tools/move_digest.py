"""Digest of the calls that move bars, for comparing two source trees.

Draws fixed-seed inputs off the dyadic grid, at magnitudes from 1 to
1e300, and writes one line per call of ``pair_path``, ``interpolate`` and
``convolve_interval``: the inputs and the result (or the error), every
float as ``float.hex``.  Each pair of barcodes the interpolate section
solves also gets one ``match`` line: the distance and the entries of the
matching's ``central_pairs``, ``halfopen_pairs`` and ``deletions``.  Two
digests of the same seed list the same calls in the same order, so
``compare`` reads them side by side.

    PYTHONPATH=<tree-a>/src python3 tools/move_digest.py digest > a.txt
    PYTHONPATH=<tree-b>/src python3 tools/move_digest.py digest > b.txt
    python3 tools/move_digest.py compare a.txt b.txt

``compare`` counts the differing lines of each kind.  For ``convolve`` it
also checks every result against the exact rule, each finite end being
``float(Fraction(end) -/+ Fraction(eps))``, and sorts each difference
into "a collapse or over-shrink that b rounds correctly and a does not",
"a raised an empty-interval error and b returns a correctly rounded
bar", or unexplained.  It exits 1 when a ``pair_path``, ``interpolate``
or ``match`` line differs, a difference is unexplained, or the digests
differ in length.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction

INF = math.inf
SHAPES = ("closed", "open", "ro", "lo", "ray+", "ray-", "oray+", "oray-", "line")


def _bar(shape: str, a: float, b: float, degree: int):
    from sheafdist import GradedInterval, Interval

    lo, hi, lc, hc = {
        "closed": (a, b, True, True), "open": (a, b, False, False),
        "ro": (a, b, True, False), "lo": (a, b, False, True),
        "ray+": (a, INF, True, False), "ray-": (-INF, b, False, True),
        "oray+": (a, INF, False, False), "oray-": (-INF, b, False, False),
        "line": (-INF, INF, False, False),
    }[shape]
    return GradedInterval(Interval(lo, hi, lc, hc), degree)


def _show(g) -> str:
    if g is None:
        return "None"
    lo, hi, lc, hc = g.interval
    return f"{lo.hex()} {hi.hex()} {int(lc)}{int(hc)} {g.degree}"


def _view(rows) -> str:
    """The rows of a view of a matching: bars by ``_show``, costs by
    ``float.hex``."""
    def field(x) -> str:
        if isinstance(x, float):
            return x.hex()
        return str(x) if isinstance(x, (int, str)) else _show(x)

    return " ; ".join(" ".join(map(field, row)) for row in rows)


def _call(f, *args) -> str:
    try:
        out = f(*args)
    except ValueError as exc:
        return f"E {exc}"
    return " ; ".join(map(_show, out.bars)) if hasattr(out, "bars") else _show(out)


def _ends(rng: random.Random, scale: float) -> tuple[float, float]:
    a = rng.uniform(-1, 1) * scale
    return a, a + rng.uniform(0, 1) * scale * 10 ** -rng.uniform(0, 12)


def _nudged(rng: random.Random, x: float, scale: float) -> float:
    if rng.random() < 0.3:
        return x
    return x + rng.uniform(-1, 1) * scale * 10 ** -rng.uniform(0, 12)


def digest(out) -> None:
    from sheafdist import (Barcode, convolve_interval, deletion_cost, distance_with_matching,
                           interpolate, pair_cost, pair_path)

    rng = random.Random(18)
    for _ in range(30_000):  # pair_path: one shape, open-closed both ways, deletions
        scale = 10 ** rng.uniform(0, 300)
        shape, m = rng.choice(SHAPES + ("cross", "cross", "delete")), rng.randrange(-1, 2)
        a, b = _ends(rng, scale)
        if b <= a:
            continue
        if shape == "cross":
            x, y = sorted((_nudged(rng, (a + b) / 2, scale), _nudged(rng, b, scale)))
            pair = (_bar("open", a, b, m), _bar("closed", x, y, m + 1))
            src, dst = pair if rng.random() < 0.5 else pair[::-1]
        elif shape == "delete":
            src, dst = _bar(rng.choice(("ro", "lo")), a, b, m), None
        else:
            x, y = _nudged(rng, a, scale), _nudged(rng, b, scale)
            if y <= x or (shape != "closed" and y == x):
                continue
            src, dst = _bar(shape, a, b, m), _bar(shape, x, y, m)
        c = pair_cost(src, dst) if dst is not None else deletion_cost(src)
        r = (b - a) / 2
        for t in (0.0, c, rng.uniform(0, c), r, math.nextafter(r, 0), c - r,
                  math.nextafter(c - r, INF)):
            t = min(max(t, 0.0), c)  # the collapse times, where a path changes shape
            args = (_show(src), _show(dst), t.hex())
            print("pair_path", *args, "->", _call(pair_path, src, dst, t), sep="|", file=out)

    rng = random.Random(1018)
    for _ in range(5_000):  # interpolate along a solved matching
        scale = 10 ** rng.uniform(0, 300)
        F, G = [], []
        for _ in range(rng.randrange(1, 7)):
            shape, m = rng.choice(SHAPES), rng.randrange(-1, 2)
            a, b = _ends(rng, scale)
            if b <= a:
                continue
            F.append(_bar(shape, a, b, m))
            x, y = sorted((_nudged(rng, a, scale), _nudged(rng, b, scale)))
            if shape == "open" and rng.random() < 0.3:
                G.append(_bar("closed", x, y, m + 1))  # the collapse pairing
            elif (shape in ("ro", "lo") and rng.random() < 0.2) or (y == x and shape != "closed"):
                continue  # deleted
            else:
                G.append(_bar(shape, x, y, m))
        F, G = Barcode(tuple(F)), Barcode(tuple(G))
        if rng.random() < 0.5:
            F, G = G, F
        d, matching = distance_with_matching(F, G)
        bars = " ; ".join(map(_show, F.bars)), " ; ".join(map(_show, G.bars))
        views = matching.central_pairs, matching.halfopen_pairs, matching.deletions
        print("match", *bars, "->", d.hex(), *map(_view, views), sep="|", file=out)
        if d == INF:
            continue
        for t in (0.0, d / 4, d / 2, 3 * d / 4, d, rng.uniform(0, d)):
            print("interpolate", *bars, t.hex(), "->", _call(interpolate, F, G, matching, t),
                  sep="|", file=out)

    rng = random.Random(2018)
    for _ in range(80_000):  # convolve, collapses and over-shrinks included
        scale = 10 ** rng.uniform(0, 300)
        a, b = _ends(rng, scale)
        if b <= a:
            continue
        g = _bar(rng.choice(SHAPES), a, b, rng.randrange(-1, 2))
        r = (b - a) / 2
        eps = rng.choice((r, -r, rng.uniform(-2, 2) * r, rng.uniform(-1, 1) * scale))
        eps *= 1 + rng.choice((0, 0, 1e-16, -1e-16, 1e-12))
        args = (_show(g), eps.hex())
        print("convolve", *args, "->", _call(convolve_interval, g, eps), sep="|", file=out)


def _exact(line: str) -> bool | None:
    """Whether a ``convolve`` result is the exact rule correctly rounded
    (None for an error)."""
    _, bar, eps, _, got = line.split("|")
    if got.startswith("E "):
        return None
    lo, hi, flags, _ = bar.split()
    lo, hi, e = float.fromhex(lo), float.fromhex(hi), Fraction(float.fromhex(eps))
    lc, hc = flags[0] == "1", flags[1] == "1"
    if lc == hc and lo > -INF and hi < INF:  # central: closed grows, open shrinks
        moves = (-e, e) if lc else (e, -e)
    elif lc or (lo == -INF and not hc):  # R
        moves = (-e, -e)
    else:  # L
        moves = (e, e)
    want = sorted(float(Fraction(x) + s) for x, s in zip((lo, hi), moves) if abs(x) < INF)
    glo, ghi = (float.fromhex(x) for x in got.split()[:2])
    return want == sorted(x for x in (glo, ghi) if abs(x) < INF)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    calls, diffs, why, exact = Counter(), Counter(), Counter(), Counter()
    for la, lb in zip(lines_a, lines_b):
        kind = la.split("|", 1)[0]
        calls[kind] += 1
        if kind == "convolve":
            ea, eb = _exact(la), _exact(lb)
            exact["a"] += ea is not False
            exact["b"] += eb is not False
        if la == lb:
            continue
        diffs[kind] += 1
        if kind != "convolve":
            why["unexplained"] += 1
        elif "|E empty interval" in la and eb:
            why["a: empty interval error, b: a correctly rounded bar"] += 1
        elif eb and ea is False and la.split()[-1] != la.split("|")[1].split()[-1]:
            why["collapse or over-shrink, b correctly rounded where a is not"] += 1
        else:
            why["unexplained"] += 1
    for kind in calls:
        print(f"{kind}: {calls[kind]} calls, {diffs[kind]} different")
    print(f"convolve results correctly rounded or errors: a {exact['a']}, b {exact['b']}")
    for reason, n in why.items():
        print(f"  {n}: {reason}")
    if len(lines_a) != len(lines_b):
        print(f"lengths differ: a {len(lines_a)} lines, b {len(lines_b)}")
        return 1
    return 1 if why["unexplained"] else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["digest"]:
        digest(sys.stdout)
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
