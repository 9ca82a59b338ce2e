"""Digest of the library's answers on fixed inputs, for comparing two source trees.

Writes one line per call, each float as ``float.hex`` and each bar by
``_show`` (its ends, flags and degree), in these kinds:

- ``pair_path``, ``interpolate`` and ``convolve``: calls of ``pair_path``,
  ``interpolate`` and ``convolve_interval`` on fixed-seed inputs off the
  dyadic grid, at magnitudes from 1 to 1e300: the inputs and the result
  (or the error).  Each pair of barcodes the interpolate calls solve also
  gets one ``match`` line: the distance and the entries of the matching's
  ``central_pairs``, ``halfopen_pairs`` and ``deletions``.
- ``parse``: ``parse_barcode`` of the ``halfopen`` and ``many_slots``
  benchmark texts of seeds 1-3 (generated as ``perfbench/run.py``
  generates them), of ``tests/fixtures/*.gbc``, and of fixed-seed fuzzed
  texts whose lines end in every ``str.splitlines`` boundary and include
  malformed lines and literals ``Interval`` refuses.  A line holds the
  input's kind and name and either its bars or ``E`` and the exact
  ParseError message.
- ``solve``: the value of ``part_bottleneck`` and its entries.  Its pairs
  are the parsed bars of each benchmark case above (each case is
  generated and parsed once), seed 1's ``halfopen`` ladder rungs from 50
  to 5,000 bars per side, one 800-bar central slot, and fixed-seed draws
  whose ends include both zeros, with first coordinates tied across the
  sides and pairs exactly at the per-pair bound.
- ``cli``: ``sheafdist.cli.main`` in-process on the fixture pair
  ``circle_{f,g}.gbc``, a pair at the degree limit (F a 4,299-digit
  ``(0,1)`` bar and its negative ``[0,1]``, G one 4,300-digit line, which
  every reader refuses) and the first 20 ``many_slots`` cases of seed 1:
  ``validate``, ``dist``, ``match`` (F with G and with itself),
  ``component``, ``gamma`` (with and without ``--compact``), ``convolve``
  at six ``--eps`` (negative ones, ones that collapse open bars and one
  out of range included) and ``interpolate`` at four ``--t`` (one past
  the distance).  Each line holds the command (files by name), the exit
  code, the sha256 and line count of stdout, and stderr.

Two digests list the same calls in the same order, so ``compare`` reads
them side by side.

    PYTHONPATH=<tree-a>/src python3 tools/digest.py digest > a.txt
    PYTHONPATH=<tree-b>/src python3 tools/digest.py digest > b.txt
    python3 tools/digest.py compare a.txt b.txt

``compare`` prints, for each kind (``parse`` lines by input kind), its
lines, the results in a that are errors and the lines that differ.  For
``convolve`` it also checks every result against the exact rule, each
finite end being ``float(Fraction(end) -/+ Fraction(eps))``.  It exits 1
when any line differs, when one of b's ``convolve`` results is neither
an error nor correctly rounded, or when the digests differ in length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INF = math.inf
SHAPES = ("closed", "open", "ro", "lo", "ray+", "ray-", "oray+", "oray-", "line")
# bars per side: the benchmark's ladder rungs, and two past them
LADDER = (50, 100, 200, 400, 700, 1000, 1400, 2000, 3000, 5000)
GRID = (-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0)  # both zeros, and ties on a small grid
CLI_CASES = 20  # the many_slots cases of seed 1 the cli lines run
# 3 collapses most open bars, -3 over-shrinks most closed ones, 1e308 leaves the range
EPS = ("0.25", "-0.25", "1e-3", "3", "-3", "1e308")
FUZZ_TEXTS = 20_000
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
             "\u2029")
# well-formed degrees first, then malformed ones, degrees of more digits than
# ``int`` reads, and the longest degree the readers take and one digit past it
DEGREES = ("0", "1", "-1", "12", "007", "-0", "+1", "1_0", "\u0661", "x", "", "0.5",
           "9" * 4301, "-" + "9" * 4301, "-" + "9" * 4299, "9" * 4300)
ENDS = ("0", "1", "-2", "0.5", ".5", "1.", "-1e-3", "1E2", "1e16", "4.4e307", "-4.4e307",
        "4.4942328371557898e307", "1e400", "inf", "+inf", "-inf", "nan", "1_0", "\u0661",
        "0x1", "", "-", ".", "1e", "1e+", "++1", "0.4999999999995", "5e-324")
PADS = ("", "", " ", "  ", "\t", " \t", "\xa0", "\u3000")
COMMENTS = ("", "", "", "#", "# c", " # 0 [0,1)", "#x#y", "#\u0661")


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


def _zero_pair(rng: random.Random) -> tuple[list, list]:
    """Bars of one kind of slot with ends on ``GRID``: both zeros, first
    coordinates tied across the sides, and half-open partners at the
    per-pair bound (a cost equal to the dearer deletion).  Each bar's
    partner shares its class, so every slot is feasible."""
    kind = rng.choice(("central", "R", "L"))
    half = "ro" if kind == "R" else "lo"
    F, G = [], []
    for _ in range(rng.randrange(1, 12)):
        a, b = sorted(rng.sample(GRID, 2))
        x, y = sorted(rng.sample(GRID, 2))
        if kind == "central":  # (a,b)@0 and [x,y]@1 share slot 0
            F.append(_bar("open", a, b + 0.5 * (a == b), 0) if rng.random() < 0.5
                     else _bar("closed", a, b, 1))
            G.append(_bar("open", x, y + 0.5 * (x == y), 0) if rng.random() < 0.5
                     else _bar("closed", x, y, 1))
            continue
        b += 0.5 * (a == b)
        shape = rng.choice((half,) * 6 + (("ray+", "oray-", "line") if kind == "R"
                                           else ("oray+", "ray-")))
        F.append(_bar(shape, a, b, 0))
        d, w = (b - a) / 2, rng.random()
        if shape != half or w < 0.3:  # the same ends, perhaps with the other zero
            G.append(_bar(shape, -a if a == 0 and rng.random() < 0.5 else a, b, 0))
        elif w < 0.6:  # at the bound: cost d, F's deletion
            G.append(_bar(half, a + d, b, 0) if kind == "R" else _bar(half, a, b - d, 0))
        elif w < 0.8:  # at the bound: cost 2d, G's deletion
            G.append(_bar(half, a, b + 2 * d, 0) if kind == "R" else _bar(half, a - 2 * d, b, 0))
        else:
            G.append(_bar(half, x, y + 0.5 * (x == y), 0))
    rng.shuffle(G)
    return F, G


def _line(rng: random.Random) -> str:
    """A ``.gbc`` line: most often a bar, otherwise blank, a comment, a
    malformed line or a literal ``Interval`` refuses."""
    kind = rng.random()
    if kind < 0.05:
        return rng.choice(PADS)
    if kind < 0.1:
        return rng.choice(PADS) + rng.choice(COMMENTS[3:])
    good = kind < 0.9
    deg = rng.choice(DEGREES[:6] if good else DEGREES)
    if good:  # ordered ends, most often finite and in range
        a, b = sorted(rng.choices(ENDS[:11] if rng.random() < 0.9 else ENDS[:16], k=2), key=float)
    else:
        a, b = rng.choice(ENDS), rng.choice(ENDS)
    lb, rb = rng.choice("[("), rng.choice("])")
    if not good and rng.random() < 0.2:
        lb, rb = rng.choice(("", "[", "(", "]")), rng.choice(("", "]", ")", "[", ",1]"))
    sep = rng.choice((" ", " ", "\t", "  ", "" if not good else " "))
    extra = "" if good or rng.random() < 0.7 else " " + rng.choice(("[0,1)", "0", "x"))
    return (rng.choice(PADS) + deg + sep + f"{lb}{a},{b}{rb}" + extra + rng.choice(PADS)
            + rng.choice(COMMENTS))


def _fuzz_text(rng: random.Random) -> str:
    lines = [_line(rng) + rng.choice(LINE_ENDS) for _ in range(rng.randrange(0, 8))]
    return "".join(lines) + (_line(rng) if rng.random() < 0.5 else "")


def _parse(label: str, text: str, out):
    """Write the ``parse`` line of ``text``; return its bars, or None
    when it is refused."""
    from sheafdist import ParseError, parse_barcode

    try:
        bars = parse_barcode(text).bars
    except ParseError as exc:
        print("parse", label, f"E {exc}", sep="|", file=out)
        return None
    print("parse", label, " ; ".join(map(_show, bars)), sep="|", file=out)
    return bars


def _solve(name: str, F, G, out) -> None:
    from sheafdist import part_bottleneck

    value, pairs = part_bottleneck(F, G)
    print("solve", name, "->", value.hex(), _view(pairs), sep="|", file=out)


def _cli_line(main, tmp: Path, argv: list[str]) -> str:
    """One ``main`` call: its command, exit code, stdout's sha256 and line
    count, and stderr, with the files named relative to ``tmp``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([str(tmp / a) if a.endswith(".gbc") else a for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = stdout.getvalue()
    lines = text.count("\n")
    digest = f"{hashlib.sha256(text.encode()).hexdigest()} {lines}"
    err = stderr.getvalue().replace(str(tmp), "<tmp>").rstrip("\n").replace("\n", "\\n")
    return "|".join(("cli", " ".join(argv), str(code), digest, err))


def _cli(pairs, out) -> None:
    """The ``cli`` lines of each ``(F name, F text, G name, G text)``; G
    may be a text the readers refuse."""
    from sheafdist import ParseError, distance_with_matching, parse_barcode
    from sheafdist.cli import main

    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for f, f_text, g, g_text in pairs:
            (tmp / f).write_text(f_text, encoding="utf-8")
            (tmp / g).write_text(g_text, encoding="utf-8")
            try:
                d = distance_with_matching(parse_barcode(f_text), parse_barcode(g_text))[0]
            except ParseError:  # each command given G is a refusal
                d = INF
            # the last time is past the distance, an error
            ts = ["1"] if d == INF else [repr(d * k) for k in (0.25, 0.5, 1.0, 2.0)]
            runs = [["validate", f], ["dist", f, g], ["match", f, g], ["match", f, f],
                    ["component", f, g],
                    ["gamma", f], ["gamma", f, "--compact"],
                    *(["convolve", f, "--eps", e] for e in EPS),
                    *(["interpolate", f, g, "--t", t] for t in ts)]
            for argv in runs:
                print(_cli_line(main, tmp, argv), file=out)


def digest(out) -> None:
    from sheafdist import (Barcode, convolve_interval, deletion_cost, distance_with_matching,
                           interpolate, pair_cost, pair_path, parse_barcode)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import run  # the benchmark's own case lists, so the texts are those it parses and solves

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

    bench = {(name, seed): run.WORKLOADS[name].cases(random.Random(f"{name}:{seed}"), False)
             for name in ("halfopen", "many_slots") for seed in (1, 2, 3)}
    for (name, seed), cases in bench.items():  # each case parsed, then its bars solved
        for k, case in enumerate(cases):
            label = f"{name} {seed}:{k:03d}"
            F, G = _parse(label + "F", case.f_text, out), _parse(label + "G", case.g_text, out)
            if F is not None and G is not None:  # a refused text has no solve line
                _solve(label, F, G, out)
    rng = random.Random("halfopen:1:ladder")  # as perfbench/run.py seeds seed 1's ladder
    for n in LADDER:
        case = gen.halfopen_ladder_case(rng, n)
        _solve(f"ladder 1:{n}", parse_barcode(case.f_text).bars,
               parse_barcode(case.g_text).bars, out)
    f, g = gen.central_slot(random.Random("central:1"), 800, 0)
    _solve("central 800", parse_barcode(gen._text(f)).bars, parse_barcode(gen._text(g)).bars,
           out)
    rng = random.Random(22)
    for k in range(2_000):
        _solve(f"zeros {k}", *_zero_pair(rng), out)

    fixtures = {path.name: path.read_text(encoding="utf-8")
                for path in sorted((ROOT / "tests" / "fixtures").glob("*.gbc"))}
    for name, text in fixtures.items():
        _parse(f"fixture {name}", text, out)
    rng = random.Random(19)
    for k in range(FUZZ_TEXTS):
        _parse(f"fuzz {k}", _fuzz_text(rng), out)

    f, g = "circle_f.gbc", "circle_g.gbc"
    nines = "9" * 4299  # the longest degree a reader reads; one more digit is refused
    _cli([(f, fixtures[f], g, fixtures[g]),
          ("edge.gbc", f"{nines} (0,1)\n-{nines} [0,1]\n", "long.gbc", f"9{nines} [0,1)\n"),
          *((f"{k:03d}F.gbc", case.f_text, f"{k:03d}G.gbc", case.g_text)
            for k, case in enumerate(bench["many_slots", 1][:CLI_CASES]))], out)


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
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        lines_a, lines_b = (f.read().removesuffix("\n").split("\n") for f in (fa, fb))
    lines, errors, diffs, exact = Counter(), Counter(), Counter(), Counter()
    for la, lb in zip(lines_a, lines_b):
        kind, _, rest = la.partition("|")
        if kind == "parse":  # counted by input kind
            kind += " " + rest.split(" ", 1)[0]
        lines[kind] += 1
        errors[kind] += la.rpartition("|")[2].startswith("E ")
        diffs[kind] += la != lb
        if kind == "convolve":
            exact["a"] += _exact(la) is not False
            exact["b"] += _exact(lb) is not False
    for kind in lines:
        print(f"{kind}: {lines[kind]} lines ({errors[kind]} errors in a), {diffs[kind]} different")
    print(f"convolve results correctly rounded or errors: a {exact['a']}, b {exact['b']}")
    wrong = lines["convolve"] - exact["b"]
    if wrong:
        print(f"b: {wrong} convolve results neither errors nor correctly rounded")
    if len(lines_a) != len(lines_b):
        print(f"lengths differ: a {len(lines_a)} lines, b {len(lines_b)}")
        return 1
    return 1 if wrong or any(diffs.values()) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["digest"]:
        sys.stdout.reconfigure(encoding="utf-8")
        digest(sys.stdout)
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
