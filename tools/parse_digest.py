"""Digest of ``parse_barcode`` on fixed inputs, for comparing two source trees.

Reads the ``halfopen`` and ``many_slots`` benchmark texts of seeds 1-3
(as ``perfbench/run.py`` generates them), ``tests/fixtures/*.gbc``, and
fixed-seed fuzzed texts whose lines end in every ``str.splitlines``
boundary and include malformed lines and literals ``Interval`` refuses.
Writes one line per parse: the input's name and either its bars, each as
``float.hex`` ends, flags and degree, or ``E`` and the exact ParseError
message.  Two digests list the same inputs in the same order, so
``compare`` reads them side by side.

    PYTHONPATH=<tree-a>/src python3 tools/parse_digest.py digest > a.txt
    PYTHONPATH=<tree-b>/src python3 tools/parse_digest.py digest > b.txt
    python3 tools/parse_digest.py compare a.txt b.txt

``compare`` counts the parses and the differing lines of each input kind,
and exits 1 when any line differs or the digests differ in length.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def inputs():
    """``(kind, name, text)`` for every input, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # the benchmark's own case lists, so the texts are those it parses

    for name in ("halfopen", "many_slots"):
        wl = run.WORKLOADS[name]
        for seed in (1, 2, 3):
            for k, case in enumerate(wl.cases(random.Random(f"{name}:{seed}"), False)):
                yield name, f"{seed}:{k:03d}F", case.f_text
                yield name, f"{seed}:{k:03d}G", case.g_text
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.gbc")):
        yield "fixture", path.name, path.read_text(encoding="utf-8")
    rng = random.Random(19)
    for k in range(FUZZ_TEXTS):
        yield "fuzz", str(k), _fuzz_text(rng)


def digest(out) -> None:
    from sheafdist import ParseError, parse_barcode

    for kind, name, text in inputs():
        try:
            bars = parse_barcode(text).bars
        except ParseError as exc:
            got = f"E {exc}"
        else:
            got = " ; ".join(f"{g.interval.lo.hex()} {g.interval.hi.hex()} "
                             f"{int(g.interval.lo_closed)}{int(g.interval.hi_closed)} {g.degree}"
                             for g in bars)
        print(kind, name, got, sep="|", file=out)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        lines_a, lines_b = (f.read().removesuffix("\n").split("\n") for f in (fa, fb))
    parses, errors, diffs = Counter(), Counter(), Counter()
    for la, lb in zip(lines_a, lines_b):
        kind = la.split("|", 1)[0]
        parses[kind] += 1
        errors[kind] += la.split("|", 2)[2].startswith("E ")
        diffs[kind] += la != lb
    for kind in parses:
        print(f"{kind}: {parses[kind]} parses ({errors[kind]} ParseErrors in a), "
              f"{diffs[kind]} different")
    if len(lines_a) != len(lines_b):
        print(f"lengths differ: a {len(lines_a)} lines, b {len(lines_b)}")
        return 1
    return 1 if sum(diffs.values()) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["digest"]:
        sys.stdout.reconfigure(encoding="utf-8")
        digest(sys.stdout)
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
