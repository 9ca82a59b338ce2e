"""Command line surface.

Exit codes: 0 on success (an infinite distance is still success, printed
as ``inf``), 1 on domain errors, 2 on I/O, parse and usage errors.  A
non-finite ``--eps``, ``--t`` or ``--tol``, and a ``--tol`` or
``SHEAFDIST_TOL`` that is not a number >= 0, are usage errors; an input
file that is not UTF-8 is a parse error.  These numbers are read by the
grammar of a ``.gbc`` file: ASCII decimals and ``[+-]inf``, so ``1_0``
and digits of other scripts are usage errors.  The value of ``--eps``,
``--t`` or ``--tol`` may be a separate argument, negative ones included
(``--eps -1e-3``).  Options are spelled out in full: an
abbreviation such as ``--ep`` is an unrecognized argument.  The
commands that print ``.gbc`` text (``convolve``, ``interpolate``,
``import-diagram``) print only bars that ``validate`` reads back under
the same tolerance; any other bar is a parse error naming it.

Start-up: at module level this imports only ``barcode``, ``intervals``
and ``matching``, all that ``validate``, ``dist`` and ``match`` run.
Every other command imports its own module in its branch of ``_run``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .barcode import Barcode, format_barcode, global_sections, parse_barcode
from .intervals import _NUMBER, DEFAULT_TOL, INF, ParseError, fmt_number, parse_graded_interval
from .intervals import readable
from .matching import distance_with_matching


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        default=None,
        help="absolute comparison tolerance (default: $SHEAFDIST_TOL or 1e-9)",
    )
    parser = argparse.ArgumentParser(
        prog="sheafdist",
        description="graded barcodes on the line: distances, matchings, smoothing",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], allow_abbrev=False, help=help)

    p = command("validate", "check a .gbc file")
    p.add_argument("barcode")

    p = command("dist", "bottleneck distance of two .gbc files")
    p.add_argument("left")
    p.add_argument("right")

    p = command("match", "distance plus an optimal matching")
    p.add_argument("left")
    p.add_argument("right")

    p = command("convolve", "smooth a barcode, print .gbc")
    p.add_argument("barcode")
    p.add_argument("--eps", required=True)

    p = command("interpolate", "barcode at time t between two files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--t", required=True)

    p = command("hom", "morphism dimension between graded bars")
    p.add_argument("source", help='graded interval literal, e.g. "[0,1]@0"')
    p.add_argument("target")

    p = command("gamma", "graded global section dimensions")
    p.add_argument("barcode")
    p.add_argument("--compact", action="store_true", help="compactly supported sections")

    p = command("component", "same connected component?")
    p.add_argument("left")
    p.add_argument("right")

    p = command("import-diagram", "convert a .pdg file to .gbc")
    p.add_argument("diagram")
    p.add_argument("--side", choices=("R", "L"), required=True)

    return parser


def _finite(name: str, tok: str | list) -> float:
    """The value ``tok`` of ``name``, a finite number of the ``.gbc`` grammar
    (argparse hands over ``--tol=--`` as ``[]``)."""
    tok = tok if isinstance(tok, str) else "--"
    if tok not in ("inf", "+inf", "-inf") and _NUMBER(tok) is None:
        raise ParseError(f"{name} must be a number, got {tok!r}")
    x = float(tok)
    if not math.isfinite(x):
        raise ParseError(f"{name} must be a finite number, got {x}")
    return x


def _tolerance(args: argparse.Namespace) -> float:
    env = os.environ.get("SHEAFDIST_TOL")
    if args.tol is not None:
        name, tok = "--tol", args.tol
    elif env:
        name, tok = "SHEAFDIST_TOL", env
    else:
        return DEFAULT_TOL
    tol = _finite(name, tok)
    if tol < 0:
        raise ParseError(f"{name} must be >= 0, got {tol}")
    return tol


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load(path: str, tol: float) -> Barcode:
    return parse_barcode(_read(path), tol=tol)


def _write_barcode(bars, tol: float, why, make=None) -> None:
    """Print ``bars`` (``make(g)`` for each ``g`` when ``make`` is given)
    as ``.gbc`` text that ``validate`` reads back under the same ``tol``.
    A bar that ``readable`` refuses, or that ``make`` refuses, is a
    ParseError whose message ``why(g)`` names it."""
    out = []
    for g in bars:
        try:
            h = g if make is None else make(g)
        except ValueError:
            h = None
        if h is None or not readable(*h.interval, tol):
            raise ParseError(f"{why(g)} out of range: an endpoint reaches 2**1022 or the "
                             f"width falls to the tolerance {tol!r} or below")
        out.append(h)
    sys.stdout.write(format_barcode(Barcode(tuple(out))))


def _run(args: argparse.Namespace) -> int:
    tol = _tolerance(args)

    if args.command == "validate":
        b = _load(args.barcode, tol)
        print(f"OK {len(b)} bars")
        return 0

    if args.command == "dist":
        value, _ = distance_with_matching(_load(args.left, tol), _load(args.right, tol))
        print(fmt_number(value))
        return 0

    if args.command == "match":
        value, matching = distance_with_matching(_load(args.left, tol), _load(args.right, tol))
        print(fmt_number(value))
        if value == INF:
            return 0
        for m, l, r, c in matching.central_pairs:
            print(f"C {m} {l} {r} {fmt_number(c)}")
        for side, j, l, r, c in matching.halfopen_pairs:
            print(f"{side} {j} {l} {r} {fmt_number(c)}")
        for side, j, origin, bar, c in matching.deletions:
            left = str(bar) if origin == "left" else "DELETED"
            right = str(bar) if origin == "right" else "DELETED"
            print(f"{side} {j} {left} {right} {fmt_number(c)}")
        return 0

    if args.command == "convolve":
        from .convolve import convolve_interval

        eps = _finite("--eps", args.eps)
        _write_barcode(_load(args.barcode, tol), tol, lambda g: f"--eps {fmt_number(eps)} takes {g}",
                       lambda g: convolve_interval(g, eps))
        return 0

    if args.command == "interpolate":
        from .interpolate import interpolate

        t = _finite("--t", args.t)
        F, G = _load(args.left, tol), _load(args.right, tol)
        value, matching = distance_with_matching(F, G)
        _write_barcode(interpolate(F, G, matching, t), tol,
                       lambda g: f"--t {fmt_number(t)} takes a bar to {g}, which is")
        return 0

    if args.command == "hom":
        from .homs import hom_dim

        src = parse_graded_interval(args.source)
        tgt = parse_graded_interval(args.target)
        print(hom_dim(src, tgt))
        return 0

    if args.command == "gamma":
        dims = global_sections(_load(args.barcode, tol), compact_support=args.compact)
        for degree, dim in dims.items():
            print(f"{degree} {dim}")
        return 0

    if args.command == "component":
        from .interpolate import same_component

        print("true" if same_component(_load(args.left, tol), _load(args.right, tol)) else "false")
        return 0

    if args.command == "import-diagram":
        from .persistence import from_persistence, parse_diagrams

        diagrams = parse_diagrams(_read(args.diagram))
        try:
            bars = [g for d in diagrams for g in from_persistence(d, args.side)]
        except ValueError as exc:
            raise ParseError(f"{args.diagram}: {exc}") from None
        _write_barcode(bars, tol, lambda g: f"{args.diagram}: the bar {g} is")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


_NUMBER_OPTIONS = ("--eps", "--t", "--tol")


def _attach_numbers(argv: list[str]) -> list[str]:
    """``--eps -1e-3`` as ``--eps=-1e-3``, likewise for ``--t`` and
    ``--tol``.  argparse reads a separate value that starts with ``-`` as
    an option unless it is a plain decimal, so ``-1e-3``, ``-inf`` or a bad
    ``-1_0`` would end in a usage dump, not ``_finite``'s one line; ``--x``
    stays an option.  No parser takes an abbreviation."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_OPTIONS and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_numbers(argv))
    try:
        return _run(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
