"""Command line surface.

Exit codes: 0 on success (an infinite distance is still success, printed
as ``inf``), 1 on domain errors and when memory runs out, 2 on I/O,
parse and usage errors, 141 (SIGPIPE's shell status, nothing on stderr)
when stdout has no reader.  A parse error of a file, text that is not
UTF-8 included, starts with its path.  A non-finite ``--eps`` or ``--t``
is a usage error, and these numbers are read by the grammar of a
``.gbc`` file: ASCII decimals and ``[+-]inf``, so ``1_0`` and digits of
other scripts are usage errors.  The value of ``--eps`` or ``--t`` may
be a separate argument, negative ones included (``--eps -1e-3``).  A
value that argparse hands over as ``[]``, as it reads ``--side=--`` or a
second ``--``, is a usage error.
Options are spelled out in full: an abbreviation such as ``--ep`` is an
unrecognized argument.  The commands that print ``.gbc`` text
(``convolve``, ``interpolate``, ``import-diagram``) print bars that
``validate`` reads back exactly; a ``convolve`` result that is no bar (an
end at 2**1022 or beyond, a half-open bar whose ends round onto each
other, as ``[0,1)`` by ``1e16``, or a degree of more than the readers'
4,299 digits) is a parse error: ``--eps``, then ``convolve_interval``'s
own message, which names the bar and the value of eps.

Start-up: at module level this imports only ``barcode``, ``intervals``
and ``matching``, all that ``validate``, ``dist``, ``match`` and
``component`` run.
Every other command imports its own module in its branch of ``_run``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .barcode import Barcode, format_barcode, global_sections, parse_barcode
from .intervals import _NUMBER, INF, ParseError, fmt_number, parse_graded_interval
from .matching import distance_with_matching, same_component


@functools.cache  # built once per process: in-process callers run main many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafdist",
        description="graded barcodes on the line: distances, matchings, smoothing",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, allow_abbrev=False, help=help)

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


def _finite(name: str, tok: str) -> float:
    """The value ``tok`` of ``name``, a finite number of the ``.gbc`` grammar."""
    if tok not in ("inf", "+inf", "-inf") and _NUMBER(tok) is None:
        raise ParseError(f"{name} must be a number, got {tok!r}")
    x = float(tok)
    if not math.isfinite(x):
        raise ParseError(f"{name} must be a finite number, got {x}")
    return x


def _load(path: str, parse=parse_barcode):
    """``parse`` of the text of file ``path``, the one file read of a command.
    Text that is not UTF-8, or a ValueError of ``parse``, is a ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _run(args: argparse.Namespace) -> int:
    if args.command == "validate":
        b = _load(args.barcode)
        print(f"OK {len(b)} bars")
        return 0

    if args.command == "dist":
        value, _ = distance_with_matching(_load(args.left), _load(args.right))
        print(fmt_number(value))
        return 0

    if args.command == "match":
        value, matching = distance_with_matching(_load(args.left), _load(args.right))
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
        from .convolve import convolve_barcode

        eps = _finite("--eps", args.eps)
        b = _load(args.barcode)
        try:
            b = convolve_barcode(b, eps)
        except ValueError as exc:
            raise ParseError(f"--eps: {exc}") from None
        sys.stdout.write(format_barcode(b))
        return 0

    if args.command == "interpolate":
        from .interpolate import interpolate

        t = _finite("--t", args.t)
        F, G = _load(args.left), _load(args.right)
        value, matching = distance_with_matching(F, G)
        sys.stdout.write(format_barcode(interpolate(F, G, matching, t)))
        return 0

    if args.command == "hom":
        from .homs import hom_dim

        src = parse_graded_interval(args.source)
        tgt = parse_graded_interval(args.target)
        print(hom_dim(src, tgt))
        return 0

    if args.command == "gamma":
        dims = global_sections(_load(args.barcode), compact_support=args.compact)
        for degree, dim in dims.items():
            print(f"{degree} {dim}")
        return 0

    if args.command == "component":
        print("true" if same_component(_load(args.left), _load(args.right)) else "false")
        return 0

    if args.command == "import-diagram":
        from .persistence import from_persistence, parse_diagrams

        def barcode(text: str) -> Barcode:  # a pair with no bar on the side: the file's fault
            return Barcode(tuple(g for d in parse_diagrams(text)
                                 for g in from_persistence(d, args.side)))

        sys.stdout.write(format_barcode(_load(args.diagram, barcode)))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


_NUMBER_OPTIONS = ("--eps", "--t")


def _attach_numbers(argv: list[str]) -> list[str]:
    """``--eps -1e-3`` as ``--eps=-1e-3``, likewise for ``--t``.  argparse
    reads a separate value that starts with ``-`` as an option unless it is
    a plain decimal, so ``-1e-3``, ``-inf`` or a bad ``-1_0`` would end in
    a usage dump, not ``_finite``'s one line; ``--x`` stays an option.  No
    parser takes an abbreviation."""
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
    # argparse hands over an attached ``--`` (``--side=--``), or a second
    # one among the positionals, as [], past ``choices``; refuse it before
    # any file is read
    for dest, value in vars(args).items():
        if value == []:
            name = f"--{dest}" if f"--{dest}=--" in argv else dest
            print(f"error: argument {name}: expected a value, got '--'", file=sys.stderr)
            return 2
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout shows here, however it is buffered
        return code
    except BrokenPipeError:  # no reader; fd 1 to devnull keeps the final flush quiet
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
