"""Command line surface.

Exit codes: 0 on success (an infinite distance is still success, printed
as ``inf``), 1 on domain errors and when memory runs out, 2 on I/O,
parse and usage errors, 130 on Ctrl-C and 141 when stdout has no reader
(SIGINT's and SIGPIPE's shell statuses, with nothing on stderr).  A
parse error of a file, text that is not UTF-8 included, starts with its
path.  ``_COMMANDS`` is the grammar.  Options may come anywhere after
the command, as ``--x V`` or ``--x=V``, spelled out in full, and the
last one wins; a valued option takes the next argument verbatim, so
``--eps -1e-3`` is the value ``-1e-3``.  ``--`` ends the options and a
lone ``-`` is a positional.  ``-h`` or ``--help``, alone or after a
command, prints help.  A usage error is one ``error:`` line and exit 2,
before any file is read: a non-finite ``--eps`` or ``--t`` included,
which are read by the grammar of a ``.gbc`` file (ASCII decimals and
``[+-]inf``, so not ``1_0`` or digits of other scripts).  The commands
that print ``.gbc`` text (``convolve``, ``interpolate``,
``import-diagram``) print bars that ``validate`` reads back exactly; a
``convolve`` result that is no bar (an end at 2**1022 or beyond, a
half-open bar whose ends round onto each other, as ``[0,1)`` by
``1e16``, or a degree of more than the readers' 4,299 digits) is a
parse error: ``--eps``, then ``convolve_interval``'s own message, which
names the bar and the value of eps.

``main`` writes a command's whole stdout, which ``_run`` returns as one
string, or the help text, in one write (print writes each line apart).

Start-up: at module level this imports only ``barcode``, ``intervals``
and ``matching``, all that ``validate``, ``dist``, ``match`` and
``component`` run, and no argument parser.
Every other command imports its own module in its branch of ``_run``
(``hom`` and ``gamma`` both ``homs``).
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from .barcode import Barcode, format_barcode, parse_barcode
from .intervals import _NUMBER, INF, ParseError, fmt_number, parse_graded_interval
from .matching import distance_with_matching, same_component

# command: (its positionals, its options, its help line).  An option maps to
# None for a flag, else to the name of its value or, as "R|L", to the values
# it takes; an option with a value is required.
_COMMANDS = {
    "validate": (("barcode",), {}, "check a .gbc file"),
    "dist": (("left", "right"), {}, "bottleneck distance of two .gbc files"),
    "match": (("left", "right"), {}, "distance plus an optimal matching"),
    "convolve": (("barcode",), {"--eps": "E"}, "smooth a barcode, print .gbc"),
    "interpolate": (("left", "right"), {"--t": "T"}, "barcode at time t between two files"),
    "hom": (("source", "target"), {}, 'morphism dimension between graded bars, as "[0,1]@0"'),
    "gamma": (("barcode",), {"--compact": None}, "graded global section dimensions"),
    "component": (("left", "right"), {}, "same connected component?"),
    "import-diagram": (("diagram",), {"--side": "R|L"}, "convert a .pdg file to .gbc"),
}


def _usage(command: str) -> str:
    names, options, _ = _COMMANDS[command]
    return " ".join([command, *(name.upper() for name in names),
                     *(f"[{o}]" if v is None else f"{o} {v}" for o, v in options.items())])


def _help(command: str | None) -> str:
    if command is not None:
        return f"usage: sheafdist {_usage(command)}\n  {_COMMANDS[command][2]}\n"
    return "".join(["usage: sheafdist COMMAND ...  (sheafdist COMMAND -h for its help)\n",
                    *(f"  {_usage(name):<37} {line}\n" for name, (*_, line) in _COMMANDS.items())])


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The command and its arguments by name, as ``_run`` reads them, or,
    for ``-h``, the help text to print.  A usage error is a ParseError."""
    if not argv:
        raise ParseError(f"no command given; commands: {', '.join(_COMMANDS)}")
    command, *rest = argv
    if command in ("-h", "--help"):
        return _help(None)
    if command not in _COMMANDS:
        raise ParseError(f"unknown command {command!r}; commands: {', '.join(_COMMANDS)}")
    names, options, _ = _COMMANDS[command]
    positionals, given = [], {o[2:]: False for o, kind in options.items() if kind is None}
    tokens = iter(rest)
    for tok in tokens:
        if tok == "-" or tok[:1] != "-":
            positionals.append(tok)
        elif tok == "--":
            positionals.extend(tokens)
        elif tok in ("-h", "--help"):
            return _help(command)
        else:
            option, eq, value = tok.partition("=")
            if option not in options:
                raise ParseError(f"{command} has no option {option}")
            kind = options[option]
            if kind is None and eq:
                raise ParseError(f"{option} takes no value")
            if kind is not None and not eq and (value := next(tokens, None)) is None:
                raise ParseError(f"{option} needs a value")
            if kind is not None and "|" in kind and value not in kind.split("|"):
                raise ParseError(f"{option} must be {kind}, got {value!r}")
            given[option[2:]] = True if kind is None else value
    if len(positionals) != len(names):
        raise ParseError(f"{command} takes {' '.join(name.upper() for name in names)}, "
                         f"got {len(positionals)} argument(s)")
    for option, kind in options.items():
        if kind is not None and option[2:] not in given:
            raise ParseError(f"{command} needs {option}")
    return SimpleNamespace(command=command, **dict(zip(names, positionals)), **given)


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


def _run(args: SimpleNamespace) -> str:
    if args.command == "validate":
        return f"OK {len(_load(args.barcode))} bars\n"

    if args.command == "dist":
        value, _ = distance_with_matching(_load(args.left), _load(args.right))
        return f"{fmt_number(value)}\n"

    if args.command == "match":
        value, matching = distance_with_matching(_load(args.left), _load(args.right))
        out = [f"{fmt_number(value)}\n"]
        if value != INF:
            out += (f"C {m} {l} {r} {fmt_number(c)}\n" for m, l, r, c in matching.central_pairs)
            out += (f"{side} {j} {l} {r} {fmt_number(c)}\n"
                    for side, j, l, r, c in matching.halfopen_pairs)
            out += (f"{side} {j} {bar if origin == 'left' else 'DELETED'} "
                    f"{bar if origin == 'right' else 'DELETED'} {fmt_number(c)}\n"
                    for side, j, origin, bar, c in matching.deletions)
        return "".join(out)

    if args.command == "convolve":
        from .convolve import convolve_barcode

        eps = _finite("--eps", args.eps)
        b = _load(args.barcode)
        try:
            b = convolve_barcode(b, eps)
        except ValueError as exc:
            raise ParseError(f"--eps: {exc}") from None
        return format_barcode(b)

    if args.command == "interpolate":
        from .interpolate import interpolate

        t = _finite("--t", args.t)
        F, G = _load(args.left), _load(args.right)
        value, matching = distance_with_matching(F, G)
        return format_barcode(interpolate(F, G, matching, t))

    if args.command == "hom":
        from .homs import hom_dim

        return f"{hom_dim(*map(parse_graded_interval, (args.source, args.target)))}\n"

    if args.command == "gamma":
        from .homs import global_sections

        dims = global_sections(_load(args.barcode), compact_support=args.compact)
        return "".join(f"{degree} {dim}\n" for degree, dim in dims.items())

    if args.command == "component":
        return "true\n" if same_component(_load(args.left), _load(args.right)) else "false\n"

    if args.command == "import-diagram":
        from .persistence import from_persistence, parse_diagrams

        def barcode(text: str) -> Barcode:  # a pair with no bar on the side: the file's fault
            return Barcode(tuple(g for d in parse_diagrams(text)
                                 for g in from_persistence(d, args.side)))

        return format_barcode(_load(args.diagram, barcode))

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        sys.stdout.write(args if isinstance(args, str) else _run(args))
        sys.stdout.flush()  # a closed stdout shows here, however it is buffered
        return 0
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
    except KeyboardInterrupt:  # Ctrl-C, as while a fifo's open blocks: SIGINT's status
        return 130


if __name__ == "__main__":
    sys.exit(main())
