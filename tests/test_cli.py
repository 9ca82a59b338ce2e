import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings, strategies as st

from sheafdist import format_barcode, parse_barcode

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sheafdist", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def gbc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_dist_circle():
    out = run_cli("dist", str(FIXTURES / "circle_f.gbc"), str(FIXTURES / "circle_g.gbc"))
    assert out.returncode == 0
    assert out.stdout.strip() == "1"


def test_dist_self_is_zero():
    f = str(FIXTURES / "circle_f.gbc")
    out = run_cli("dist", f, f)
    assert out.returncode == 0 and out.stdout.strip() == "0"


def test_dist_infinite_still_succeeds(tmp_path):
    a = gbc(tmp_path, "a.gbc", "0 (0,1)\n")
    b = gbc(tmp_path, "b.gbc", "")
    out = run_cli("dist", a, b)
    assert out.returncode == 0
    assert out.stdout.strip() == "inf"


def test_match_circle():
    out = run_cli("match", str(FIXTURES / "circle_f.gbc"), str(FIXTURES / "circle_g.gbc"))
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "1"
    assert "C -1 [-1,1]@0 [0,0]@0 1" in lines
    assert "C 0 (-1,1)@0 [0,0]@1 1" in lines


def test_match_reports_deletions(tmp_path):
    a = gbc(tmp_path, "a.gbc", "0 [0,1)\n")
    b = gbc(tmp_path, "b.gbc", "")
    out = run_cli("match", a, b)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0.5", "R 0 [0,1)@0 DELETED 0.5"]


def test_match_line_order(tmp_path):
    # central pairs at indices -1 and 0, R and L pairs in two degrees each,
    # deletions from both sides: every C line, then the half-open pairs,
    # then the deletions, each kind by side and degree as the solver lists
    # them (within a slot, a deleted right bar before a deleted left one)
    a = gbc(tmp_path, "a.gbc", "0 (0,4)\n1 [0,2]\n0 [1,3]\n0 [0,5)\n1 [2,6)\n0 (0,3]\n"
                               "2 (1,4]\n0 [10,11)\n1 [40,40.5)\n")
    b = gbc(tmp_path, "b.gbc", "0 (0,4.25)\n1 [0,2.5]\n0 [1,3.5]\n0 [0,5.25)\n1 [2,6.5)\n"
                               "0 (0,3.25]\n2 (1,4.5]\n1 (20,21]\n0 [30,30.5)\n")
    out = run_cli("match", a, b)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == (
        "0.5\n"
        "C -1 [1,3]@0 [1,3.5]@0 0.5\n"
        "C 0 (0,4)@0 (0,4.25)@0 0.25\n"
        "C 0 [0,2]@1 [0,2.5]@1 0.5\n"
        "R 0 [0,5)@0 [0,5.25)@0 0.25\n"
        "R 1 [2,6)@1 [2,6.5)@1 0.5\n"
        "L 0 (0,3]@0 (0,3.25]@0 0.25\n"
        "L 2 (1,4]@2 (1,4.5]@2 0.5\n"
        "R 0 DELETED [30,30.5)@0 0.25\n"
        "R 0 [10,11)@0 DELETED 0.5\n"
        "R 1 [40,40.5)@1 DELETED 0.25\n"
        "L 1 DELETED (20,21]@1 0.5\n"
    )


def test_validate(tmp_path):
    out = run_cli("validate", str(FIXTURES / "circle_f.gbc"))
    assert out.returncode == 0 and out.stdout.strip() == "OK 2 bars"
    bad = gbc(tmp_path, "bad.gbc", "0 [2,1]\n")
    out = run_cli("validate", bad)
    assert out.returncode == 2
    assert "line 1" in out.stderr


def test_a_degree_too_long_for_int_exits_2(tmp_path):
    deg = "1" * 5000
    for args in (("validate", gbc(tmp_path, "huge.gbc", f"0 [0,1)\n{deg} [0,1)\n")),
                 ("hom", f"[0,1]@{deg}", "[0,2]@0")):
        out = run_cli(*args)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "degree of 5000 digits: a degree has at most 4299" in out.stderr


def test_a_degree_one_away_from_the_limit_still_prints(tmp_path):
    # every command prints a degree one away from a bar's, and one away from
    # a degree of 4,300 digits can need 4,301, which ``str`` refuses: the
    # readers refuse 4,300 digits, and convolve a result of that many
    nines = "9" * 4300
    closed = gbc(tmp_path, "closed.gbc", f"-{nines} [0,1]\n")
    open_ = gbc(tmp_path, "open.gbc", f"{nines} (0,1)\n")
    for args in (("match", closed, closed), ("gamma", open_), ("convolve", open_, "--eps", "1")):
        out = run_cli(*args)
        assert out.returncode == 2 and out.stdout == "", args
        assert out.stderr == (f"error: {args[1]}: line 1: degree of 4300 digits: a degree has "
                              "at most 4299\n")
    nines = nines[1:]
    closed = gbc(tmp_path, "closed.gbc", f"-{nines} [0,1]\n")
    open_ = gbc(tmp_path, "open.gbc", f"{nines} (0,1)\n")
    out = run_cli("match", closed, closed)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.splitlines() == ["0", f"C -1{'0' * 4299} [0,1]@-{nines} [0,1]@-{nines} 0"]
    for flag in ((), ("--compact",)):
        out = run_cli("gamma", open_, *flag)
        assert out.returncode == 0 and out.stdout == f"1{'0' * 4299} 1\n"
    # the open bar collapses one degree up, the closed bar over-shrinks one down
    for path, eps, bar in ((open_, "1", f"(0,1)@{nines}"), (closed, "-1", f"[0,1]@-{nines}")):
        out = run_cli("convolve", path, "--eps", eps)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (f"error: --eps: convolving {bar} by eps={float(eps)!r}: "
                              "degree of 4300 digits: a degree has at most 4299\n")


@pytest.mark.parametrize("args", [
    ("validate", "circle_f.gbc"),
    ("match", "circle_f.gbc", "circle_g.gbc"),
    ("convolve", "circle_f.gbc", "--eps", "0.25"),
])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(args):
    # the read end is closed before the child writes, so its first write or
    # its flush fails, whatever the buffering: SIGPIPE's status in a shell,
    # not an I/O error, and no "Exception ignored" at the final flush
    argv = [str(FIXTURES / a) if a.endswith(".gbc") else a for a in args]
    for unbuffered in ("", "1"):
        r, w = os.pipe()
        os.close(r)
        try:
            out = subprocess.run([sys.executable, "-m", "sheafdist", *argv], stdout=w,
                                 stderr=subprocess.PIPE, text=True,
                                 env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(w)
        assert (out.returncode, out.stderr) == (141, "")


def test_missing_file_is_io_error():
    out = run_cli("dist", "/nonexistent.gbc", "/also-missing.gbc")
    assert out.returncode == 2


@pytest.mark.parametrize("verb, name", [("validate", "bad.gbc"), ("import-diagram", "bad.pdg")])
def test_non_utf8_file_is_parse_error(tmp_path, verb, name):
    path = tmp_path / name
    path.write_bytes(b"0 [0,1)\n\xff\xfe\n")
    extra = ("--side", "R") if verb == "import-diagram" else ()
    out = run_cli(verb, str(path), *extra)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert str(path) in out.stderr and "UTF-8" in out.stderr


@pytest.mark.parametrize("args", [
    pytest.param(("validate", "{bad}"), id="validate"),
    pytest.param(("dist", "{ok}", "{bad}"), id="dist"),
    pytest.param(("match", "{ok}", "{bad}"), id="match"),
    pytest.param(("interpolate", "{ok}", "{bad}", "--t", "0"), id="interpolate"),
    pytest.param(("component", "{ok}", "{bad}"), id="component"),
    pytest.param(("gamma", "{bad}"), id="gamma"),
    pytest.param(("convolve", "{bad}", "--eps", "1"), id="convolve"),
    pytest.param(("import-diagram", "{pdg}", "--side", "R"), id="import-diagram"),
])
def test_a_parse_error_names_its_file(tmp_path, args):
    # the fault is in the second file of a pair, where "line 1" alone once
    # left the reader to guess which file it was in
    ok, bad = gbc(tmp_path, "ok.gbc", "0 [0,1)\n"), gbc(tmp_path, "bad.gbc", "0 [2,1]\n")
    pdg = gbc(tmp_path, "bad.pdg", "0 0\n")
    out = run_cli(*(a.format(ok=ok, bad=bad, pdg=pdg) for a in args))
    path = pdg if args[0] == "import-diagram" else bad
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith(f"error: {path}: line 1: ") and out.stderr.count("\n") == 1


def test_running_out_of_memory_is_one_error_line(monkeypatch, capsys):
    from sheafdist import cli

    def exhausted(F, G):
        raise MemoryError

    monkeypatch.setattr(cli, "distance_with_matching", exhausted)
    f = str(FIXTURES / "circle_f.gbc")
    for verb in ("dist", "match"):
        assert cli.main([verb, f, f]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: out of memory\n")


# Each row of a table whose arguments are tuples carries the id it has always
# run under, so that deleting a row renames no other.
@pytest.mark.parametrize(
    "args, text",
    [
        # once read as the ray [0,inf)
        pytest.param(("validate", "{f}"), "0 [0,1e400)\n", id="args0-0 [0,1e400)\n"),
        # its width overflowed to inf
        pytest.param(("dist", "{f}", "{e}"), "0 [-1.5e308,1.5e308)\n", id="args1-0 [-1.5e308,1.5e308)\n"),
        pytest.param(("component", "{f}", "{e}"), "0 [-1.5e308,1.5e308)\n", id="args2-0 [-1.5e308,1.5e308)\n"),
        pytest.param(("import-diagram", "{f}", "--side", "R"), "0 0 1e400\n", id="args3-0 0 1e400\n"),
        pytest.param(("import-diagram", "{f}", "--side", "R"), "0 -4.5e307 0\n", id="args4-0 -4.5e307 0\n"),
        pytest.param(("hom", "[0,1e400)@0", "[0,1)@0"), "", id="args5-"),
    ],
)
def test_out_of_range_numbers_are_parse_errors(tmp_path, args, text):
    f, e = gbc(tmp_path, "f.txt", text), gbc(tmp_path, "empty.gbc", "")
    out = run_cli(*(a.format(f=f, e=e) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "out of range" in out.stderr and out.stdout == ""


@pytest.mark.parametrize(
    "args, text",
    [
        # once read as degree 10
        pytest.param(("validate", "{f}"), "1_0 [0,1)\n", id="args0-1_0 [0,1)\n"),
        pytest.param(("validate", "{f}"), "+1 [0,1)\n", id="args1-+1 [0,1)\n"),
        # an Arabic-Indic digit one
        pytest.param(("validate", "{f}"), "\u0661 [0,1)\n", id="args2-\u0661 [0,1)\n"),
        # once read as [1,2)
        pytest.param(("validate", "{f}"), "0 [\u0661,2)\n", id="args3-0 [\u0661,2)\n"),
        pytest.param(("import-diagram", "{f}", "--side", "R"), "1_0 0 1\n", id="args4-1_0 0 1\n"),
        pytest.param(("hom", "[0,1)@\u0661", "[0,1)@0"), "", id="args5-"),
        pytest.param(("hom", "[0,1)@+1", "[0,1)@0"), "", id="args6-"),
        pytest.param(("hom", "[\u0661,2)@0", "[0,1)@0"), "", id="args7-"),
    ],
)
def test_numbers_and_degrees_are_ascii(tmp_path, args, text):
    f = gbc(tmp_path, "f.txt", text)
    out = run_cli(*(a.format(f=f) for a in args))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert ("line " in out.stderr) != (args[0] == "hom")


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("convolve", "{f}", "--ep", "0.5"), id="args0"),  # once read as --eps 0.5
        pytest.param(("convolve", "{f}", "--ep", "-1e-3"), id="args1"),
        pytest.param(("convolve", "{f}", "--eps", "0.5", "--to", "0"), id="args2"),
        pytest.param(("gamma", "{f}", "--comp"), id="args3"),
    ],
)
def test_options_are_never_abbreviated(tmp_path, args):
    f = gbc(tmp_path, "a.gbc", "0 [0,1)\n")
    out = run_cli(*(a.format(f=f) for a in args))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("usage: ")


def test_unknown_verb_usage_error():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_convolve_golden(tmp_path):
    a = gbc(tmp_path, "a.gbc", "0 (-1,1)\n0 [-1,1]\n")
    out = run_cli("convolve", a, "--eps", "1")
    assert out.returncode == 0
    assert out.stdout == "0 [-2,2]\n1 [0,0]\n"
    # output re-parses to the library-level result
    from sheafdist import convolve_barcode

    assert parse_barcode(out.stdout) == convolve_barcode(parse_barcode("0 (-1,1)\n0 [-1,1]\n"), 1)


@pytest.mark.parametrize(
    "text, eps, bar",
    [
        ("0 [-4e307,4e307]\n", "1e307", "[-4e+307,4e+307]@0"),  # printed [-5e+307,5e+307]
        ("0 [0,1)\n", "1e16", "[0,1)@0"),  # 1 - 1e16 rounds onto -1e16
        ("0 (0,1]\n", "-1e308", "(0,1]@0"),
        ("0 (-4e307,4e307)\n", "-1.7e308", "(-4e+307,4e+307)@0"),  # once printed as the line
    ],
)
def test_convolve_out_of_range_is_parse_error(tmp_path, text, eps, bar):
    out = run_cli("convolve", gbc(tmp_path, "a.gbc", text), f"--eps={eps}")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert bar in out.stderr and "--eps" in out.stderr


def test_convolve_refusal_spells_eps_once(tmp_path):
    # convolve_interval's message gives eps by repr; --eps is not followed by it again
    out = run_cli("convolve", gbc(tmp_path, "a.gbc", "0 [0,1)\n"), "--eps", "1e308")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == ("error: --eps: convolving [0,1)@0 by eps=1e+308 moves an endpoint "
                          "to 2**1022 or beyond\n")


def test_convolve_prints_a_narrow_bar_that_reads_back(tmp_path):
    # an open bar of width 2e-10 is a bar like any other
    a = gbc(tmp_path, "a.gbc", "0 (0,1)\n")
    out = run_cli("convolve", a, "--eps", "0.4999999999")
    assert out.returncode == 0 and out.stdout == "0 (0.4999999999,0.5000000001)\n"
    assert run_cli("validate", gbc(tmp_path, "b.gbc", out.stdout)).stdout == "OK 1 bars\n"


def test_convolve_collapses_where_the_ends_round_onto_each_other(tmp_path):
    # 1000 + eps and 1001 - eps round onto 1000.5: once "rounding empties the bar"
    a = gbc(tmp_path, "a.gbc", "0 (1000,1001)\n")
    out = run_cli("convolve", a, "--eps", "0.49999999999999994")
    assert out.returncode == 0 and out.stdout == "1 [1000.5,1000.5]\n"


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.1e-2", "-0.001"])
def test_negative_values_in_any_float_syntax(tmp_path, value):
    # any spelling the number grammar of a .gbc file takes; float()'s
    # others, such as -1e-0_3, are usage errors (test_bad_numbers_are_usage_errors)
    a = gbc(tmp_path, "a.gbc", "0 (0,1)\n0 [0,1)\n")
    attached = run_cli("convolve", a, f"--eps={value}")
    assert attached.returncode == 0 and attached.stdout == "0 (-0.001,1.001)\n0 [0.001,1.001)\n"
    out = run_cli("convolve", a, "--eps", value)
    assert (out.returncode, out.stdout, out.stderr) == (0, attached.stdout, "")
    # the same t as --t=value: outside [0, d], a domain error, not a usage dump
    out = run_cli("interpolate", a, a, "--t", value)
    assert out.returncode == 1 and out.stderr.startswith("error: t=-0.001 outside")


def test_interpolate(tmp_path):
    f = str(FIXTURES / "circle_f.gbc")
    g = str(FIXTURES / "circle_g.gbc")
    out = run_cli("interpolate", f, g, "--t", "0.5")
    assert out.returncode == 0
    assert parse_barcode(out.stdout) == parse_barcode("0 [-0.5,0.5]\n0 (-0.5,0.5)\n")
    out = run_cli("interpolate", f, g, "--t", "7")
    assert out.returncode == 1


def test_interpolate_infinite_distance_is_domain_error(tmp_path):
    a = gbc(tmp_path, "a.gbc", "0 (0,1)\n")
    b = gbc(tmp_path, "b.gbc", "")
    out = run_cli("interpolate", a, b, "--t", "0")
    assert out.returncode == 1


def test_hom():
    assert run_cli("hom", "(0,2)@0", "[1,3]@0").stdout.strip() == "1"
    assert run_cli("hom", "[0,1]@0", "(0,2)@0").stdout.strip() == "0"
    assert run_cli("hom", "[1,2]@0", "(0,3)@1").stdout.strip() == "1"
    bad = run_cli("hom", "[1,2@0", "(0,3)@1")
    assert bad.returncode == 2


@pytest.mark.parametrize("literal", ["[0,1)\n", "[0,1)@0\n", "[0,1)\n@0"])
def test_trailing_newline_in_a_literal_is_a_parse_error(literal):
    out = run_cli("hom", literal, "[0,1)")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_gamma():
    out = run_cli("gamma", str(FIXTURES / "circle_f.gbc"))
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0 1", "1 1"]
    out = run_cli("gamma", str(FIXTURES / "circle_g.gbc"), "--compact")
    assert out.stdout.splitlines() == ["0 1", "1 1"]


def test_component(tmp_path):
    f = str(FIXTURES / "circle_f.gbc")
    g = str(FIXTURES / "circle_g.gbc")
    assert run_cli("component", f, g).stdout.strip() == "true"
    a = gbc(tmp_path, "a.gbc", "0 (0,1)\n")
    b = gbc(tmp_path, "b.gbc", "")
    assert run_cli("component", a, b).stdout.strip() == "false"
    # equal global sections, yet no finite matching
    c = gbc(tmp_path, "c.gbc", "-1 (-2.375,-1)\n-1 [4.5,inf)\n")
    d = gbc(tmp_path, "d.gbc", "-1 (-inf,inf)\n0 (-inf,-5.625]\n0 [0.625,1.375)\n1 [-3,-0.125)\n")
    assert run_cli("component", c, d).stdout == "false\n"


def test_import_diagram(tmp_path):
    pdg = tmp_path / "d.pdg"
    pdg.write_text("0 0 3\n1 -inf 2\n", encoding="utf-8")
    out = run_cli("import-diagram", str(pdg), "--side", "R")
    assert out.returncode == 0
    assert out.stdout == "0 [0,3)\n1 (-inf,2)\n"
    out = run_cli("import-diagram", str(pdg), "--side", "L")
    assert out.stdout == "0 (-3,0]\n1 (-2,inf)\n"


def test_import_diagram_prints_only_bars_that_read_back(tmp_path):
    # a diagram point of persistence 1e-12 is a bar of width 1e-12
    pdg = tmp_path / "t.pdg"
    pdg.write_text("0 0 1e-12\n", encoding="utf-8")
    out = run_cli("import-diagram", str(pdg), "--side", "R")
    assert out.returncode == 0 and out.stdout == "0 [0,1e-12)\n"
    assert run_cli("validate", gbc(tmp_path, "t.gbc", out.stdout)).stdout == "OK 1 bars\n"


def test_interpolate_prints_only_bars_that_read_back(tmp_path):
    # [0,1) shrinks to its midpoint on the way to the empty barcode: just
    # before t = 0.5 its width is 1e-12
    f, g = gbc(tmp_path, "f.gbc", "0 [0,1)\n"), gbc(tmp_path, "g.gbc", "")
    out = run_cli("interpolate", f, g, "--t", "0.4999999999995")
    assert out.returncode == 0 and out.stdout == "0 [0.4999999999995,0.5000000000005)\n"
    assert run_cli("validate", gbc(tmp_path, "u.gbc", out.stdout)).stdout == "OK 1 bars\n"


def test_import_diagram_line_is_not_an_l_bar(tmp_path):
    # the pair (-inf, inf) is the full line, an R bar: no L part holds it
    pdg = tmp_path / "d.pdg"
    pdg.write_text("0 0 3\n0 -inf inf\n", encoding="utf-8")
    assert run_cli("import-diagram", str(pdg), "--side", "R").stdout == "0 (-inf,inf)\n0 [0,3)\n"
    out = run_cli("import-diagram", str(pdg), "--side", "L")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_tol_flag_and_env(tmp_path):
    # the parser has no tolerance: --tol is an unrecognized argument, a
    # usage error, and SHEAFDIST_TOL is not read
    narrow = gbc(tmp_path, "n.gbc", "0 (0,1e-12)\n")
    assert run_cli("validate", narrow).stdout == "OK 1 bars\n"
    for args in (["--tol", "0"], ["--tol=1e-15"]):
        out = run_cli("validate", narrow, *args)
        assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr
        assert out.stderr.startswith("usage: ")
        assert out.stderr.splitlines()[-1].endswith(f"error: unrecognized arguments: {' '.join(args)}")
    out = run_cli("validate", narrow, env_extra={"SHEAFDIST_TOL": "abc"})
    assert (out.returncode, out.stdout, out.stderr) == (0, "OK 1 bars\n", "")


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("convolve", "{f}", "--eps", "nan"), id="args0-None"),
        pytest.param(("convolve", "{f}", "--eps", "inf"), id="args1-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "nan"), id="args2-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "inf"), id="args3-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "+inf"), id="args4-None"),
        pytest.param(("convolve", "{f}", "--eps", "+nan"), id="args5-None"),
        # float reads it as inf
        pytest.param(("convolve", "{f}", "--eps", "1e400"), id="args6-None"),
        pytest.param(("convolve", "{f}", "--eps", "1e"), id="args7-None"),
        pytest.param(("convolve", "{f}", "--eps", "."), id="args8-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "0x1"), id="args9-None"),
        # once argparse's "expected one argument" and a usage dump
        pytest.param(("convolve", "{f}", "--eps", "-inf"), id="args10-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "-inf"), id="args11-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "-1e400"), id="args12-None"),
        # the number grammar of a .gbc file, not float(): once 10 and 1
        pytest.param(("convolve", "{f}", "--eps", "1_0"), id="args13-None"),
        pytest.param(("convolve", "{f}", "--eps", "\u0661"), id="args14-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "1_0"), id="args15-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "\u0661"), id="args16-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t=-1e-0_3"), id="args17-None"),
        # float strips the space
        pytest.param(("convolve", "{f}", "--eps", " 1"), id="args18-None"),
        pytest.param(("convolve", "{f}", "--eps=-1e-0_3"), id="args19-None"),
        # a bad negative value as a separate argument: once a usage dump
        pytest.param(("convolve", "{f}", "--eps", "-1_0"), id="args20-None"),
        pytest.param(("convolve", "{f}", "--eps", "-nan"), id="args21-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "-1_0"), id="args22-None"),
        pytest.param(("interpolate", "{f}", "{f}", "--t", "-"), id="args23-None"),
    ],
)
def test_bad_numbers_are_usage_errors(args):
    f = str(FIXTURES / "circle_f.gbc")
    out = run_cli(*(a.format(f=f) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert out.stdout == ""


@pytest.mark.parametrize(
    "args, name",
    [
        # once "got []"
        pytest.param(("import-diagram", "{d}", "--side=--"), "--side", id="args0---side"),
        # once exit 0, no output
        pytest.param(("import-diagram", "{e}", "--side=--"), "--side", id="args1---side"),
        # before the file is read
        pytest.param(("import-diagram", "{m}", "--side=--"), "--side", id="args2---side"),
        pytest.param(("convolve", "{f}", "--eps=--"), "--eps", id="args3---eps"),
        pytest.param(("interpolate", "{f}", "{f}", "--t=--"), "--t", id="args4---t"),
        # no such option: argparse names it
        pytest.param(("validate", "{f}", "--tol=--"), "--tol", id="args5---tol"),
        pytest.param(("dist", "{f}", "--", "--"), None, id="args6-None"),  # once a traceback
        pytest.param(("hom", "[0,1]@0", "--", "--"), None, id="args7-None"),
    ],
)
def test_an_attached_double_dash_is_a_usage_error(tmp_path, args, name):
    # argparse reads ``--x=--``, and a second ``--``, as the value [] (newer
    # versions as "--", which its own checks refuse): one error line
    # naming the option, or argparse's usage error
    d, e = gbc(tmp_path, "d.pdg", "0 0 1\n"), gbc(tmp_path, "e.pdg", "")
    f, m = str(FIXTURES / "circle_f.gbc"), str(tmp_path / "missing.pdg")
    out = run_cli(*(a.format(d=d, e=e, f=f, m=m) for a in args))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.count("\n") == 1 or out.stderr.startswith("usage: ")
    assert "error: " in out.stderr
    assert name is None or name in out.stderr.splitlines()[-1]


_FUZZ_NUMBERS = [
    "0", "0.5", "-0.5", "1e-3", "-1e-3", "7", "1e16", "-1e16", "4.4e307", "-4.4e307", "1e308",
    "-1.7e308", "1e400", "inf", "-inf", "+inf", "nan", "-nan", "1_0", "-1_0", "١", "0x1",
    "", "-", "--", "-x", "1e", ".", "0.4999999999995", "1e-12", "-1e-12", "5e-324",
]
_FUZZ_LITERALS = [
    "[0,1)", "(0,1]", "[0,1]", "(0,1)", "[1,1]", "[1,1)", "(0,inf)", "[0,inf]", "(-inf,inf)",
    "[-4e307,4e307]", "[0,1e400)", "(-1e308,0)", "[x,1]", "[0,1", "0,1]", "[,]", "[0, 1]",
    "[١,2)", "[nan,1)", "(-inf,-inf)", "[4.4e307,4.4e307]",
]
_FUZZ_DEGREES = ["0", "1", "-1", "+1", "1_0", "١", "x", "", "007"]


def _fuzz_gbc(rng) -> str:
    lines = []
    for _ in range(rng.randrange(0, 6)):
        if rng.random() < 0.85:
            lines.append(f"{rng.choice(_FUZZ_DEGREES[:3])} {rng.choice(_FUZZ_LITERALS[:10])}")
        else:
            lines.append(f"{rng.choice(_FUZZ_DEGREES)} {rng.choice(_FUZZ_LITERALS)}")
    return "\n".join(lines) + rng.choice(["", "\n", "\r\n", "# c\n"])


def _fuzz_pdg(rng) -> str:
    return "".join(f"{rng.choice(_FUZZ_DEGREES[:3])} {rng.choice(_FUZZ_NUMBERS[:14])} "
                   f"{rng.choice(_FUZZ_NUMBERS[:14] if rng.random() < 0.9 else _FUZZ_NUMBERS)}\n"
                   for _ in range(rng.randrange(0, 4)))


def test_cli_fuzz_ends_in_an_exit_code(tmp_path, capsys):
    # in process: every call returns 0, 1 or 2, or argparse exits with 2;
    # no other exception, and so no traceback, gets out of main
    from sheafdist.cli import main

    rng = random.Random(0xF022)
    files = []
    for k in range(12):
        files.append(gbc(tmp_path, f"{k}.gbc", _fuzz_gbc(rng)))
        files.append(gbc(tmp_path, f"{k}.pdg", _fuzz_pdg(rng)))
    (tmp_path / "bytes.gbc").write_bytes(b"0 [0,1)\n\xff\n")
    files += [str(tmp_path / "bytes.gbc"), str(tmp_path / "missing.gbc")]
    num = lambda: rng.choice(_FUZZ_NUMBERS) if rng.random() < 0.8 else repr(rng.uniform(-9, 9))
    commands = [
        lambda: ["validate", rng.choice(files)],
        lambda: ["dist", rng.choice(files), rng.choice(files)],
        lambda: ["match", rng.choice(files), rng.choice(files)],
        lambda: ["convolve", rng.choice(files), *rng.choice([["--eps", num()], [f"--eps={num()}"]])],
        lambda: ["interpolate", rng.choice(files), rng.choice(files), "--t", num()],
        lambda: ["hom", rng.choice(_FUZZ_LITERALS) + rng.choice(["", "@0", "@1", "@+1", "@x"]),
                 rng.choice(_FUZZ_LITERALS)],
        lambda: ["gamma", rng.choice(files)] + (["--compact"] if rng.random() < 0.5 else []),
        lambda: ["component", rng.choice(files), rng.choice(files)],
        lambda: ["import-diagram", rng.choice(files), "--side", rng.choice(["R", "L", "C"])],
        lambda: [rng.choice(["", "frobnicate", "--eps", "-h"])],
    ]
    outcomes = Counter()
    for _ in range(2000):
        argv = rng.choice(commands)()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = f"exit {exc.code}"
        assert code in (0, 1, 2, "exit 0", "exit 2"), argv
        outcomes[code] += 1
        out = capsys.readouterr().out
        if code == 0 and argv[0] in ("convolve", "interpolate", "import-diagram"):
            # printed .gbc text reads back as it was printed
            assert format_barcode(parse_barcode(out)) == out, argv
    assert set(outcomes) >= {0, 1, 2, "exit 2"}, outcomes


# ---------------------------------------------------------------------
# no run ends in a traceback: a property over commands, options and bytes
# ---------------------------------------------------------------------

_EDGE = repr(2.0**1022)  # the least finite magnitude no reader takes
_BELOW_EDGE = repr(math.nextafter(2.0**1022, 0))
_GBC_LINES = [
    "0 [0,1)", "0 (0,1]", "0 [-1,1]", "0 (-1,1)", "1 [0,0]", "0 [0,inf)", "0 (-inf,1)",
    "-1 (-inf,inf)", "0 (3,inf)", "2 (0,2]", f"0 [0,{_BELOW_EDGE})", f"0 (-{_BELOW_EDGE},0]",
    f"0 [{_BELOW_EDGE},inf)", f"{'9' * 4299} (0,1)", f"-{'9' * 4299} [0,1]", "0 [0,1e-12)",
]
_PDG_LINES = ["0 0 1", "0 -inf 2", "1 3 inf", "0 -inf inf", "0 0 1e-12", f"0 0 {_BELOW_EDGE}",
              f"{'9' * 4299} 0 1"]
_BAD_LINES = [f"0 [0,{_EDGE})", f"1{'0' * 4299} [0,1)", "0 [1,1)", "x [0,1)", f"0 0 {_EDGE}",
              f"1{'0' * 4299} 0 1", "0 2 1"]
# U+0085 (NEL) ends a line for str.splitlines; NUL does not
_ENDINGS = ["\n", "\r\n", "\x85", " # c\n"]
_BOM = "\ufeff".encode()


def _mostly(common: list, rare: list):
    """A draw from ``common``, or one time in eight from ``rare``."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(rare if k == 0 else common))


_COMMANDS = {  # files each command reads, and its own option
    "validate": (1, None), "dist": (2, None), "match": (2, None), "convolve": (1, "--eps"),
    "interpolate": (2, "--t"), "hom": (0, None), "gamma": (1, "--compact"),
    "component": (2, None), "import-diagram": (1, "--side"), "frobnicate": (1, None),
}
_VALUES = {
    "--eps": ["0", "0.5", "-0.5", "1", "-1e-3", "3", "1e16", "1e308", "-1.7e308", _BELOW_EDGE],
    "--t": ["0", "0", "1e-12", "0.25", "0.5", "1", "-1", "0.4999999999995", "1e308"],
    "--side": ["R", "L"],
}
_BAD_VALUES = ["inf", "nan", "1_0", "", "--", "C", "-x"]


@st.composite
def _file_bytes(draw, own_lines: list[str]) -> bytes:
    lines = draw(_mostly([own_lines], [_GBC_LINES + _PDG_LINES]))  # now and then both formats
    text = "".join(draw(st.lists(
        st.tuples(_mostly(lines, _BAD_LINES), _mostly(_ENDINGS, ["\x00", ""])).map("".join),
        max_size=4)))
    data = (_BOM if draw(st.integers(0, 7)) == 0 else b"") + text.encode()
    for _ in range(draw(_mostly([0], [1, 2]))):  # splice a few bytes in
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.binary(max_size=2)) + data[i + draw(st.integers(0, 2)):]
    return data


@st.composite
def _runs(draw) -> tuple[list[str], list[bytes]]:
    """A command line, with ``f0``, ``f1`` and ``missing`` for its files,
    and the bytes of files ``f0`` and ``f1``: lines of the command's
    format, now and then of the other one, bad lines, other endings and
    spliced bytes."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    reads, own = _COMMANDS[command]
    lines = _PDG_LINES if command == "import-diagram" else _GBC_LINES
    files = draw(st.lists(_file_bytes(lines), min_size=2, max_size=2))
    argv = [command, *draw(st.lists(_mostly(["f0", "f1"], ["missing"]),
                                    min_size=reads, max_size=reads))]
    if reads == 2 and draw(st.booleans()):  # a pair at distance 0
        argv[2] = argv[1]
    if command == "hom":
        argv += draw(st.lists(_mostly(["[0,1]@0", "(0,1)@1", "[0,inf)@-1"], ["[0,1)@x", "[0,1)"]),
                              min_size=2, max_size=2))
    options = [own] if own and draw(st.integers(0, 9)) else []
    if draw(st.integers(0, 7)) == 0:  # perhaps another command's option
        options.append(draw(st.sampled_from(["--eps", "--t", "--side", "--compact"])))
    for option in options:
        if option == "--compact":
            argv.append(option)
            continue
        value = draw(_mostly(_VALUES[option], _BAD_VALUES))
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return argv, files


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_runs())
def test_no_run_ends_in_a_traceback(run):
    # in process: 0, 1 or 2 (argparse's SystemExit(2) too), one error line
    # or argparse's usage on failure, and printed .gbc text reads back
    from sheafdist.cli import main

    argv, files = run
    with TemporaryDirectory() as tmp:
        for name, data in zip(("f0", "f1"), files):
            Path(tmp, name).write_bytes(data)
        argv = [str(Path(tmp, a)) if a in ("f0", "f1", "missing") else a for a in argv]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err
    if code:
        assert (err.startswith("error: ") and err.count("\n") == 1) or (
            err.startswith("usage: ") and ": error: " in err.splitlines()[-1]), err
    else:
        assert err == ""
        if argv[0] in ("convolve", "interpolate", "import-diagram"):
            assert format_barcode(parse_barcode(out)) == out
