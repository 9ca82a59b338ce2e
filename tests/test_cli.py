import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sheafdist import parse_barcode

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


def test_validate(tmp_path):
    out = run_cli("validate", str(FIXTURES / "circle_f.gbc"))
    assert out.returncode == 0 and out.stdout.strip() == "OK 2 bars"
    bad = gbc(tmp_path, "bad.gbc", "0 [2,1]\n")
    out = run_cli("validate", bad)
    assert out.returncode == 2
    assert "line 1" in out.stderr


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


@pytest.mark.parametrize(
    "args, text",
    [
        (("validate", "{f}"), "0 [0,1e400)\n"),  # once read as the ray [0,inf)
        (("dist", "{f}", "{e}"), "0 [-1.5e308,1.5e308)\n"),  # its width overflowed to inf
        (("component", "{f}", "{e}"), "0 [-1.5e308,1.5e308)\n"),
        (("import-diagram", "{f}", "--side", "R"), "0 0 1e400\n"),
        (("import-diagram", "{f}", "--side", "R"), "0 -4.5e307 0\n"),
        (("hom", "[0,1e400)@0", "[0,1)@0"), ""),
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
        (("validate", "{f}"), "1_0 [0,1)\n"),  # once read as degree 10
        (("validate", "{f}"), "+1 [0,1)\n"),
        (("validate", "{f}"), "\u0661 [0,1)\n"),  # an Arabic-Indic digit one
        (("validate", "{f}"), "0 [\u0661,2)\n"),  # once read as [1,2)
        (("import-diagram", "{f}", "--side", "R"), "1_0 0 1\n"),
        (("hom", "[0,1)@\u0661", "[0,1)@0"), ""),
        (("hom", "[0,1)@+1", "[0,1)@0"), ""),
        (("hom", "[\u0661,2)@0", "[0,1)@0"), ""),
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
        ("convolve", "{f}", "--ep", "0.5"),  # once read as --eps 0.5
        ("convolve", "{f}", "--ep", "-1e-3"),
        ("convolve", "{f}", "--eps", "0.5", "--to", "0"),
        ("gamma", "{f}", "--comp"),
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
        ("0 (0,1)\n", "0.4999999999", "(0,1)@0"),  # width 2e-10 <= tol: validate rejects it
        ("0 (-4e307,4e307)\n", "-1.7e308", "(-4e+307,4e+307)@0"),  # once printed as the line
    ],
)
def test_convolve_out_of_range_is_parse_error(tmp_path, text, eps, bar):
    out = run_cli("convolve", gbc(tmp_path, "a.gbc", text), f"--eps={eps}")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert bar in out.stderr and "--eps" in out.stderr


def test_convolve_reads_back_under_the_given_tol(tmp_path):
    # the width 2e-10 is over --tol 0 (under the default tol: see above)
    a = gbc(tmp_path, "a.gbc", "0 (0,1)\n")
    out = run_cli("convolve", a, "--eps", "0.4999999999", "--tol", "0")
    assert out.returncode == 0 and out.stdout == "0 (0.4999999999,0.5000000001)\n"
    b = gbc(tmp_path, "b.gbc", out.stdout)
    assert run_cli("validate", b, "--tol", "0").stdout == "OK 1 bars\n"
    assert run_cli("validate", b).returncode == 2


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
    out = run_cli("validate", a, "--tol", value)
    assert out.returncode == 2 and out.stderr == "error: --tol must be >= 0, got -0.001\n"


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


def test_import_diagram(tmp_path):
    pdg = tmp_path / "d.pdg"
    pdg.write_text("0 0 3\n1 -inf 2\n", encoding="utf-8")
    out = run_cli("import-diagram", str(pdg), "--side", "R")
    assert out.returncode == 0
    assert out.stdout == "0 [0,3)\n1 (-inf,2)\n"
    out = run_cli("import-diagram", str(pdg), "--side", "L")
    assert out.stdout == "0 (-3,0]\n1 (-2,inf)\n"


def _one_error_line(out, bar):
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert bar in out.stderr


def test_import_diagram_prints_only_bars_that_read_back(tmp_path):
    # the width 1e-12 is at most the default tol: validate would refuse the bar
    pdg = tmp_path / "t.pdg"
    pdg.write_text("0 0 1e-12\n", encoding="utf-8")
    _one_error_line(run_cli("import-diagram", str(pdg), "--side", "R"), "[0,1e-12)@0")
    out = run_cli("import-diagram", str(pdg), "--side", "R", "--tol", "0")
    assert out.returncode == 0 and out.stdout == "0 [0,1e-12)\n"
    assert run_cli("validate", gbc(tmp_path, "t.gbc", out.stdout), "--tol", "0").stdout == "OK 1 bars\n"


def test_interpolate_prints_only_bars_that_read_back(tmp_path):
    # [0,1) shrinks to its midpoint on the way to the empty barcode: just
    # before t = 0.5 its width is 1e-12, at most the default tol
    f, g = gbc(tmp_path, "f.gbc", "0 [0,1)\n"), gbc(tmp_path, "g.gbc", "")
    out = run_cli("interpolate", f, g, "--t", "0.4999999999995")
    _one_error_line(out, "[0.4999999999995,0.5000000000005)@0")
    assert "--t" in out.stderr
    out = run_cli("interpolate", f, g, "--t", "0.4999999999995", "--tol", "0")
    assert out.returncode == 0 and out.stdout == "0 [0.4999999999995,0.5000000000005)\n"
    assert run_cli("validate", gbc(tmp_path, "u.gbc", out.stdout), "--tol", "0").stdout == "OK 1 bars\n"


def test_import_diagram_line_is_not_an_l_bar(tmp_path):
    # the pair (-inf, inf) is the full line, an R bar: no L part holds it
    pdg = tmp_path / "d.pdg"
    pdg.write_text("0 0 3\n0 -inf inf\n", encoding="utf-8")
    assert run_cli("import-diagram", str(pdg), "--side", "R").stdout == "0 (-inf,inf)\n0 [0,3)\n"
    out = run_cli("import-diagram", str(pdg), "--side", "L")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_tol_flag_and_env(tmp_path):
    narrow = gbc(tmp_path, "n.gbc", "0 (0,1e-12)\n")
    assert run_cli("validate", narrow).returncode == 2
    assert run_cli("validate", narrow, "--tol", "1e-15").returncode == 0
    assert run_cli("validate", narrow, env_extra={"SHEAFDIST_TOL": "1e-15"}).returncode == 0


@pytest.mark.parametrize(
    "args, env",
    [
        (("convolve", "{f}", "--eps", "nan"), None),
        (("convolve", "{f}", "--eps", "inf"), None),
        (("interpolate", "{f}", "{f}", "--t", "nan"), None),
        (("interpolate", "{f}", "{f}", "--t", "inf"), None),
        (("validate", "{f}", "--tol", "-1"), None),
        (("validate", "{f}", "--tol", "nan"), None),
        (("validate", "{f}", "--tol", "inf"), None),
        (("validate", "{f}"), {"SHEAFDIST_TOL": "abc"}),
        (("validate", "{f}"), {"SHEAFDIST_TOL": "-1"}),
        (("validate", "{f}"), {"SHEAFDIST_TOL": "nan"}),
        # once argparse's "expected one argument" and a usage dump
        (("convolve", "{f}", "--eps", "-inf"), None),
        (("interpolate", "{f}", "{f}", "--t", "-inf"), None),
        (("validate", "{f}", "--tol", "-inf"), None),
        # the number grammar of a .gbc file, not float(): once 10 and 1
        (("convolve", "{f}", "--eps", "1_0"), None),
        (("convolve", "{f}", "--eps", "\u0661"), None),
        (("interpolate", "{f}", "{f}", "--t", "1_0"), None),
        (("validate", "{f}", "--tol", "1_0"), None),
        (("validate", "{f}"), {"SHEAFDIST_TOL": "1_0"}),
        (("validate", "{f}"), {"SHEAFDIST_TOL": "\u0661"}),
        (("convolve", "{f}", "--eps=-1e-0_3"), None),
        # a bad negative value as a separate argument: once a usage dump
        (("convolve", "{f}", "--eps", "-1_0"), None),
        (("convolve", "{f}", "--eps", "-nan"), None),
        (("interpolate", "{f}", "{f}", "--t", "-1_0"), None),
        (("validate", "{f}", "--tol", "-nan"), None),
    ],
)
def test_bad_numbers_are_usage_errors(args, env):
    f = str(FIXTURES / "circle_f.gbc")
    out = run_cli(*(a.format(f=f) for a in args), env_extra=env)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert out.stdout == ""


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


def test_cli_fuzz_ends_in_an_exit_code(tmp_path, capsys, monkeypatch):
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
        if rng.random() < 0.3:
            argv += ["--tol", num()] if rng.random() < 0.8 else [f"--tol={num()}"]
        if rng.random() < 0.05:
            monkeypatch.setenv("SHEAFDIST_TOL", num())
        else:
            monkeypatch.delenv("SHEAFDIST_TOL", raising=False)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = f"exit {exc.code}"
        assert code in (0, 1, 2, "exit 0", "exit 2"), argv
        outcomes[code] += 1
        capsys.readouterr()
    assert set(outcomes) >= {0, 1, 2, "exit 2"}, outcomes
