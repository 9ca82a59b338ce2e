import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"
FIXTURES = Path(__file__).parent / "fixtures"
DIGEST = TOOLS / "digest.py"

LINES = [
    "match|0x0.0p+0 0x1.0000000000000p+0 10 0|0x0.0p+0 0x1.0000000000000p+1 10 0|->|0x1.0p-1||"
    "R 0 0x0.0p+0 0x1.0000000000000p+0 10 0 0x0.0p+0 0x1.0000000000000p+1 10 0 0x1.0p-1|",
    "pair_path|0x0.0p+0 0x1.0000000000000p+0 10 0|None|0x0.0p+0|->|0x0.0p+0 0x1.0000000000000p+0 10 0",
    "solve|zeros 0|->|0x0.0p+0|0x0.0p+0 0x1.0000000000000p+0 10 0 -0x0.0p+0 0x1.0000000000000p+0 10 0 "
    "0x0.0p+0",
]


# [0,1)@0 convolved by 0.5 is [-0.5,0.5)@0
CONVOLVE = ("convolve|0x0.0p+0 0x1.0000000000000p+0 10 0|0x1.0000000000000p-1|->|"
            "-0x1.0000000000000p-1 0x1.0000000000000p-1 10 0")
PARSE_LINES = [
    "parse|halfopen 1:000F|0x0.0p+0 0x1.0000000000000p+0 10 0 ; 0x0.0p+0 inf 10 1",
    "parse|fixture circle_f.gbc|-0x1.0000000000000p+0 0x1.0000000000000p+0 11 0",
    "parse|fuzz 0|E line 1: bad degree 'x'",
    "parse|fuzz 1|",
]
# [0,1]@0 -> (1,2)@1: a touching pair carries a degree-1 morphism
HOM = "hom|0x0.0p+0 0x1.0000000000000p+0 11 0|0x1.0000000000000p+0 0x1.0000000000000p+1 00 1|->|1"


def _digest():
    sys.path.insert(0, str(TOOLS))
    try:
        import digest
    finally:
        sys.path.remove(str(TOOLS))
    return digest


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text("".join(line + "\n" for line in a), encoding="utf-8")
    pb.write_text("".join(line + "\n" for line in b), encoding="utf-8")
    return subprocess.run([sys.executable, str(DIGEST), "compare", str(pa), str(pb)],
                          capture_output=True, text=True)


def test_move_digest_compare_equal(tmp_path):
    out = _compare(tmp_path, LINES, LINES)
    assert out.returncode == 0
    assert "match: 1 lines (0 errors in a), 0 different" in out.stdout
    assert "solve: 1 lines (0 errors in a), 0 different" in out.stdout
    assert "lengths differ" not in out.stdout


def test_move_digest_compare_refuses_a_truncated_digest(tmp_path):
    # the prefix agrees line for line, but a digest cut short is no match
    for a, b in [(LINES, LINES[:2]), (LINES[:2], LINES)]:
        out = _compare(tmp_path, a, b)
        assert out.returncode == 1
        assert "match: 1 lines (0 errors in a), 0 different" in out.stdout
        assert f"lengths differ: a {len(a)} lines, b {len(b)}" in out.stdout


def test_move_digest_compare_refuses_a_different_witness(tmp_path):
    other = [LINES[0].replace("0x1.0p-1|", "0x1.8p-1|"), *LINES[1:]]
    out = _compare(tmp_path, LINES, other)
    assert out.returncode == 1
    assert "match: 1 lines (0 errors in a), 1 different" in out.stdout


def test_move_digest_compare_refuses_a_different_solve_line(tmp_path):
    # a zero cost listed as -0.0 is a different line, though -0.0 == 0.0
    other = [*LINES[:2], LINES[2].removesuffix("0x0.0p+0") + "-0x0.0p+0"]
    out = _compare(tmp_path, LINES, other)
    assert out.returncode == 1
    assert "solve: 1 lines (0 errors in a), 1 different" in out.stdout
    assert "match: 1 lines (0 errors in a), 0 different" in out.stdout


# a cli line: the command, its exit code, stdout's sha256 and line count, and stderr
CLI = ("cli|dist circle_f.gbc circle_g.gbc|0|"
       "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 1|")


def test_move_digest_compare_refuses_a_different_cli_line(tmp_path):
    assert _compare(tmp_path, [*LINES, CLI], [*LINES, CLI]).returncode == 0
    for other in (CLI.replace("|0|", "|1|"), CLI.replace(" 1|", " 2|"), CLI + "error: x"):
        out = _compare(tmp_path, [*LINES, CLI], [*LINES, other])
        assert out.returncode == 1
        assert "cli: 1 lines (0 errors in a), 1 different" in out.stdout
        assert "match: 1 lines (0 errors in a), 0 different" in out.stdout


def test_move_digest_cli_section_runs_the_commands(tmp_path):
    # the section's first lines: the fixture pair through every command
    from sheafdist.cli import main

    lines = [_digest()._cli_line(main, FIXTURES, argv) for argv in (
        ["dist", "circle_f.gbc", "circle_g.gbc"], ["convolve", "circle_f.gbc", "--eps", "1e308"],
        ["convolve", "circle_f.gbc"], ["dist", "missing.gbc", "circle_g.gbc"])]
    assert lines[0] == CLI
    assert lines[1].startswith("cli|convolve circle_f.gbc --eps 1e308|2|")
    assert lines[1].endswith(" 0|error: --eps: convolving [-1,1]@0 by eps=1e+308 moves an "
                             "endpoint to 2**1022 or beyond")
    # a usage error is one error line and exit 2, with nothing on stdout
    assert lines[2].split("|")[2:] == [
        "2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0",
        "error: convolve needs --eps"]
    assert lines[3].split("|")[2:4] == [
        "2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0"]
    assert "<tmp>/missing.gbc" in lines[3] and str(FIXTURES) not in lines[3]


def test_move_digest_compare_refuses_a_badly_rounded_convolve(tmp_path):
    # a digest compared with itself has no difference, but a convolve result
    # one ulp off the correctly rounded end is no correct result
    assert _compare(tmp_path, [*LINES, CONVOLVE], [*LINES, CONVOLVE]).returncode == 0
    off = [*LINES, CONVOLVE.replace("0x1.0000000000000p-1 10", "0x1.0000000000001p-1 10")]
    out = _compare(tmp_path, off, off)
    assert out.returncode == 1
    assert "convolve: 1 lines (0 errors in a), 0 different" in out.stdout
    assert "convolve results correctly rounded or errors: a 0, b 0" in out.stdout


def test_move_digest_compare_refuses_any_different_convolve_line(tmp_path):
    # a raised an error where b returns a correctly rounded bar: still a
    # different answer, so the digests do not match
    raised = (CONVOLVE.rpartition("|")[0]
              + "|E empty interval: equal endpoints need both flags closed")
    out = _compare(tmp_path, [*LINES, raised], [*LINES, CONVOLVE])
    assert out.returncode == 1
    assert "convolve: 1 lines (1 errors in a), 1 different" in out.stdout
    assert "convolve results correctly rounded or errors: a 1, b 1" in out.stdout


def test_parse_digest_compare_equal(tmp_path):
    out = _compare(tmp_path, PARSE_LINES, PARSE_LINES)
    assert out.returncode == 0
    assert "parse halfopen: 1 lines (0 errors in a), 0 different" in out.stdout
    assert "parse fuzz: 2 lines (1 errors in a), 0 different" in out.stdout
    assert "lengths differ" not in out.stdout


def test_parse_digest_compare_refuses_a_truncated_digest(tmp_path):
    for a, b in [(PARSE_LINES, PARSE_LINES[:3]), (PARSE_LINES[:3], PARSE_LINES)]:
        out = _compare(tmp_path, a, b)
        assert out.returncode == 1
        assert "parse fixture: 1 lines (0 errors in a), 0 different" in out.stdout
        assert f"lengths differ: a {len(a)} lines, b {len(b)}" in out.stdout


def test_parse_digest_compare_refuses_a_different_parse(tmp_path):
    # an error message that differs is a different parse, as a bar is
    other = [*PARSE_LINES[:2], "parse|fuzz 0|E line 1: bad degree 'y'", PARSE_LINES[3]]
    out = _compare(tmp_path, PARSE_LINES, other)
    assert out.returncode == 1
    assert "parse fuzz: 2 lines (1 errors in a), 1 different" in out.stdout
    assert "parse halfopen: 1 lines (0 errors in a), 0 different" in out.stdout


def test_hom_digest_covers_the_test_grid_at_every_shift(tmp_path):
    from test_homs import grid_intervals

    digest = _digest()
    assert [g.interval for g in digest._hom_grid()] == grid_intervals()
    assert {g.degree for g in digest._hom_grid()} == {0}
    assert _compare(tmp_path, [*LINES, HOM], [*LINES, HOM]).returncode == 0
    out = _compare(tmp_path, [*LINES, HOM], [*LINES, HOM.removesuffix("1") + "0"])
    assert out.returncode == 1
    assert "hom: 1 lines (0 errors in a), 1 different" in out.stdout
    assert "match: 1 lines (0 errors in a), 0 different" in out.stdout


def test_hom_digest_cli_lines_run_the_command():
    from sheafdist.cli import main

    digest = _digest()
    touching, disjoint, malformed = (digest._cli_line(main, FIXTURES, ["hom", *args])
                                     for args in digest.HOM_ARGS)
    # stdout "1\n" and "0\n", one line each; a malformed literal is one error line
    assert touching == ("cli|hom [0,1]@0 (1,2)@1|0|"
                        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 1|")
    assert disjoint.split("|")[2:] == [
        "0", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa 1", ""]
    assert malformed.split("|")[2:] == [
        "2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0",
        "error: bad interval literal '[0,1'"]
