import subprocess
import sys
from pathlib import Path

MOVE_DIGEST = Path(__file__).parent.parent / "tools" / "move_digest.py"

LINES = [
    "match|0x0.0p+0 0x1.0000000000000p+0 10 0|0x0.0p+0 0x1.0000000000000p+1 10 0|->|0x1.0p-1||"
    "R 0 0x0.0p+0 0x1.0000000000000p+0 10 0 0x0.0p+0 0x1.0000000000000p+1 10 0 0x1.0p-1|",
    "pair_path|0x0.0p+0 0x1.0000000000000p+0 10 0|None|0x0.0p+0|->|0x0.0p+0 0x1.0000000000000p+0 10 0",
]


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text("".join(line + "\n" for line in a), encoding="utf-8")
    pb.write_text("".join(line + "\n" for line in b), encoding="utf-8")
    return subprocess.run([sys.executable, str(MOVE_DIGEST), "compare", str(pa), str(pb)],
                          capture_output=True, text=True)


def test_move_digest_compare_equal(tmp_path):
    out = _compare(tmp_path, LINES, LINES)
    assert out.returncode == 0
    assert "match: 1 calls, 0 different" in out.stdout
    assert "lengths differ" not in out.stdout


def test_move_digest_compare_refuses_a_truncated_digest(tmp_path):
    # the prefix agrees line for line, but a digest cut short is no match
    for a, b in [(LINES, LINES[:1]), (LINES[:1], LINES)]:
        out = _compare(tmp_path, a, b)
        assert out.returncode == 1
        assert "match: 1 calls, 0 different" in out.stdout
        assert f"lengths differ: a {len(a)} lines, b {len(b)}" in out.stdout


def test_move_digest_compare_refuses_a_different_witness(tmp_path):
    other = [LINES[0].replace("0x1.0p-1|", "0x1.8p-1|"), LINES[1]]
    out = _compare(tmp_path, LINES, other)
    assert out.returncode == 1
    assert "match: 1 calls, 1 different" in out.stdout
