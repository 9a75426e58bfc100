"""benchmarks/bench.py refuses a config name it does not know, before running anything."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_only_unknown_name_exits_2(tmp_path):
    out = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench.py"), "--label", "unused",
         "--entry", "after", "--only", "counts-q3", "no-such-config"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert "unknown config no-such-config" in out.stderr
    assert out.stdout == ""
    assert not (REPO / "BENCH_unused.json").exists()


def test_tree_without_commit_exits_2(tmp_path):
    # a bare directory is no git checkout: its entry could not name a commit
    bare = tmp_path / "bare"
    (bare / "src" / "waldq").mkdir(parents=True)
    for flag in ("--against", "--tree"):
        out = subprocess.run(
            [sys.executable, str(REPO / "benchmarks" / "bench.py"), "--label", "unused",
             "--entry", "after", flag, str(bare), "--only", "counts-q3"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 2, flag
        assert "is not a git checkout" in out.stderr
        assert out.stdout == ""
        assert not (REPO / "BENCH_unused.json").exists()
        assert sorted(bare.rglob("*")) == [bare / "src", bare / "src" / "waldq"]
