"""benchmarks/bench.py: refused arguments, and its tier1 entry (parts, run only when named,
a part that selects nothing)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", REPO / "benchmarks" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def collected(*args):
    """The node ids that pytest collects in this checkout with these arguments."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only", *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return [line for line in out.stdout.splitlines() if "::" in line]


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


def test_tier1_parts_split_the_suite():
    # every sweep id selects tests, and the parts collect each test exactly once
    bench = load_bench()
    assert bench.TIER1 not in bench.CONFIGS
    whole = collected()
    sweep = collected(*bench.TIER1_PARTS["sweep"])
    rest = collected(*bench.TIER1_PARTS["rest"])
    for test in bench.SWEEP_TESTS:
        assert any(node == test or node.startswith(test + "[") for node in sweep), test
    assert sorted(sweep + rest) == sorted(whole)
    assert not set(sweep) & set(rest)


def test_tier1_runs_only_when_named(tmp_path, monkeypatch):
    # a run without --only leaves the suite out; a failing part is recorded, not fatal
    bench = load_bench()
    asked = []

    def measure(trees, repeat, names):
        asked.append(names)
        return [{} for _ in trees]

    monkeypatch.setattr(bench, "REPO", tmp_path)
    monkeypatch.setattr(bench, "measure", measure)
    # the second run passes one test fewer: passed_runs shows it
    counts = iter([3, 2])
    monkeypatch.setattr(
        bench, "run_tier1", lambda tree: dict.fromkeys(bench.TIER1_PARTS, (1.0, next(counts), 1))
    )
    monkeypatch.setattr(bench.compileall, "compile_dir", lambda *args, **kwargs: True)
    argv = ["bench.py", "--label", "t", "--tree", str(tmp_path), "--commit", "abc"]
    monkeypatch.setattr(sys, "argv", [*argv, "--entry", "full"])
    bench.main()
    monkeypatch.setattr(sys, "argv", [*argv, "--entry", "suite", "--only", "tier1", "--repeat", "2"])
    bench.main()
    assert asked == [list(bench.CONFIGS), []]
    data = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert data["full"]["configs"] == {}
    tier1 = data["suite"]["configs"]["tier1"]
    for part in bench.TIER1_PARTS:
        assert tier1[part]["exit_codes"] == [1, 1]
        assert tier1[part]["passed"] == 3
        assert tier1[part]["passed_runs"] == [3, 2]


@pytest.mark.parametrize("part, code", [("sweep", 4), ("rest", 5)])
def test_tier1_part_that_selects_nothing_exits_2(tmp_path, monkeypatch, capsys, part, code):
    # the second tree's part selects no test; the first tree's suite passes
    bench = load_bench()
    old, new = tmp_path / "old", tmp_path / "new"

    def run(cmd, cwd, **kwargs):
        rest = "--deselect" in cmd
        if cwd == new and rest == (part == "rest"):
            return subprocess.CompletedProcess(cmd, code, "no tests ran in 0.01s\n", "")
        return subprocess.CompletedProcess(cmd, 0, "3 passed in 0.01s\n", "")

    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench.measure_tier1([old, new], 1)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"the {part} part selects no test in {new}: pytest exited {code}" in err


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_peak_rss_is_the_childs_own():
    # a forked child's ru_maxrss starts at the RSS of its parent: the 48 MB
    # held here must not show in the child's figure
    bench = load_bench()
    held = b"\1" * (48 << 20)
    wall, run_s, peak_mb, report, code = bench.run_once(REPO, ["counts", "--q", "3", "--dmax", "2"])
    assert code == 0 and run_s is not None
    assert 0 < peak_mb < len(held) / 2**20
