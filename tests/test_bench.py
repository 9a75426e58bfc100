"""benchmarks/bench.py: refused arguments, and its tier1 entry (parts, run only when named)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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
    monkeypatch.setattr(bench, "run_tier1", lambda tree: {p: (1.0, 3, 1) for p in bench.TIER1_PARTS})
    monkeypatch.setattr(bench.compileall, "compile_dir", lambda *args, **kwargs: True)
    argv = ["bench.py", "--label", "t", "--tree", str(tmp_path), "--commit", "abc"]
    monkeypatch.setattr(sys, "argv", [*argv, "--entry", "full"])
    bench.main()
    monkeypatch.setattr(sys, "argv", [*argv, "--entry", "suite", "--only", "tier1"])
    bench.main()
    assert asked == [list(bench.CONFIGS), []]
    data = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert data["full"]["configs"] == {}
    tier1 = data["suite"]["configs"]["tier1"]
    for part in bench.TIER1_PARTS:
        assert tier1[part]["exit_codes"] == [1]
        assert tier1[part]["passed"] == 3
