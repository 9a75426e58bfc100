"""End-to-end wall time and peak RSS of the acceptance configs.

Run from the repository root:

    python3 benchmarks/bench.py --label scalars --entry after --repeat 3
    python3 benchmarks/bench.py --label scalars --entry before --tree ../old --commit SHA
    python3 benchmarks/bench.py --label act --entry after --against ../old --repeat 5
    python3 benchmarks/bench.py --label counts --entry after --against ../old --only counts-q3 counts-q5
    python3 benchmarks/bench.py --label tier1 --entry after --against ../old --only tier1

Each config runs ``wald`` in a fresh interpreter on the source in TREE
(``PYTHONPATH=TREE/src``), after compiling TREE's bytecode, so that no run
pays for compiling stale or missing ``.pyc`` files.
Per config the entry records the median and every wall time, the median and
every ``run_s`` (the time the child spends inside ``wald_main``, without
interpreter start and ``import waldq``, which are most of a short run), the
peak RSS (of the child or of a pool worker it started, whichever is larger;
see ``RUN_WALD``), the SHA-256 of the report and the backend named in its
header.  The entry also names the commit, Python, the machine and
``WALDQ_WORKERS`` (which the children inherit; null when unset), so an
entry measured with a pool says so.  It is
stored under its name in ``BENCH_<label>.json`` at the repository root;
other entries in that file are kept.  ``--only NAME ...`` runs just the
named configs (an unknown name exits 2), so a change that cannot touch the
q=3 sweep need not wait for it.
A tree that is not a git checkout (``--against`` always, ``--tree`` unless
``--commit`` names its commit) exits 2 before anything runs, so every entry
names its commit.  Nothing here asserts a timing.

The entry ``tier1`` runs only when named (``--only tier1``): it times
TREE's tier-1 suite (``python -m pytest -q`` in TREE, on the same
``PYTHONPATH``) in two parts, run one after the other: the form-sweep tests,
which carry the pytest marker ``sweep`` (``-m sweep``), and the rest
(``-m "not sweep"``).  Per part it records the median and every
wall time, the number of tests passed in the first run and in every run,
and pytest's exit code of every run (0 when all passed; a failing test is
recorded, not fatal), and the median total wall time.  A part that selects
no test in a tree (pytest exits 4 or 5, as the sweep part does in a tree
whose tests carry no ``sweep`` marker) exits 2 as soon as it has run, and
names the tree, the part and the exit code.  The two trees' suites may differ, so no bytes are
compared there.

Entries recorded by separate invocations differ by the host's drift in speed
as much as by the code.  ``--against OTHER`` measures OTHER in the same
invocation, its runs alternating with TREE's (OTHER first on even repeats,
TREE first on odd ones), and stores it as the entry ``before`` next to
``--entry``; the two reports must then have the same bytes.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The acceptance configs, as ``wald`` arguments: first the enumeration-bound
#: ones, then the scalar-bound ones of criteria 04-08, then those of criteria
#: 01-03 and 10, in both algebra kinds where the campaign takes a kind, then
#: ``counts`` past the acceptance range (q 7 at dmax 4; q 5 at dmax 7, 2 x
#: 97,656 members; q 7 at dmax 7, 2 x 960,800; q 11 at dmax 6, 2 x
#: 1,948,717), then the
#: campaigns at ``MAX_DEGREE`` (30) in every degree setting they read (only
#: ``stratum-dim``'s mmax stays at 5, where its probe primes run out) and
#: ``isotropic`` at its largest q (``MAX_ISOTROPIC_Q``, 43), then a single
#: ``eigen --D 30`` run whose ``--e1``, ``--alpha`` and ``--beta`` each have
#: a numerator and a denominator of ``cli.MAX_RATIONAL_DIGITS`` (50) digits,
#: then the form campaign at the four primes of ``perfbench``'s ``forms`` workload (5,
#: 7, 11, 13) and criterion 09's exhaustive q=3 sweep (81 shards of 6,561
#: forms: by far the longest run here).
CONFIGS = {
    "stratum-dim": ["stratum-dim"],
    "min-orbit-q7": ["min-orbit", "--q", "7", "--dmax", "7", "--mmax", "3"],
    "hecke-tables-q11": ["hecke-tables", "--q", "11"],
    "hecke-tables-q5": ["hecke-tables", "--q", "5"],
}
for _kind in ("split", "ramified"):
    CONFIGS[f"ic-basis-{_kind}"] = ["ic-basis", "--kind", _kind, "--dmax", "5"]
    CONFIGS[f"multone-{_kind}"] = ["multone", "--kind", _kind, "--D", "5"]
    CONFIGS[f"module-axiom-{_kind}"] = ["module-axiom", "--kind", _kind]
    CONFIGS[f"eigen-{_kind}"] = ["eigen", "--kind", _kind, "--D", "6"]
for _q in ("3", "5"):
    for _kind in ("split", "ramified"):
        CONFIGS[f"min-orbit-q{_q}-{_kind}"] = [
            "min-orbit", "--q", _q, "--kind", _kind, "--dmax", "5", "--mmax", "5"
        ]
for _kind in ("split", "ramified"):
    CONFIGS[f"stratum-dim-{_kind}"] = ["stratum-dim", "--kind", _kind, "--dmax", "4", "--mmax", "5"]
for _q in ("3", "5"):
    CONFIGS[f"counts-q{_q}"] = ["counts", "--q", _q, "--dmax", "4"]
    CONFIGS[f"isotropic-q{_q}"] = ["isotropic", "--q", _q]
CONFIGS["counts-q7"] = ["counts", "--q", "7", "--dmax", "4"]
CONFIGS["counts-q5-d7"] = ["counts", "--q", "5", "--dmax", "7"]
CONFIGS["counts-q7-d7"] = ["counts", "--q", "7", "--dmax", "7"]
CONFIGS["counts-q11-d6"] = ["counts", "--q", "11", "--dmax", "6"]
CONFIGS["ic-basis-bound"] = ["ic-basis", "--dmax", "30"]
for _name in ("multone", "cs-matrix", "eigen"):
    CONFIGS[f"{_name}-bound"] = [_name, "--D", "30"]
CONFIGS["min-orbit-bound"] = ["min-orbit", "--dmax", "30", "--mmax", "30"]
CONFIGS["stratum-dim-bound"] = ["stratum-dim", "--dmax", "30", "--mmax", "5"]
CONFIGS["isotropic-bound"] = ["isotropic", "--q", "43"]
CONFIGS["eigen-digits-bound"] = [
    "eigen", "--D", "30",
    "--e1", "31415926535897932384626433832795028841971693993751/"
    "27182818284590452353602874713526624977572470936999",
    "--alpha", "14142135623730950488016887242096980785696718753769/"
    "17320508075688772935274463415058723669428052538104",
    "--beta=-22360679774997896964091736687312762354406183596115/"
    "16180339887498948482045868343656381177203091798058",
]
for _q in ("5", "7", "11", "13"):
    CONFIGS[f"quadform-orbits-q{_q}"] = ["quadform-orbits", "--q", _q]
CONFIGS["quadform-orbits-q3-sweep"] = ["quadform-orbits", "--q", "3"]

#: The name of the entry that times the tier-1 suite.
TIER1 = "tier1"

#: The pytest arguments of the two parts of the ``tier1`` entry.  The
#: form-sweep tests (criterion 09's full q=3 sweep and the diffs of the
#: sweep's certificates against the reference) take most of the suite's time,
#: so they carry the marker ``sweep`` and are timed apart from the rest.
TIER1_PARTS = {"sweep": ["-m", "sweep"], "rest": ["-m", "not sweep"]}

#: pytest's exit codes when a part selects no test: 4 (a usage error) and 5
#: (no tests collected, as when no test carries the marker).
SELECTED_NOTHING = (4, 5)

#: Runs wald_main and writes the seconds spent inside it, then the peak RSS in
#: kB when ``/proc`` has it, as the last line of standard error.  A child's
#: ``ru_maxrss`` starts at the RSS of the process that forked it, so
#: ``os.wait4`` reads bench.py's own RSS whenever that is the larger.  The
#: child's ``VmHWM`` counts only its memory after exec; the pool workers it
#: forked count through their ``ru_maxrss``.
RUN_WALD = """\
import os, sys, time
from waldq.cli import wald_main
t = time.perf_counter()
code = wald_main(sys.argv[1:])
run_s = time.perf_counter() - t
peak_kb = ""
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    import resource
    peak_kb = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(run_s, peak_kb, file=sys.stderr)
sys.exit(code)
"""


def run_once(tree, argv):
    """(wall s, run_s, peak RSS in MB, report bytes, exit code) of one fresh run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", RUN_WALD, *argv], stdout=out, stderr=err, env=env
        )
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        run_s, peak_kb = None, usage.ru_maxrss
        if code == 0:
            last = err.read().splitlines()[-1].split()
            run_s = float(last[0])
            peak_kb = int(last[1]) if len(last) > 1 else peak_kb
        return wall, run_s, peak_kb / 1024.0, out.read(), code


def run_tier1(tree):
    """Per part of the tier-1 suite: (wall s, tests passed, exit code) of one run.

    A part that selects no test exits 2 as soon as it has run.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = {}
    for part, args in TIER1_PARTS.items():
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if done.returncode in SELECTED_NOTHING:
            print(
                f"{TIER1}: the {part} part selects no test in {tree}: "
                f"pytest exited {done.returncode}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        passed = re.findall(r"(\d+) passed", done.stdout)  # the summary line is last
        out[part] = (wall, int(passed[-1]) if passed else 0, done.returncode)
    return out


def commit_of(tree):
    """HEAD of TREE, with "-dirty" appended while tracked files differ from it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tree.parent))
    cmd = ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"]
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def summarize(name, argv, runs):
    """The config's figures from its (wall, run_s, peak RSS, report, exit code) runs."""
    digests = {hashlib.sha256(report).hexdigest() for _w, _s, _p, report, _c in runs}
    codes = {code for _w, _s, _p, _r, code in runs}
    if len(digests) != 1 or codes != {0}:
        raise SystemExit(f"{name}: reports differ between runs or a run failed: {codes}")
    walls = [round(wall, 3) for wall, _s, _p, _r, _c in runs]
    run_s = [round(s, 3) for _w, s, _p, _r, _c in runs]
    header = json.loads(runs[0][3].splitlines()[0])
    return {
        "argv": argv,
        "wall_s": statistics.median(walls),
        "wall_s_runs": walls,
        "run_s": statistics.median(run_s),
        "run_s_runs": run_s,
        "peak_rss_mb": max(round(peak, 1) for _w, _s, peak, _r, _c in runs),
        "report_sha256": digests.pop(),
        "backend": header.get("backend"),
    }


def measure(trees, repeat, names):
    """Per tree, the figures of the named configs; the trees' runs alternate."""
    results = [{} for _ in trees]
    for name in names:
        argv = CONFIGS[name]
        runs = [[] for _ in trees]
        for r in range(repeat):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                runs[i].append(run_once(trees[i], argv))
        for i in range(len(trees)):
            results[i][name] = summarize(name, argv, runs[i])
        if len({res[name]["report_sha256"] for res in results}) != 1:
            raise SystemExit(f"{name}: the trees' reports differ")
        line = " vs ".join(
            f"{res[name]['wall_s']} s (run {res[name]['run_s']} s), {res[name]['peak_rss_mb']} MB"
            for res in results
        )
        print(f"{name}: {line}", flush=True)
    return results


def measure_tier1(trees, repeat):
    """Per tree, the figures of the tier1 entry; the trees' runs alternate."""
    runs = [[] for _ in trees]
    for r in range(repeat):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            runs[i].append(run_tier1(trees[i]))
    results = []
    for tree_runs in runs:
        out = {}
        for part, args in TIER1_PARTS.items():
            walls = [round(run[part][0], 2) for run in tree_runs]
            out[part] = {
                "argv": args,
                "wall_s": statistics.median(walls),
                "wall_s_runs": walls,
                "passed": tree_runs[0][part][1],
                "passed_runs": [run[part][1] for run in tree_runs],
                "exit_codes": [run[part][2] for run in tree_runs],
            }
        total = statistics.median(sum(run[p][0] for p in TIER1_PARTS) for run in tree_runs)
        out["wall_s"] = round(total, 2)
        results.append(out)
    line = " vs ".join(
        f"{res['sweep']['wall_s']} s sweep + {res['rest']['wall_s']} s rest" for res in results
    )
    print(f"{TIER1}: {line}", flush=True)
    return results


def entry_of(tree, commit, repeat, configs):
    return {
        "commit": commit or commit_of(tree),
        "python": platform.python_version(),
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "WALDQ_WORKERS": os.environ.get("WALDQ_WORKERS"),
        "repeat": repeat,
        "configs": configs,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--entry", required=True, help="entry name, e.g. before or after")
    ap.add_argument("--tree", type=Path, default=REPO, help="source tree to run (default: this)")
    ap.add_argument("--commit", help="commit of TREE, when it is not a git checkout")
    ap.add_argument("--against", type=Path, help="also run this tree, alternating, as 'before'")
    ap.add_argument("--repeat", type=int, default=1, help="fresh runs per config")
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run only these configs")
    args = ap.parse_args()
    unknown = [name for name in args.only or () if name not in CONFIGS and name != TIER1]
    if unknown:
        ap.error(f"unknown config {', '.join(unknown)}; known: {', '.join([*CONFIGS, TIER1])}")
    trees = [args.tree.resolve()]
    entries = [args.entry]
    # every entry must name the commit it measured
    if args.commit is None and commit_of(trees[0]) is None:
        ap.error(f"--tree {args.tree} is not a git checkout; name its commit with --commit")
    if args.against:
        if args.entry == "before":
            ap.error("--against stores its tree as 'before'; name --entry otherwise")
        if commit_of(args.against.resolve()) is None:
            ap.error(f"--against {args.against} is not a git checkout")
        trees.insert(0, args.against.resolve())
        entries.insert(0, "before")
    for tree in trees:
        compileall.compile_dir(tree / "src" / "waldq", quiet=1)
    names = args.only or list(CONFIGS)
    results = measure(trees, args.repeat, [name for name in names if name != TIER1])
    if TIER1 in names:
        for res, tier1 in zip(results, measure_tier1(trees, args.repeat)):
            res[TIER1] = tier1
    path = REPO / f"BENCH_{args.label}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[entries[0]] = entry_of(trees[0], None, args.repeat, results[0])
    data[entries[-1]] = entry_of(trees[-1], args.commit, args.repeat, results[-1])
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}: {', '.join(entries)}")


if __name__ == "__main__":
    main()
