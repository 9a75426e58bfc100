"""The waldq benchmark: one workload, one seed, every metric in BENCHMARK.json.

    python3 perfbench/run.py --workload lattice-strata --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Every pass of the workload is a
fresh interpreter (``child.py``) with ``PYTHONPATH=src`` and
``WALDQ_BACKEND=pure``, because the model tables are process-wide caches: a
second pass in the same process would measure a warm, different program.

Passes run back to back (a closed loop, one client, at most two pool
workers) until the next would end after ``--seconds``, and at least
MIN_PASSES times; every pass of a run does the same work.  Around each step
the child times a fixed reference load, and each step's wall and CPU time is
scaled by REF_S over that reference time: other tenants of the machine slow
every process on it by tens of percent for minutes at a time, and the
scaling takes that out.  ``wall_ref_s`` and ``cpu_ref_s`` are the medians
over the passes of these scaled sums; the raw medians are in the environment
line.  Each pass also times its own set-up (interpreter start, ``import
waldq`` and planning every step), and ``setup_s`` is their median.

With ``--trace 1`` the same untraced passes are followed by one traced pass,
which gives the per-layer metrics; the tracing overhead is the traced pass's
scaled wall time minus the untraced median.

Every report is checked: it must pass, have the cell count recorded in
digests.json, and have the same bytes in every pass, traced or not.  At the
default seed its SHA-256 must also equal the recorded digest.  The last line
of standard output is the result object; the line before it records the
environment.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
DIGESTS = os.path.join(HERE, "digests.json")

#: A run makes at least this many passes, however short --seconds is.
MIN_PASSES = 3
#: Seconds the reference load of child.py takes at the best speed seen on
#: the 2-vCPU x86-64 host (Python 3.11.7) the baseline was taken on.  Step
#: times are scaled to this speed; it sets the scale, not the spread.
REF_S = 0.013
#: A run must end within this many seconds; children are stopped at it.
DEADLINE_S = 170.0

LAYERS = (
    "lattice.enumerate_in_position",
    "lattice.closure_members",
    "lattice.relative_position",
    "torus.envelope_raw",
    "quadform.diagonalize",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a child process failed."""


def _child(mode, workload, seed, deadline):
    """Run child.py in a fresh interpreter; returns (parsed result, start time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["WALDQ_BACKEND"] = "pure"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed), OUT]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} {workload} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1]), t0


def _pass(mode, workload, seed, deadline):
    """One pass in a fresh interpreter, with its totals added.

    ``wall_s`` and ``cpu_s`` sum the steps; the ``_ref`` variants scale each
    step by REF_S over the reference time measured around it.
    """
    result, t0 = _child(mode, workload, seed, deadline)
    steps = result["reports"]
    result["setup"] = (result["plan"] - t0, result["import"] - t0, result["plan"] - result["import"])
    result["wall_s"] = sum(r[4] for r in steps)
    result["cpu_s"] = sum(r[5] for r in steps)
    result["wall_ref_s"] = sum(r[4] * REF_S / r[6] for r in steps)
    result["cpu_ref_s"] = sum(r[5] * REF_S / r[6] for r in steps)
    return result


def _check(passes, expected, seed):
    """Number of reports that fail: pass flag, cell count, digest, or bytes
    that differ from the first pass's."""
    first = {label: digest for label, digest, *_ in passes[0]["reports"]}
    failed = 0
    for p in passes:
        for label, digest, passed, cells, *_ in p["reports"]:
            want = expected.get(label)
            ok = want is not None and passed and cells == want["cells"] and digest == first[label]
            if ok and seed == workloads.DEFAULT_SEED:
                ok = digest == want["sha256"]
            if not ok:
                print(f"report {label} failed its check", file=sys.stderr)
                failed += 1
    return failed


def _gcc_version():
    try:
        out = subprocess.run(["gcc", "--version"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _layer_metrics(traced, untraced, workers, setup):
    trace = traced["trace"]
    totals, sizes, caches = trace["totals"], trace["sizes"], trace["caches"]
    walls = trace["span_wall_s"]

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0])[1]

    m = {}
    for k in ("sym_normal_cert", "sym_diag", "sublattices", "rel_pos", "canon"):
        m[f"kernel.{k}.calls"] = calls(f"kernel.{k}")
        m[f"kernel.{k}.self_s"] = self_s(f"kernel.{k}")
    members, biggest = sizes.get("kernel.sublattices", [0, 0])
    m["kernel.sublattices.members"] = members
    m["kernel.sublattices.max_members"] = biggest
    for name in LAYERS:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for table, (hits, misses, size) in sorted(caches.items()):
        m[f"cache.{table}.hits"] = hits
        m[f"cache.{table}.misses"] = misses
        m[f"cache.{table}.size"] = size
        m[f"cache.{table}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m[f"cache.{table}.self_s"] = self_s(f"cache.{table}")
    m["waldspurger.act.self_s"] = self_s("waldspurger.act")
    m["waldspurger.counts.self_s"] = self_s("waldspurger.counts")
    m["hecke.convolve.self_s"] = self_s("hecke.convolve")
    for name in ("scalars", "series"):
        m[f"{name}.ops"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in workloads.campaigns():
        m[f"campaigns.{name}.wall_s"] = walls.get(f"campaigns.{name}", 0.0)
    m["campaigns.self_s"] = sum(v[1] for k, v in totals.items() if k.startswith("campaigns."))
    m["pool.wait_s"] = self_s("pool.wait")
    m["pool.cell.self_s"] = self_s("pool.cell")
    m["pool.utilization"] = untraced["cpu_s"] / (workers * untraced["wall_s"])
    m["setup.import_s"], m["setup.plan_s"] = setup[1], setup[2]
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_ref_s"] - untraced["wall_ref_s"]
    return m


def run(workload, seed, seconds, trace):
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "waldq", "__init__.py")):
        raise BenchError(f"no waldq sources under {SRC}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(DIGESTS) as fh:
        expected = json.load(fh)[workload]
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)

    passes = []
    t_measure = time.perf_counter()
    while True:
        passes.append(_pass("run", workload, seed, deadline))
        elapsed = time.perf_counter() - t_measure
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    untraced = list(passes)
    medians = {
        k: statistics.median(p[k] for p in untraced)
        for k in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mb")
    }
    if trace:
        passes.append(_pass("trace", workload, seed, deadline))
    setup = [statistics.median(col) for col in zip(*(p["setup"] for p in passes))]
    attempted = sum(len(p["reports"]) for p in passes)
    failed = _check(passes, expected, seed)

    if trace:
        kernels, _t0 = _child("kernels", workload, seed, deadline)
        metrics = _layer_metrics(passes[-1], medians, workloads.workers(workload), setup)
        metrics.update(kernels)
        declared = spec["per_layer"]
    else:
        metrics = {
            "wall_ref_s": medians["wall_ref_s"],
            "cpu_ref_s": medians["cpu_ref_s"],
            "peak_rss_mb": medians["peak_rss_mb"],
            "setup_s": setup[0],
            "pass_frac": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    env = {
        "type": "env",
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "wall_s": medians["wall_s"],
        "cpu_s": medians["cpu_s"],
        "reference_s": statistics.median(r[6] for p in untraced for r in p["reports"]),
        "backend": passes[0]["backend"],
        "waldq_version": passes[0]["version"],
        "python": passes[0]["python"],
        "gcc": _gcc_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "elapsed_s": time.perf_counter() - start,
    }
    print(json.dumps(env))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
