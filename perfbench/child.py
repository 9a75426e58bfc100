"""One fresh interpreter of the benchmark; run.py starts it, it is not run by hand.

    python3 perfbench/child.py MODE WORKLOAD SEED OUTDIR

MODE is one of
  run      import waldq and plan every step, recording when each ended (the
           set-up); then run the workload untraced and report, per step,
           wall and CPU time, the reference time around it (see _speed)
           and the SHA-256 of its rendered report, and the peak RSS;
  trace    the same with every layer wrapped by tracer.install; also reports
           the per-layer totals, merged over pool workers, and writes the
           recorded spans to OUTDIR/spans.ndjson;
  kernels  report per-backend kernel micro-timings.

The result is one JSON object on the last line of standard output.
"""

import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction

import workloads

#: Tries of the reference load at each step boundary; the best one counts.
REF_TRIES = 3


def _usage():
    """(user+sys seconds, peak RSS in MB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _reference():
    """A fixed pure-Python load, integer and Fraction arithmetic as in the cells."""
    n = 0
    for i in range(60_000):
        n += i * i % 7
    x, f = Fraction(1, 3), Fraction(0)
    for i in range(1, 1_500):
        f += x * Fraction(i % 7 + 1, i % 5 + 2) - Fraction(1, i % 11 + 1)
    return n, f


def _speed():
    """Seconds the reference load takes now.

    Other tenants of the machine slow every process on it by tens of percent,
    for seconds to minutes at a time.  Timing this fixed load right before
    and after each step tells run.py how fast the machine ran the step.
    """
    best = float("inf")
    for _ in range(REF_TRIES):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_steps(campaigns, todo, tracer):
    """[label, digest, pass, cells, wall s, CPU s, reference s] of every
    step, in order; the reference time is the mean of those before and after."""
    reports = []
    ref0 = _speed()
    for label, name, cfg in todo:
        token = tracer.open(f"campaigns.{name}") if tracer else None
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        report = campaigns.run_campaign(name, cfg)
        text = campaigns.render_report(report)
        digest = hashlib.sha256(text.encode()).hexdigest()
        wall = time.perf_counter() - t0
        cpu1, _ = _usage()
        if tracer:
            tracer.close(token)
        ref1 = _speed()
        summary = report["summary"]
        reports.append(
            [label, digest, summary["pass"], summary["cells"], wall, cpu1 - cpu0, (ref0 + ref1) / 2]
        )
        ref0 = ref1
    return reports


def _merge(snapshots):
    totals, sizes, caches = {}, {}, {}
    for snap in snapshots:
        for name, counts in snap["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0])
            for i, x in enumerate(counts):
                acc[i] += x
        for name, (total, biggest) in snap["sizes"].items():
            acc = sizes.setdefault(name, [0, 0])
            acc[0] += total
            acc[1] = max(acc[1], biggest)
        for name, stats in snap["caches"].items():
            acc = caches.setdefault(name, [0, 0, 0])
            for i, x in enumerate(stats):
                acc[i] += x
    return {"totals": totals, "sizes": sizes, "caches": caches}


def _trace_result(tracer, outdir):
    snaps = [tracer.snapshot()]
    workers = sorted(f for f in os.listdir(outdir) if f.startswith("worker-"))
    for fname in workers:
        with open(os.path.join(outdir, fname)) as fh:
            snaps.append(json.load(fh))
    with open(os.path.join(outdir, "spans.ndjson"), "w") as fh:
        for sid, name, start, end, parent in tracer.spans:
            rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            fh.write(json.dumps(rec) + "\n")
    walls = {}
    for _sid, name, start, end, _parent in tracer.spans:
        walls[name] = walls.get(name, 0.0) + (end - start)
    out = _merge(snaps)
    out["span_wall_s"] = walls
    out["worker_processes"] = len(workers)
    return out


def main(argv):
    mode, workload, seed, outdir = argv[0], argv[1], int(argv[2]), argv[3]
    import waldq
    from waldq import backend, campaigns

    t_import = time.perf_counter()
    if mode == "kernels":
        from kernels import time_kernels

        return time_kernels()
    todo = [
        (label, name, campaigns.SessionConfig(**kw))
        for label, name, kw in workloads.steps(workload, seed)
    ]
    for _label, name, cfg in todo:
        campaigns.plan(name, dataclasses.replace(cfg).validate())
    t_plan = time.perf_counter()

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, outdir)
    root = tracer.open("workload") if tracer else None
    reports = _run_steps(campaigns, todo, tracer)
    if tracer:
        tracer.close(root)
    _cpu, peak = _usage()
    out = {
        "import": t_import,
        "plan": t_plan,
        "peak_rss_mb": peak,
        "reports": reports,
        "backend": backend.active_name(),
        "version": waldq.__version__,
        "python": platform.python_version(),
    }
    if tracer:
        out["trace"] = _trace_result(tracer, outdir)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
