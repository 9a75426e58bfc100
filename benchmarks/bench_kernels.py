"""Timing comparison of the compiled kernels against the pure-Python twins.

Run from the repository root:

    python3 benchmarks/bench_kernels.py --repeat 20

Each kernel is timed on a fixed representative workload; the table reports
the median wall time of one pass over it per backend and the speedup.
Timing goes through ``timeit``, so the garbage collector is off while timing.
Each sample repeats the pass until it lasts at least SAMPLE_S (the three-call
``sublattices`` pass takes only a few milliseconds).  Samples alternate
between the backends round by round, and the speedup is the median over
rounds of the pure/fast ratio within a round, so a drift in the host's speed
between rounds cancels out.
"""

import argparse
import random
import statistics
import timeit

from waldq import backend

SAMPLE_S = 0.05


def workload_rel_pos(q):
    rng = random.Random(11)
    args = []
    for _ in range(400):
        a1, b1 = rng.randint(-2, 3), rng.randint(-2, 3)
        a2, b2 = rng.randint(-2, 3), rng.randint(-2, 3)
        c1 = (b1, tuple(rng.randrange(1, q) for _ in range(max(1, a1 - b1))))
        c2 = (b2, tuple(rng.randrange(1, q) for _ in range(max(1, a2 - b2))))
        args.append((q, a1, b1, c1, a2, b2, c2))
    return "rel_pos", args


def workload_canon(q):
    rng = random.Random(12)
    args = []
    for _ in range(400):
        cols = []
        for _ in range(4):
            off = rng.randint(-2, 2)
            n = rng.randint(1, 5)
            co = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(n - 1)]
            while len(co) > 1 and co[-1] == 0:
                co.pop()
            cols.append((off, tuple(co)))
        args.append((q, *cols))
    return "canon", args


def workload_sublattices(q):
    args = [(q, 0, 0, (0, ()), n) for n in (4, 5, 6)]
    return "sublattices", args


def workload_sym_diag(q):
    rng = random.Random(13)
    args = []
    for _ in range(150):
        entries = []
        for _ in range(3):
            v = rng.randint(0, 2)
            entries.append((v, tuple(rng.randrange(1, q) for _ in range(4))))
        args.append((q, 10, *entries))
    return "sym_diag", args


def workload_sym_normal_cert(q):
    _, diag_args = workload_sym_diag(q)
    args = [(q, 10, 5, b11, b12, b22, 2) for (_q, _p, b11, b12, b22) in diag_args]
    return "sym_normal_cert", args


WORKLOADS = (
    workload_rel_pos,
    workload_canon,
    workload_sublattices,
    workload_sym_diag,
    workload_sym_normal_cert,
)


def _pass_timer(kernel, args):
    """A timer of one pass over args with the active backend, and its pass count."""
    fn = getattr(backend, kernel)

    def one_pass():
        for a in args:
            fn(*a)

    timer = timeit.Timer(one_pass)
    passes = 1
    while timer.timeit(passes) < SAMPLE_S:
        passes *= 2
    return timer, passes


def time_kernel(names, kernel, args, repeat):
    """{backend: [time of one pass over args in each of repeat rounds]}."""
    timers = {}
    for name in names:
        backend.use(name)
        timers[name] = _pass_timer(kernel, args)
    samples = {name: [] for name in names}
    for _ in range(repeat):
        for name, (timer, passes) in timers.items():
            samples[name].append(timer.timeit(passes) / passes)
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, default=3, help="residue field size")
    parser.add_argument("--repeat", type=int, default=20, help="timed samples per backend")
    args = parser.parse_args(argv)

    names = backend.available()
    if "fast" not in names:
        print("compiled kernels are not built; timing the pure backend only")

    rows = []
    for make in WORKLOADS:
        kernel, payload = make(args.q)
        rows.append((kernel, len(payload), time_kernel(names, kernel, payload, args.repeat)))
    backend.use(names[-1])

    width = max(len(r[0]) for r in rows)
    header = f"{'kernel':<{width}}  {'calls':>6}  " + "  ".join(
        f"{n + ' (ms)':>11}" for n in names
    )
    if len(names) > 1:
        header += f"  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for kernel, ncalls, per in rows:
        line = f"{kernel:<{width}}  {ncalls:>6}  " + "  ".join(
            f"{statistics.median(per[n]) * 1e3:>11.3f}" for n in names
        )
        if len(names) > 1:
            ratios = [p / f for p, f in zip(per["pure"], per["fast"])]
            line += f"  {statistics.median(ratios):>7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
