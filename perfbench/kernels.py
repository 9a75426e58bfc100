"""Per-backend kernel micro-timings on fixed payloads.

The payloads are those of ``benchmarks/bench_kernels.py``, kept here so the
benchmark does not change when that script does.  Each kernel is timed once
per backend that ``waldq.backend.available()`` lists; the best of a few
repeats, divided by the number of calls, is the time per call.
"""

import random
import time

REPEAT = 3
Q = 3


def _rel_pos(q):
    rng = random.Random(11)
    args = []
    for _ in range(400):
        a1, b1 = rng.randint(-2, 3), rng.randint(-2, 3)
        a2, b2 = rng.randint(-2, 3), rng.randint(-2, 3)
        c1 = (b1, tuple(rng.randrange(1, q) for _ in range(max(1, a1 - b1))))
        c2 = (b2, tuple(rng.randrange(1, q) for _ in range(max(1, a2 - b2))))
        args.append((q, a1, b1, c1, a2, b2, c2))
    return args


def _canon(q):
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
    return args


def _sublattices(q):
    return [(q, 0, 0, (0, ()), n) for n in (4, 5, 6)]


def _sym_diag(q):
    rng = random.Random(13)
    args = []
    for _ in range(150):
        entries = []
        for _ in range(3):
            v = rng.randint(0, 2)
            entries.append((v, tuple(rng.randrange(1, q) for _ in range(4))))
        args.append((q, 10, *entries))
    return args


def _sym_normal_cert(q):
    return [(q, 10, 5, b11, b12, b22, 2) for (_q, _p, b11, b12, b22) in _sym_diag(q)]


PAYLOADS = {
    "rel_pos": _rel_pos,
    "canon": _canon,
    "sublattices": _sublattices,
    "sym_diag": _sym_diag,
    "sym_normal_cert": _sym_normal_cert,
}


def time_kernels():
    """{"kernel.<k>.<backend>.us_per_call": microseconds} for every backend."""
    from waldq import backend

    active = backend.active_name()
    out = {}
    try:
        for name in backend.available():
            backend.use(name)
            for kernel, make in PAYLOADS.items():
                fn = getattr(backend, kernel)
                args = make(Q)
                best = float("inf")
                for _ in range(REPEAT):
                    t0 = time.perf_counter()
                    for a in args:
                        fn(*a)
                    best = min(best, time.perf_counter() - t0)
                out[f"kernel.{kernel}.{name}.us_per_call"] = best / len(args) * 1e6
    finally:
        backend.use(active)
    return out
