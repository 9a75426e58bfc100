"""Differential tests: the compiled kernels must match the pure reference."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import waldq
from waldq import _purekern, backend

# The directory holding the waldq package under test (src/ in a checkout,
# site-packages in an install), so a child interpreter imports the same copy.
WALDQ_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(waldq.__file__)))

SRC = Path(__file__).resolve().parent.parent / "src" / "waldq"

# The compiled twin, built from the committed C when not installed (conftest.py).
needs_fast = pytest.mark.usefixtures("fast_backend")


def rand_raw(rng, q, max_len=4, min_off=-3, max_off=3, nonzero=False):
    n = rng.randint(1 if nonzero else 0, max_len)
    if n == 0:
        return (0, ())
    co = [rng.randrange(1, q)]
    for _ in range(n - 2):
        co.append(rng.randrange(q))
    if n > 1:
        co.append(rng.randrange(1, q))
    return (rng.randint(min_off, max_off), tuple(co))


def rand_triple(rng, q):
    a = rng.randint(-2, 3)
    b = rng.randint(-2, 3)
    if rng.random() < 0.3:
        return a, b, (0, ())
    off = rng.randint(b, a - 1) if b < a else 0
    n = rng.randint(1, max(1, a - off))
    co = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(n - 1)]
    while len(co) > 1 and co[-1] == 0:
        co.pop()
    raw = (off, tuple(co))
    if off + len(co) > a:
        return a, b, (0, ())
    return a, b, raw


def rand_o_raw(rng, q, vmax=2, width=3):
    v = rng.randint(0, vmax)
    co = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(width - 1)]
    while len(co) > 1 and co[-1] == 0:
        co.pop()
    return (v, tuple(co))


@needs_fast
class TestTwins:
    def test_rel_pos(self, rng):
        from waldq import _fastkern

        q = 3
        for _ in range(300):
            a1, b1, c1 = rand_triple(rng, q)
            a2, b2, c2 = rand_triple(rng, q)
            assert _fastkern.rel_pos(q, a1, b1, c1, a2, b2, c2) == _purekern.rel_pos(
                q, a1, b1, c1, a2, b2, c2
            )

    def test_canon(self, rng):
        from waldq import _fastkern

        q = 3
        for _ in range(300):
            cols = [rand_raw(rng, q) for _ in range(4)]
            assert _fastkern.canon(q, *cols) == _purekern.canon(q, *cols)

    def test_sublattices(self, rng):
        from waldq import _fastkern

        for q in (3, 5):
            for _ in range(40):
                a, b, c = rand_triple(rng, q)
                n = rng.randint(0, 3)
                assert _fastkern.sublattices(q, a, b, c, n) == _purekern.sublattices(
                    q, a, b, c, n
                )

    def test_sym_diag(self, rng):
        from waldq import _fastkern

        for q in (3, 5):
            for _ in range(150):
                b11, b12, b22 = (rand_o_raw(rng, q) for _ in range(3))
                prec = 8
                assert _fastkern.sym_diag(q, prec, b11, b12, b22) == _purekern.sym_diag(
                    q, prec, b11, b12, b22
                )

    def test_sym_normal_cert(self, rng):
        from waldq import _fastkern

        q = 3
        for _ in range(150):
            b11, b12, b22 = (rand_o_raw(rng, q) for _ in range(3))
            got_f = _fastkern.sym_normal_cert(q, 8, 4, b11, b12, b22, 2)
            got_p = _purekern.sym_normal_cert(q, 8, 4, b11, b12, b22, 2)
            assert got_f == got_p
            if got_f is not None:
                assert got_f[3] == 1  # the certificate must verify


@needs_fast
class TestOverflowFallback:
    WIDE = (0, (1,) * 120)  # span beyond the compiled coefficient buffer

    def test_raw_fast_kernel_raises(self):
        from waldq import _fastkern

        with pytest.raises(OverflowError):
            _fastkern.rel_pos(3, 2, 0, self.WIDE, 2, 0, (0, ()))

    def test_guarded_backend_falls_back(self):
        backend.use("fast")
        try:
            want = _purekern.rel_pos(3, 200, 0, self.WIDE, 200, 0, (0, ()))
            assert backend.rel_pos(3, 200, 0, self.WIDE, 200, 0, (0, ())) == want
            want_c = _purekern.canon(3, self.WIDE, (0, (1,)), (0, ()), (0, (1,)))
            assert backend.canon(3, self.WIDE, (0, (1,)), (0, ()), (0, (1,))) == want_c
        finally:
            backend.use(backend.available()[-1])


class TestSelection:
    def test_available_and_use(self):
        names = backend.available()
        assert names[0] == "pure"
        for name in names:
            backend.use(name)
            assert backend.active_name() == name
        with pytest.raises(ValueError):
            backend.use("gpu")
        backend.use(names[-1])

    def test_env_selection_subprocess(self):
        for name in backend.available():
            out = subprocess.run(
                [sys.executable, "-c", "import waldq.backend as b; print(b.active_name())"],
                capture_output=True,
                text=True,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": WALDQ_ROOT, "WALDQ_BACKEND": name},
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == name

    def test_env_bad_value_falls_through_to_default(self):
        out = subprocess.run(
            [sys.executable, "-c", "import waldq.backend as b; print(b.active_name())"],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": WALDQ_ROOT, "WALDQ_BACKEND": "turbo"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() in ("pure", "fast")


def test_generated_c_matches_pyx():
    """_fastkern.c was generated from the current _fastkern.pyx: every source
    line Cython quotes (``/* "waldq/_fastkern.pyx":N`` blocks, the quoted line
    marked ``# <<<<<<<<<<<<<<``) is line N of the .pyx."""
    pyx = (SRC / "_fastkern.pyx").read_text().splitlines()
    c_text = (SRC / "_fastkern.c").read_text()
    block = re.compile(r'^ */\* "waldq/_fastkern\.pyx":(\d+)\n(.*?)\*/$', re.M | re.S)
    marked = re.compile(r"^ *\* (.*?) *# <{14}$", re.M)
    blocks = block.findall(c_text)
    assert blocks
    for lineno, body in blocks:
        (quoted,) = marked.findall(body)
        assert quoted == pyx[int(lineno) - 1].rstrip(), f"_fastkern.pyx:{lineno}"
