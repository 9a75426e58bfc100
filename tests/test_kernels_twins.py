"""Backend selection: one pure backend, bound by name in ``waldq.backend``."""

import os
import subprocess
import sys

import pytest

import waldq
from waldq import _purekern, backend

# The directory holding the waldq package under test (src/ in a checkout,
# site-packages in an install), so a child interpreter imports the same copy.
WALDQ_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(waldq.__file__)))


def active_in_child(env_value):
    """``backend.active_name()`` in a fresh interpreter run with WALDQ_BACKEND set."""
    return subprocess.run(
        [sys.executable, "-c", "import waldq.backend as b; print(b.active_name())"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": WALDQ_ROOT, "WALDQ_BACKEND": env_value},
    )


class TestSelection:
    def test_available_and_use(self):
        names = backend.available()
        assert names == ("pure",)
        for name in names:
            backend.use(name)
            assert backend.active_name() == name
        for bad in ("gpu", "fast"):
            with pytest.raises(ValueError):
                backend.use(bad)
        assert backend.active_name() == "pure"
        for k in backend._KERNELS:
            assert getattr(backend, k) is getattr(_purekern, k)

    def test_env_selection_subprocess(self):
        for name in backend.available():
            out = active_in_child(name)
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == name

    def test_env_bad_value_falls_through_to_default(self):
        # nothing reads WALDQ_BACKEND: a value naming the retired compiled
        # backend imports like any other
        for value in ("turbo", "fast"):
            out = active_in_child(value)
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == "pure"
