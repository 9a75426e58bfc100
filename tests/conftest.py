import importlib.util
import random
import subprocess
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import settings

import waldq
from waldq import backend

REPO = Path(__file__).resolve().parent.parent

# a fixed example sequence per test and no example database: tier-1 is repeatable
settings.register_profile("derandomize", derandomize=True, database=None)
settings.load_profile("derandomize")


@pytest.fixture
def rng(request):
    """Per-test deterministic generator: the seed is derived from the test name."""
    return random.Random(zlib.crc32(request.node.name.encode()))


@pytest.fixture(scope="session")
def fastkern_module(tmp_path_factory):
    """The compiled twin: the importable waldq._fastkern if there is one, else
    the committed _fastkern.c built through setup.py into a temp dir."""
    if backend._fastkern is not None:
        return backend._fastkern
    out = tmp_path_factory.mktemp("fastkern")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", out, "--build-temp", out],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    built = [p for s in EXTENSION_SUFFIXES for p in (out / "waldq").glob("_fastkern" + s)]
    if not built:
        pytest.skip(f"waldq._fastkern could not be built: {build.stdout[-300:]}")
    spec = importlib.util.spec_from_file_location("waldq._fastkern", built[0])
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def fast_backend(fastkern_module, monkeypatch):
    """Offer the compiled twin to waldq.backend for one test; afterwards the
    backend, its kernel bindings and waldq._fastkern are as they were."""
    for name in backend._KERNELS + ("_active",):
        monkeypatch.setattr(backend, name, getattr(backend, name))
    monkeypatch.setattr(backend, "_fastkern", fastkern_module)
    monkeypatch.setattr(waldq, "_fastkern", fastkern_module, raising=False)
    monkeypatch.setitem(sys.modules, "waldq._fastkern", fastkern_module)
    return fastkern_module
