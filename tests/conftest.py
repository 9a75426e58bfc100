import os
import random
import zlib

import pytest
from hypothesis import settings

from waldq import campaigns

# a fixed example sequence per test and no example database: tier-1 is repeatable
settings.register_profile("derandomize", derandomize=True, database=None)
settings.load_profile("derandomize")


@pytest.fixture
def rng(request):
    """Per-test deterministic generator: the seed is derived from the test name."""
    return random.Random(zlib.crc32(request.node.name.encode()))


@pytest.fixture(autouse=True)
def pool_within_cores(monkeypatch):
    """Fail a test whose campaign asks for more pool processes than the host has cores.

    A test that patches ``campaigns.ProcessPoolExecutor`` itself replaces this guard.
    """
    cores = os.cpu_count() or 1

    class CoreCappedPool(campaigns.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            if max_workers is not None and max_workers > cores:
                pytest.fail(f"a pool of {max_workers} processes on {cores} cores")
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", CoreCappedPool)
