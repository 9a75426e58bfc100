import random
import zlib

import pytest
from hypothesis import settings

# a fixed example sequence per test and no example database: tier-1 is repeatable
settings.register_profile("derandomize", derandomize=True, database=None)
settings.load_profile("derandomize")


@pytest.fixture
def rng(request):
    """Per-test deterministic generator: the seed is derived from the test name."""
    return random.Random(zlib.crc32(request.node.name.encode()))
