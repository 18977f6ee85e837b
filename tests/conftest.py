import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from covlang.families import (
    ackermann_instance,
    bpp_power_instance,
    rackoff_counterexample,
)


@pytest.fixture
def rackoff_ce():
    return rackoff_counterexample()


@pytest.fixture
def power2():
    return bpp_power_instance(2)


@pytest.fixture
def ackermann11():
    return ackermann_instance(1, 1)
