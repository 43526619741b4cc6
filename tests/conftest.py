import multiprocessing

import numpy as np
import pytest

from qdoe import CandidatePool


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture
def four_point_pool():
    """Two tight clusters; the optimal 2-cell quantizer is {0.05, 10.05}."""
    return CandidatePool(np.array([[0.0], [0.1], [10.0], [10.1]]))


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail a test that leaves a worker process running after it returns."""
    yield
    leaked = multiprocessing.active_children()
    if leaked:
        pytest.fail(f"child processes still running after the test: {leaked}")
