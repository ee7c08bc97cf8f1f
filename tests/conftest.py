import time

import pytest

from cwcancel import RelayParams, build_hybrid_plant
from cwcancel.lifting import lift
from cwcancel.synthesis import bisect_gamma


@pytest.fixture(scope="session")
def default_params():
    return RelayParams()


@pytest.fixture(scope="session")
def default_lifted(default_params):
    return lift(build_hybrid_plant(default_params))


@pytest.fixture(scope="session")
def design_run(default_lifted):
    """One full synthesis on the simulation defaults, with its wall time."""
    t0 = time.perf_counter()
    result = bisect_gamma(default_lifted, tol=1e-3)
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="session")
def designed_controller(design_run):
    return design_run[0].controller
