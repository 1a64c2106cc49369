"""Shared helpers for the randomized-input test harness (fixed seeds)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from oucv import CovarianceParams, Design, estimation, from_points, sample_path


# Every property test runs the same examples on every run, with no
# deadline, no example database and no complaint about slow data
# generation; a test states only its max_examples.
settings.register_profile("oucv", deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("oucv")


def random_design(rng: np.random.Generator, n: int) -> Design:
    """Design with symmetric-Dirichlet gaps."""
    gaps = rng.dirichlet(np.ones(n - 1))
    pts = np.concatenate([[0.0], np.cumsum(gaps)])
    pts[-1] = 1.0
    return from_points(pts)


def random_instance(rng: np.random.Generator, n_lo=5, n_hi=40):
    """(design, y, theta, sigma2) with the acceptance-criterion ranges."""
    n = int(rng.integers(n_lo, n_hi + 1))
    design = random_design(rng, n)
    theta = float(rng.uniform(0.1, 10.0))
    sigma2 = float(rng.uniform(0.3, 30.0))
    y = sample_path(design, CovarianceParams(theta=3.0, sigma2=1.0), int(rng.integers(2**32)))
    return design, y, theta, sigma2


@pytest.fixture(autouse=True)
def empty_kernel_slot():
    """Every test starts with no kernels kept from an earlier search, so
    that no result depends on the order the tests run in; a test of the
    kept kernels fills the slot itself."""
    estimation._LAST.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
