"""Shared fixtures and a derandomized hypothesis profile."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_budget():
    from qlbatch.taylor import plan_budget

    return plan_budget(10_000, 5_000, 1e-6, 0.0)


@pytest.fixture(scope="session")
def small_table(small_budget):
    from qlbatch.taylor import build_coefficient_table

    return build_coefficient_table(0.0, 10_000, small_budget.N, small_budget.R)
