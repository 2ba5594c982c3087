"""Shared test configuration: hypothesis profiles and seeded RNG helpers."""

import os
import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


def _versions() -> str:
    return f"numpy {np.__version__}, Python {platform.python_version()}"


def pytest_report_header(config):
    # The frozen stream tests pin numpy's generator internals; the log names
    # the versions they ran against.
    return _versions()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.getoption("verbose") < 0:  # -q drops the header; keep the versions
        terminalreporter.write_line(_versions())


@pytest.fixture
def rng():
    """A fresh, fixed-seed generator per test."""
    return np.random.default_rng(0xC1D9)
