"""Shared test configuration: hypothesis profiles, seeded RNG helpers and a test bound."""

import os
import platform
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cldp import accountant

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


@dataclass(frozen=True)
class HalvingShuffling:
    """A throwaway shuffling bound: eps_tilde = eps0/2, for eps0 < 1."""

    name = "shuffling, halving (a test bound)"

    def eps0_range(self, delta, m_eff):
        return accountant.Eps0Range(1.0, False, "halving bound requires epsilon0 < 1")

    def epsilon_tilde(self, eps0, delta, m_eff):
        return eps0 / 2.0


@pytest.fixture
def halving(monkeypatch):
    """``HalvingShuffling`` registered in the accountant as "halving", for one test."""
    bound = HalvingShuffling()
    monkeypatch.setitem(accountant.VARIANTS, "halving", bound)
    return bound
