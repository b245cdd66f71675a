"""Shared fixtures.

The expensive objects (refined chords) are session-scoped so the
shooting, diagnostics, and acceptance tests can share one refinement.
"""

from __future__ import annotations

import pytest

from ccorb import (
    Branch,
    IntegrationSettings,
    RegularizedLevel,
    SystemParams,
    refine_chord,
    scan_and_bracket,
)


@pytest.fixture(scope="session")
def kepler_params() -> SystemParams:
    return SystemParams(mu=0.0)


@pytest.fixture(scope="session")
def kepler_level(kepler_params: SystemParams) -> RegularizedLevel:
    # c = -2: the radial orbit turns around at s = 1/2 and returns to
    # collision after a quarter of the full radial period, pi/4.
    return RegularizedLevel(params=kepler_params, f=2.0)


@pytest.fixture(scope="session")
def tight_settings() -> IntegrationSettings:
    return IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12, t_max=10.0)


@pytest.fixture(scope="session")
def oracle_bracket(kepler_params, kepler_level, tight_settings):
    """Sign-change bracket around the known root s* = 1/2."""
    brackets = scan_and_bracket((0.40, 0.53), 8, Branch.MINUS, kepler_params,
                                kepler_level, tight_settings, k_max=1)
    assert len(brackets) == 1, "the radial-orbit root must produce one bracket"
    return brackets[0]


@pytest.fixture(scope="session")
def oracle_chord(oracle_bracket, kepler_level, tight_settings):
    """The first consecutive-collision chord at mu = 0, c = -2."""
    return refine_chord(oracle_bracket, kepler_level, tight_settings)
