import numpy as np
import pytest
from hypothesis import settings

import mechmorph as mm

# every property test is deterministic and bounded unless it says otherwise
settings.register_profile(
    "mechmorph", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("mechmorph")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid256():
    return mm.make_grid(256)


@pytest.fixture(scope="session")
def grid512():
    return mm.make_grid(512)


def perturbed_constant(grid, kappa, amplitude=0.01):
    return mm.Field(grid, kappa * (1.0 + amplitude * np.cos(2.0 * np.pi * grid.nodes)))


@pytest.fixture(scope="session")
def unimodal_15(grid256):
    """Nonconstant steady state at D = 0.01, kappa = 1.5 (constant unstable)."""
    params = mm.ModelParams(D=0.01, kappa=1.5)
    return mm.relax_to_steady(perturbed_constant(grid256, 1.5), params, t_end=400.0)


@pytest.fixture(scope="session")
def unimodal_16(grid256):
    """Nonconstant steady state at D = 0.01, kappa = 1.6."""
    params = mm.ModelParams(D=0.01, kappa=1.6)
    return mm.relax_to_steady(perturbed_constant(grid256, 1.6), params, t_end=400.0)


@pytest.fixture(scope="session")
def twomodal_16(unimodal_16):
    """2-modal steady state at D = 0.0025, kappa = 1.6 (compressed unimodal)."""
    return mm.rescale_modal(unimodal_16, 2)


@pytest.fixture(scope="session")
def grid2048():
    return mm.make_grid(2048)


@pytest.fixture(scope="session")
def modal_family_k2(grid2048):
    """Unimodal, 2-modal and 3-modal steady states at (D=2e-3, kappa=2).

    The m-modal states are compressions of unimodal states computed at
    m^2 D; all three live at the same final parameters.
    """
    kappa, d_out = 2.0, 2e-3
    states = {}
    for m in (1, 2, 3):
        params = mm.ModelParams(D=d_out * m**2, kappa=kappa)
        uni = mm.relax_to_steady(perturbed_constant(grid2048, kappa), params, t_end=300.0)
        states[m] = uni if m == 1 else mm.rescale_modal(uni, m)
    return states
