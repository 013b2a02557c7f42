import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import mechmorph as mm
from mechmorph._operators import linearization_parts, project_even, synthesize_even

from oracles import sampled_linearization_parts, trig_basis


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@given(
    log_n=st.integers(4, 8),
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.01, 3.0),
    D=st.floats(1e-4, 0.1),
    kappa=st.floats(0.2, 5.0),
    fraction=st.floats(0.0, 1.0),
)
def test_assembly_matches_sampled_basis(log_n, seed, amplitude, D, kappa, fraction):
    # Toeplitz-plus-Hankel moments against grid sums over the sampled basis;
    # the even basis is also checked up to the Nyquist cosine
    n = 2**log_n
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=D, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = kappa + amplitude * rng.standard_normal(n)
    k = 1 + int(fraction * (n // 2 - 1))
    for kind, n_modes in (("even", k), ("even", n // 2), ("odd", k), ("full", k)):
        got = linearization_parts(values, grid, params, n_modes, kind)
        want = sampled_linearization_parts(values, grid, params, n_modes, kind)
        assert got[0].shape == want[0].shape
        assert close(got[0], want[0]), (kind, n_modes)
        assert close(got[1], want[1]), (kind, n_modes)
        assert got[2] == want[2]
    for n_modes in (k, n // 2):
        basis, _ = trig_basis(grid, n_modes, "even")
        assert close(project_even(values, n_modes), basis @ values / n)
        coef = rng.standard_normal(n_modes + 1)
        assert close(synthesize_even(coef, n), coef @ basis)
