import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mechmorph as mm
from mechmorph._operators import (
    even_weights,
    linearization_dense,
    linearization_parts,
    project_even,
    residual_floor,
    shifted_exp,
    synthesize_even,
)
from mechmorph.grid import irfft

from oracles import sampled_linearization_parts, trig_basis, window_linearization_parts


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
    exp_u = shifted_exp(values)
    for kind, n_modes in (("even", k), ("even", n // 2), ("full", k)):
        got = linearization_parts(exp_u, grid, params, n_modes, kind)
        want = sampled_linearization_parts(values, grid, params, n_modes, kind)
        assert got[0].shape == want[0].shape
        assert close(got[0], want[0]), (kind, n_modes)
        assert close(got[1], want[1]), (kind, n_modes)
        assert got[2] == want[2]
    # the split kind: the even parts, then the sine block
    cos, c_vec, m_coef, sin = linearization_parts(exp_u, grid, params, k, "split")
    want = sampled_linearization_parts(values, grid, params, k, "even")
    assert cos.shape == want[0].shape and close(cos, want[0])
    assert close(c_vec, want[1]) and m_coef == want[2]
    want_sin = sampled_linearization_parts(values, grid, params, k, "odd")[0]
    assert sin.shape == want_sin.shape and close(sin, want_sin)
    for n_modes in (k, n // 2):
        basis, _ = trig_basis(grid, n_modes, "even")
        assert close(project_even(values, n_modes), basis @ values / n)
        coef = rng.standard_normal(n_modes + 1)
        assert close(synthesize_even(coef, n), coef @ basis)


def same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(log_n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0))
def test_synthesis_is_bit_identical_to_a_zero_filled_spectrum(log_n, seed, fraction):
    # irfft zero-pads a row shorter than n/2 + 1 and reads a real one as
    # complex; K runs from 1 to the Nyquist mode n/2
    n = 2**log_n
    k = 1 + int(fraction * (n // 2 - 1))
    rng = np.random.Generator(np.random.PCG64(seed))
    coef = rng.standard_normal(k + 1) * 10.0 ** rng.uniform(-8.0, 2.0, k + 1)
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[: k + 1] = coef / even_weights(n, k)
    assert same(synthesize_even(coef, n), irfft(spec, n))


@settings(max_examples=100)
@given(
    log_n=st.integers(4, 9),
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.01, 5.0),
    D=st.floats(1e-4, 0.1),
    kappa=st.floats(0.2, 5.0),
    fraction=st.floats(0.0, 1.0),
)
def test_split_assembly_is_bit_identical_to_one_kind_per_call(
    log_n, seed, amplitude, D, kappa, fraction
):
    # even fields as the spectra see them: real cosine coefficients with a
    # decaying tail; n_modes from 1 to n/4
    n = 2**log_n
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=D, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(seed))
    decay = np.exp(-0.2 * np.arange(n // 2 + 1))
    coef = kappa * np.eye(1, n // 2 + 1)[0] + amplitude * decay * rng.standard_normal(n // 2 + 1)
    values = np.fft.irfft(coef, n, norm="forward")
    k = 1 + int(fraction * (n // 4 - 1))
    exp_u = shifted_exp(values)
    cos, c_vec, m_coef, sin = linearization_parts(exp_u, grid, params, k, "split")
    even = window_linearization_parts(values, grid, params, k, "even")
    odd = window_linearization_parts(values, grid, params, k, "odd")
    assert same(cos, even[0]) and same(c_vec, even[1]) and m_coef == even[2]
    assert same(sin, odd[0]) and m_coef == odd[2]
    for kind, n_modes in (("even", k), ("even", n // 2), ("full", k)):
        got = linearization_parts(exp_u, grid, params, n_modes, kind)
        want = window_linearization_parts(values, grid, params, n_modes, kind)
        assert same(got[0], want[0]) and same(got[1], want[1]) and got[2] == want[2]
        want_dense = want[0] - want[2] * np.outer(want[1], want[1])
        assert same(linearization_dense(exp_u, grid, params, n_modes, kind), want_dense)
        # into the leading block of a bordered buffer, as the branch
        # corrector assembles its Jacobian; at n_modes = n/2 the Nyquist
        # row and column carry a scale other than 1
        size = len(want_dense)
        buffer = np.full((size + 1, size + 1), np.nan)
        block = linearization_dense(exp_u, grid, params, n_modes, kind, buffer[:-1, :-1])
        assert np.shares_memory(block, buffer) and same(block, want_dense)
        assert np.isnan(buffer[-1]).all() and np.isnan(buffer[:, -1]).all()


@pytest.mark.parametrize("assemble, kind", [
    (linearization_parts, "odd"), (linearization_dense, "odd"), (linearization_dense, "split"),
])
def test_assembly_rejects_an_unknown_kind(assemble, kind):
    # "split" returns two blocks, so it has no single dense matrix
    grid = mm.make_grid(16)
    exp_u = shifted_exp(np.cos(2.0 * np.pi * grid.nodes))
    with pytest.raises(ValueError, match="unknown basis kind"):
        assemble(exp_u, grid, mm.ModelParams(D=0.01, kappa=1.5), 2, kind)


@given(
    log_n=st.integers(3, 11),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 700.0),
    D=st.floats(1e-5, 1.0),
    kappa=st.floats(0.1, 10.0),
)
def test_residual_floor_keeps_the_formula_it_replaces(log_n, seed, scale, D, kappa):
    # the module-level eps and the ndarray max change no bit of the floor
    grid = mm.make_grid(2**log_n)
    params = mm.ModelParams(D=D, kappa=kappa)
    values = scale * np.random.Generator(np.random.PCG64(seed)).standard_normal(grid.n_points)
    eps = float(np.finfo(float).eps)
    old = eps * (1.0 + params.D * grid.laplacian_eigenvalues[-1]) * max(
        1.0, float(np.max(np.abs(values)))
    )
    floor = residual_floor(values, grid, params)
    assert type(floor) is type(old) and np.float64(floor).tobytes() == np.float64(old).tobytes()
