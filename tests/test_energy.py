import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mechmorph as mm
from mechmorph._operators import linearization_dense, shifted_exp
from mechmorph.energy import KAPPA_FLOOR
from mechmorph.errors import AmplitudeOverflowError, ConfigurationError

from oracles import (
    bessel_i0,
    d1_scan,
    density_form_hessian,
    directional_derivative,
    gauss_legendre_integral,
    random_smooth_field,
    second_directional_derivative,
    trig_basis,
)

MU_1 = 4.0 * np.pi**2


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 3.0])
def test_constant_state_energy_exact(grid256, kappa):
    u = mm.Field(grid256, np.full(256, kappa))
    value = mm.energy(u, mm.ModelParams(D=0.7, kappa=kappa))
    assert abs(value + 0.5 * kappa**2) < 1e-14


def test_zero_field_energy(grid256):
    u = mm.Field(grid256, np.zeros(256))
    assert mm.energy(u, mm.ModelParams(D=0.3, kappa=2.0)) == pytest.approx(0.0, abs=1e-15)


def test_energy_single_mode_against_quadrature(grid256):
    # (D/2) int u_x^2 = 2 pi^2 D for u = sqrt2 cos(2 pi x); int u^2 = 1
    D, kappa = 0.01, 1.0
    u = mm.Field(grid256, np.sqrt(2.0) * np.cos(2.0 * np.pi * grid256.nodes))
    expected = (
        2.0 * np.pi**2 * D
        + 0.5
        - kappa * np.log(gauss_legendre_integral(
            lambda x: np.exp(np.sqrt(2.0) * np.cos(2.0 * np.pi * x))
        ))
    )
    value = mm.energy(u, mm.ModelParams(D=D, kappa=kappa))
    assert abs(value - expected) < 1e-12
    assert abs(np.exp(expected - 2.0 * np.pi**2 * D - 0.5) - 1.0 / bessel_i0(np.sqrt(2.0))) < 1e-12


def test_energy_overflow_guard(grid256):
    u = mm.Field(grid256, np.full(256, 701.0))
    with pytest.raises(AmplitudeOverflowError):
        mm.energy(u, mm.ModelParams(D=0.1, kappa=1.0))


def test_first_variation_vanishes_at_constant(grid256):
    params = mm.ModelParams(D=0.2, kappa=1.7)
    u = mm.Field(grid256, np.full(256, 1.7))
    assert np.max(np.abs(mm.first_variation(u, params).values)) < 1e-14


def test_gradient_matches_finite_differences(grid256):
    params = mm.ModelParams(D=0.05, kappa=1.3)
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(20):
        u = random_smooth_field(grid256, rng, amplitude=1.0, mean=1.0)
        psi = random_smooth_field(grid256, rng, amplitude=1.0).values
        grad = mm.first_variation(u, params)
        inner = mm.integrate(mm.Field(grid256, grad.values * psi))
        approx = directional_derivative(u, params, psi)
        assert abs(inner - approx) < 1e-6 * max(1.0, abs(inner))


def leading(h, k):
    """The Hessian over the first k modes: the leading 2k + 1 rows and columns."""
    return h[: 2 * k + 1, : 2 * k + 1]


def test_hessian_is_the_negated_full_linearization(unimodal_16):
    u, params = unimodal_16.field, unimodal_16.params
    h = mm.hessian_matrix(u, params)
    assert h.tobytes() == (-mm.assemble_linearization(mm.SteadyState(u, params))).tobytes()
    for k in (6, 8, 10, 12):
        block = -linearization_dense(shifted_exp(u.values), u.grid, params, k, "full")
        assert leading(h, k).tobytes() == block.tobytes()


def test_hessian_at_constant_state(grid256):
    D, kappa = 0.02, 1.4
    params = mm.ModelParams(D=D, kappa=kappa)
    u = mm.Field(grid256, np.full(256, kappa))
    h = leading(mm.hessian_matrix(u, params), 6)
    mu = np.concatenate([[0.0], np.repeat(MU_1 * np.arange(1, 7) ** 2, 2)])
    expected = np.diag(1.0 + D * mu - kappa)
    expected[0, 0] = 1.0
    assert np.max(np.abs(h - expected)) < 1e-12


def test_hessian_symmetry_and_row0(grid256):
    params = mm.ModelParams(D=0.03, kappa=2.2)
    rng = np.random.Generator(np.random.PCG64(22))
    u = random_smooth_field(grid256, rng, amplitude=1.5, mean=2.0)
    h = mm.hessian_matrix(u, params)
    assert np.max(np.abs(h - h.T)) < 1e-12
    assert abs(h[0, 0] - 1.0) < 1e-12
    assert np.max(np.abs(h[0, 1:])) < 1e-12


def test_hessian_quadratic_form_matches_finite_differences(grid256):
    params = mm.ModelParams(D=0.03, kappa=1.6)
    rng = np.random.Generator(np.random.PCG64(23))
    basis, _ = trig_basis(grid256, 8, kind="full")
    for _ in range(5):
        u = random_smooth_field(grid256, rng, amplitude=1.0, mean=1.5)
        h = leading(mm.hessian_matrix(u, params), 8)
        coeffs = rng.standard_normal(17)
        coeffs /= np.linalg.norm(coeffs)
        psi = coeffs @ basis
        quad = float(coeffs @ h @ coeffs)
        approx = second_directional_derivative(u, params, psi)
        assert abs(quad - approx) < 1e-4 * max(1.0, abs(quad))


def test_hessian_coefficient_bounds(grid256):
    # diagonal within [1 + D mu_i - 2 kappa, 1 + D mu_i], off-diagonal <= 4 kappa
    params = mm.ModelParams(D=0.04, kappa=1.9)
    rng = np.random.Generator(np.random.PCG64(24))
    mu = np.concatenate([[0.0], np.repeat(MU_1 * np.arange(1, 9) ** 2, 2)])
    for _ in range(10):
        u = random_smooth_field(grid256, rng, amplitude=2.0, mean=1.0)
        h = leading(mm.hessian_matrix(u, params), 8)
        diag = np.diag(h)[1:]
        upper = 1.0 + params.D * mu[1:]
        assert np.all(diag <= upper + 1e-10)
        assert np.all(diag >= upper - 2.0 * params.kappa - 1e-10)
        off = h[1:, 1:] - np.diag(np.diag(h)[1:])
        assert np.max(np.abs(off)) <= 4.0 * params.kappa + 1e-10


def test_hessian_positive_definite_beyond_dmax(grid256):
    kappa = 1.5
    report = mm.bounds(kappa)
    params = mm.ModelParams(D=1.1 * report.d_max, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(25))
    for _ in range(5):
        u = random_smooth_field(grid256, rng, amplitude=2.5, mean=kappa)
        h = mm.hessian_matrix(u, params)
        assert np.linalg.eigvalsh(h).min() >= -1e-8


def test_bounds_kappa_2():
    report = mm.bounds(2.0)
    assert report.d2 == pytest.approx(1.0 / MU_1, rel=1e-13)
    assert report.d_max == pytest.approx(30.0 / MU_1, rel=1e-13)
    assert report.d_min == max(report.d1, report.d2)
    assert report.d_min < report.d_max


def test_bounds_small_kappa():
    report = mm.bounds(0.5)
    assert report.d1 > 0.0
    assert report.d2 is None
    assert report.d_min == report.d1
    assert report.argmax_n > 1


def test_bounds_scan_is_a_maximum():
    # the reported d1 dominates the scanned expression at nearby N
    kappa = 1.2
    report = mm.bounds(kappa)
    n = np.arange(1, 10 * report.argmax_n)
    log4n = np.log(4.0 * n)
    values = (kappa * n * (np.sqrt(2.0) - 1.0) - log4n) / (MU_1 * n**2 * log4n)
    assert report.d1 == pytest.approx(values.max(), rel=1e-12)
    assert report.argmax_n == int(n[np.argmax(values)])


# the kappa values of the tests, the demos, the default sweep, fig2-top and
# the phase_map benchmark
USED_KAPPAS = [0.5, 1.0, 1.15, 1.2, 1.5, 1.6, 2.0, 2.2, 2.5, 3.0, *np.linspace(0.75, 2.5, 8)]


@pytest.mark.parametrize("kappa", [*np.geomspace(1e-3, 1e3, 61), *USED_KAPPAS])
def test_bounds_search_matches_the_scan(kappa):
    report = mm.bounds(kappa)
    d1, argmax_n = d1_scan(kappa)
    assert np.float64(report.d1).tobytes() == np.float64(d1).tobytes()
    assert report.argmax_n == argmax_n


@pytest.mark.parametrize("kappa", [3e-5, 1e-5])
def test_bounds_below_the_old_scan_cap(kappa):
    # a scan capped at N = 2,000,000 stopped at N = 1,999,999 for both
    def summand(n):
        log4n = np.log(4.0 * n)
        return (kappa * n * (np.sqrt(2.0) - 1.0) - log4n) / (MU_1 * n**2 * log4n)

    report = mm.bounds(kappa)
    before, peak, after = (summand(report.argmax_n + k) for k in (-1, 0, 1))
    assert before < peak > after
    assert report.d1 == peak > 0.0
    assert report.argmax_n > 2_000_000


def test_bounds_down_to_the_kappa_floor():
    report = mm.bounds(1e-8)
    assert report.d1 > 0.0
    assert report.argmax_n == pytest.approx(1.1386e10, rel=1e-4)
    assert mm.bounds(KAPPA_FLOOR).d1 > 0.0


def test_bounds_rejects_bad_kappa():
    for kappa in (0.0, -2.0, np.inf, np.nan, 1e-14):
        with pytest.raises(ConfigurationError):
            mm.bounds(kappa)


@st.composite
def smooth_fields(draw):
    """A trigonometric polynomial below n/4 on a grid of n = 16..512 points,
    even (cosines only) or generic, with its exact derivative; and (D, kappa)."""
    n = draw(st.sampled_from([16, 32, 64, 128, 256, 512]))
    even = draw(st.booleans())
    n_modes = draw(st.integers(1, min(8, n // 4 - 1)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    amplitude = draw(st.floats(0.01, 3.0))
    mean = draw(st.floats(-2.0, 3.0))
    params = mm.ModelParams(D=draw(st.floats(1e-4, 1.0)), kappa=draw(st.floats(0.1, 10.0)))
    grid = mm.make_grid(n)
    k = np.arange(1, n_modes + 1)
    phase = 2.0 * np.pi * np.outer(k, grid.nodes)
    a = rng.standard_normal(n_modes) / k
    b = np.zeros(n_modes) if even else rng.standard_normal(n_modes) / k
    shape = a @ np.cos(phase) + b @ np.sin(phase)
    scale = amplitude / np.max(np.abs(shape))
    slope = scale * 2.0 * np.pi * ((b * k) @ np.cos(phase) - (a * k) @ np.sin(phase))
    return mm.Field(grid, mean + scale * shape), slope, params


@given(smooth_fields())
def test_energy_matches_quadrature_oracle(case):
    # grid means are exact for these polynomials, so the Parseval dot must
    # agree with the sampled terms to round-off; log(mean e^u) is only
    # known to eps absolute, hence the floor of 1
    u, slope, params = case
    terms = (
        0.5 * params.D * np.mean(slope**2),
        0.5 * np.mean(u.values**2),
        -params.kappa * np.log(np.mean(np.exp(u.values))),
    )
    scale = max(1.0, sum(abs(t) for t in terms))
    assert abs(mm.energy(u, params) - sum(terms)) <= 1e-13 * scale


def _reflected(u):
    return mm.Field(u.grid, np.roll(u.values[::-1], 1))  # u(-x) on the grid


@given(smooth_fields(), st.integers(1, 511))
def test_energy_and_modes_are_translation_and_reflection_invariant(case, shift):
    u, _, params = case
    j = mm.energy(u, params)
    scale = max(1.0, abs(j) + 0.5 * np.mean(u.values**2) + params.kappa * np.max(np.abs(u.values)))
    modes = mm.count_modes(u)
    for moved in (mm.Field(u.grid, np.roll(u.values, shift)), _reflected(u)):
        assert abs(mm.energy(moved, params) - j) <= 1e-13 * scale
        assert mm.count_modes(moved) == modes


@given(smooth_fields(), st.floats(1e-4, 0.1), st.floats(0.2, 5.0), st.data())
def test_hessian_matches_density_form_oracle(case, D, kappa, data):
    # hessian_matrix is -L as the package assembles it from A, C and M; its
    # leading block over any n_modes <= K is the Hessian over those modes
    u = case[0]
    params = mm.ModelParams(D=D, kappa=kappa)
    h = mm.hessian_matrix(u, params)
    n_modes = data.draw(st.integers(1, (h.shape[0] - 1) // 2))
    expected = density_form_hessian(u, params, n_modes)
    error = np.max(np.abs(leading(h, n_modes) - expected))
    assert error <= 1e-10 * np.max(np.abs(expected))
