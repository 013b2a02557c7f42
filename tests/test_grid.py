import numpy as np
import pytest

import mechmorph as mm
from mechmorph.errors import ConfigurationError
from mechmorph.grid import irfft, rfft

from oracles import bessel_i0, gauss_legendre_integral

# frozen: I_0(1) from the series sum_m 1 / (4^m (m!)^2)
BESSEL_I0_ONE = 1.2660658777520084


def test_make_grid_uniform_partition():
    g = mm.make_grid(8)
    assert np.allclose(g.nodes, np.arange(8) / 8.0)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] < 1.0
    assert np.all(np.diff(g.nodes) > 0)


def test_make_grid_spacing():
    assert mm.make_grid(256).spacing == 1.0 / 256


@pytest.mark.parametrize("bad", [100, 4, 0, -8, 2.5, "64"])
def test_make_grid_rejects_invalid(bad):
    with pytest.raises(ConfigurationError):
        mm.make_grid(bad)


def test_field_validation(grid256):
    with pytest.raises(ConfigurationError):
        mm.Field(grid256, np.ones(100))
    bad = np.ones(256)
    bad[3] = np.nan
    with pytest.raises(ConfigurationError):
        mm.Field(grid256, bad)


def test_field_immutable(grid256):
    f = mm.Field(grid256, np.zeros(256))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_constant_spectrum(grid256):
    s = mm.to_spectral(mm.Field(grid256, np.full(256, 3.25)))
    assert abs(s.coefficients[0] - 3.25) < 1e-14
    assert np.max(np.abs(s.coefficients[1:])) < 1e-14


def test_pure_mode_spectrum(grid256):
    f = mm.Field(grid256, np.cos(2.0 * np.pi * grid256.nodes))
    s = mm.to_spectral(f)
    mask = np.ones(s.coefficients.size, dtype=bool)
    mask[1] = False
    assert np.max(np.abs(s.coefficients[mask])) < 1e-15
    assert abs(s.coefficients[1] - 0.5) < 1e-15


def test_roundtrip_random_fields(grid256):
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        values = rng.standard_normal(256)
        f = mm.Field(grid256, values)
        back = mm.from_spectral(mm.to_spectral(f))
        norm = np.linalg.norm(values)
        assert np.max(np.abs(back.values - values)) < 1e-12 * norm


def test_parseval(grid256):
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(10):
        f = mm.Field(grid256, rng.standard_normal(256))
        s = mm.to_spectral(f)
        lhs = np.sum(s.parseval_weights * np.abs(s.coefficients) ** 2)
        rhs = np.mean(f.values**2)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_second_derivative_eigenfunctions(grid256):
    x = grid256.nodes
    cases = [
        (np.cos(2.0 * np.pi * x), 4.0 * np.pi**2),
        (np.sin(4.0 * np.pi * x), 16.0 * np.pi**2),
        (np.full(256, 5.0), 0.0),
    ]
    for values, mu in cases:
        out = mm.from_spectral(mm.second_derivative(mm.to_spectral(mm.Field(grid256, values))))
        assert np.max(np.abs(out.values + mu * values)) < 1e-10 * max(1.0, mu)


def test_differentiation_matrix_property(grid256):
    x = grid256.nodes
    for k in range(1, 256 // 4 + 1):
        values = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
        mu = (2.0 * np.pi * k) ** 2
        out = mm.from_spectral(mm.second_derivative(mm.to_spectral(mm.Field(grid256, values))))
        assert np.max(np.abs(out.values + mu * values)) < 1e-10 * mu


def test_integrate_constant(grid256):
    assert mm.integrate(mm.Field(grid256, np.full(256, 2.5))) == pytest.approx(2.5, abs=1e-15)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_integrate_zero_mean_modes(grid256, k):
    f = mm.Field(grid256, np.cos(2.0 * np.pi * k * grid256.nodes))
    assert abs(mm.integrate(f)) < 1e-15


def test_integrate_exp_cos_matches_bessel(grid256):
    f = mm.Field(grid256, np.exp(np.cos(2.0 * np.pi * grid256.nodes)))
    value = mm.integrate(f)
    assert abs(value - BESSEL_I0_ONE) < 1e-13
    assert abs(bessel_i0(1.0) - BESSEL_I0_ONE) < 1e-15
    quad = gauss_legendre_integral(lambda x: np.exp(np.cos(2.0 * np.pi * x)))
    assert abs(value - quad) < 1e-12


def test_derivative_of_periodic_has_zero_mean(grid256):
    rng = np.random.Generator(np.random.PCG64(9))
    for _ in range(10):
        f = mm.Field(grid256, rng.standard_normal(256))
        d2 = mm.from_spectral(mm.second_derivative(mm.to_spectral(f)))
        assert abs(mm.integrate(d2)) < 1e-10 * np.linalg.norm(f.values)


def test_first_derivative(grid256):
    x = grid256.nodes
    f = mm.Field(grid256, np.sin(2.0 * np.pi * x))
    out = mm.from_spectral(mm.first_derivative(mm.to_spectral(f)))
    expected = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(out.values - expected)) < 1e-10


@pytest.mark.parametrize("n", [2**p for p in range(3, 13)])
def test_fft_pair_is_bit_identical_to_numpy(n):
    # np.fft stays the independent reference for the package's one FFT pair
    rng = np.random.Generator(np.random.PCG64(n))
    rows = rng.standard_normal((3, n))
    coef = np.fft.rfft(rows, norm="forward")
    short = coef[:, : n // 4 + 1]  # zero-padded up to n // 2 + 1
    strided = rng.standard_normal((6, 2 * n))[::2, ::2]
    for values in (rows[0], rows, strided, strided[1]):
        assert np.array_equal(rfft(values), np.fft.rfft(values, norm="forward"))
    for c in (coef[0], coef, short, short[0], coef.real, coef[:, ::-1], coef[::2, :]):
        assert np.array_equal(irfft(c, n), np.fft.irfft(c, n, norm="forward"))
    out = np.empty(n // 2 + 1, dtype=complex)
    assert rfft(rows[1], out=out) is out
    assert np.array_equal(out, coef[1])
    back = np.empty(n)
    assert irfft(coef[1], n, out=back) is back
    assert np.array_equal(back, np.fft.irfft(coef[1], n, norm="forward"))


def test_half_spectrum_arrays_are_built_once_and_read_only():
    g = mm.make_grid(16)
    for name in ("wavenumbers", "laplacian_eigenvalues", "parseval_weights"):
        first = getattr(g, name)
        assert getattr(g, name) is first
        with pytest.raises(ValueError):
            first[0] = 1.0
    assert np.array_equal(g.wavenumbers, np.arange(9))
    assert np.array_equal(g.laplacian_eigenvalues, (2.0 * np.pi * np.arange(9)) ** 2)
    assert np.array_equal(g.parseval_weights, [1.0] + [2.0] * 7 + [1.0])
