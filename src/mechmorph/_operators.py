"""Shared field-level operators: the shifted exponential, reaction density,
free energy, PDE right-hand side, even projection, trigonometric Galerkin
bases and the Galerkin assembly of the linearization.

Everything here works on raw value arrays so that the public modules can
expose their own domain types without import cycles.  All quadratures are
grid means (exact for trigonometric polynomials below the Nyquist mode).
"""

from __future__ import annotations

import numpy as np

from .errors import AmplitudeOverflowError
from .grid import Grid
from .model import ModelParams

EXP_GUARD = 700.0  # stay inside double-precision exp() range


def check_exp_range(values: np.ndarray) -> None:
    m = float(np.abs(values).max())
    if m > EXP_GUARD:
        raise AmplitudeOverflowError(
            f"max |u| = {m:.3g} exceeds the exp() range guard ({EXP_GUARD:g})"
        )


def shifted_exp(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """e^(u - max u), its grid mean, and log(int e^u) = max u + log(mean).

    Every evaluation of e^u goes through here, behind the range guard, so
    nothing overflows.
    """
    check_exp_range(values)
    top = float(values.max())
    shifted = np.exp(values - top)
    mean = float(shifted.sum()) / values.size
    return shifted, mean, top + float(np.log(mean))


def density(values: np.ndarray) -> np.ndarray:
    """Normalized production profile p = e^u / int e^u (integrates to 1).

    Computed with the max shifted out of the exponent, so it is well
    conditioned for fields near the overflow guard.
    """
    shifted, mean, _ = shifted_exp(values)
    return shifted / mean


def log_mean_exp(values: np.ndarray) -> float:
    """log(int e^u) via the shifted form max(u) + log(mean e^(u-max))."""
    return shifted_exp(values)[2]


def gradient_weights(grid: Grid) -> np.ndarray:
    """Weights w_k with int u_x^2 = sum_k w_k |u_hat_k|^2 (Parseval).

    u_hat is the forward-normalized rfft; every coefficient but the mean
    and the Nyquist one stands for a conjugate pair.
    """
    w = np.full(grid.n_points // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0  # Nyquist coefficient appears once for even n
    return w * grid.laplacian_eigenvalues


def free_energy(
    u_hat: np.ndarray, values: np.ndarray, params: ModelParams, grad_weights: np.ndarray,
    log_int: float,
) -> float:
    """J(u) = (D/2) int u_x^2 + (1/2) int u^2 - kappa log(int e^u).

    u_hat is the forward-normalized rfft of the grid values; the gradient
    term comes from it with ``gradient_weights``, int u^2 is the grid mean
    of values^2, and log_int is log(int e^u) (``log_mean_exp``).
    """
    grad_sq = float((grad_weights * np.abs(u_hat) ** 2).sum())
    mean_sq = float((values**2).sum()) / values.size
    return 0.5 * params.D * grad_sq + 0.5 * mean_sq - params.kappa * log_int


def evolution_rhs(values: np.ndarray, grid: Grid, params: ModelParams) -> np.ndarray:
    """D u_xx - u + kappa p(u); also the stationary residual."""
    uxx = np.fft.irfft(
        -grid.laplacian_eigenvalues * np.fft.rfft(values, norm="forward"),
        grid.n_points,
        norm="forward",
    )
    return params.D * uxx - values + params.kappa * density(values)


def residual_floor(values: np.ndarray, grid: Grid, params: ModelParams) -> float:
    """Round-off floor of the spectral stationary residual.

    The FFT second derivative amplifies coefficient noise by D * mu_max, so
    no iteration can push the residual below this scale.
    """
    eps = float(np.finfo(float).eps)
    return eps * (1.0 + params.D * grid.laplacian_eigenvalues[-1]) * max(
        1.0, float(np.max(np.abs(values)))
    )


def even_part(values: np.ndarray) -> np.ndarray:
    """Even (cosine) part (u(x) + u(-x)) / 2 of a periodic sample about node 0."""
    coef = np.fft.rfft(values, norm="forward")
    return np.fft.irfft(coef.real.astype(complex), values.size, norm="forward")


def even_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zero-mean even part of n standard normal samples, scaled to max |.| = 1."""
    even = even_part(rng.standard_normal(n))
    even -= even.mean()
    peak = np.max(np.abs(even))
    return even / peak if peak > 0 else even


def trig_basis(grid: Grid, n_modes: int, kind: str = "full") -> tuple[np.ndarray, np.ndarray]:
    """Sampled orthonormal eigenbasis of the periodic Laplacian.

    kind="full": [1, sqrt2 cos(2 pi x), sqrt2 sin(2 pi x), sqrt2 cos(4 pi x), ...],
    i.e. the constant followed by alternating (cos k, sin k) pairs,
    2*n_modes + 1 rows.  kind="even": constant plus the cosines only,
    n_modes + 1 rows; n_modes = n_points/2 ends with the Nyquist cosine
    (-1)^j, whose grid norm is 1 without the sqrt2.  kind="odd": the sines
    only, n_modes rows.  Returns (basis matrix, Laplacian eigenvalue per
    row).
    """
    x = grid.nodes
    k = np.arange(1, n_modes + 1)
    phases = 2.0 * np.pi * np.outer(k, x)
    if kind == "odd":
        return np.sqrt(2.0) * np.sin(phases), (2.0 * np.pi * k) ** 2
    cos = np.sqrt(2.0) * np.cos(phases)
    if 2 * n_modes == grid.n_points:
        cos[-1] = 1.0 - 2.0 * (np.arange(grid.n_points) % 2)
    if kind == "even":
        rows = [np.ones((1, grid.n_points)), cos]
        mu = np.concatenate([[0.0], (2.0 * np.pi * k) ** 2])
    elif kind == "full":
        sin = np.sqrt(2.0) * np.sin(phases)
        inter = np.empty((2 * n_modes, grid.n_points))
        inter[0::2] = cos
        inter[1::2] = sin
        rows = [np.ones((1, grid.n_points)), inter]
        mu = np.concatenate([[0.0], np.repeat((2.0 * np.pi * k) ** 2, 2)])
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    return np.vstack(rows), mu


def linearization_parts(
    values: np.ndarray, grid: Grid, params: ModelParams, basis: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Galerkin parts of the linearization L h = D h_xx + A h - M C int(C h).

    A = kappa e^U / int e^U - 1, C = e^U, M = kappa / (int e^U)^2.  Returns
    the local block diag(-D mu) + int A f_i f_j, the coupling vector
    int C f_i and M, all with the exponential shifted by max(U): C and M
    then stand for e^(U - max U) and kappa / (int e^(U - max U))^2, which
    leaves the rank-one term M C(x) C(y) unchanged and cannot overflow.
    """
    n = grid.n_points
    shifted, mean_c, _ = shifted_exp(values)
    a = params.kappa * shifted / mean_c - 1.0
    local = np.diag(-params.D * mu) + (basis * a) @ basis.T / n
    return local, basis @ shifted / n, params.kappa / mean_c**2


def linearization_dense(
    values: np.ndarray, grid: Grid, params: ModelParams, basis: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Galerkin matrix of the linearization L in the given basis."""
    local, c_vec, m_coef = linearization_parts(values, grid, params, basis, mu)
    return local - m_coef * np.outer(c_vec, c_vec)
