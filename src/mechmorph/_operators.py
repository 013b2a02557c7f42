"""Shared field-level operators: the shifted exponential, reaction density,
free energy, PDE right-hand side, even projection, the bump and
noisy-constant seeds of the sweep and the CLI, coefficients in the even
(cosine) basis and the Galerkin assembly of the linearization, with the
one truncation rule of a state's full-basis matrix.

Everything here works on raw value arrays so that the public modules can
expose their own domain types without import cycles.  All quadratures are
grid means (exact for trigonometric polynomials below the Nyquist mode).
No trigonometric basis is ever sampled: projections, syntheses and
Galerkin integrals all come from rfft coefficients.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AmplitudeOverflowError
from .grid import Grid, irfft, rfft
from .model import ModelParams

EXP_GUARD = 700.0  # stay inside double-precision exp() range
EPS = float(np.finfo(float).eps)


def exp_range_error(max_abs: float) -> AmplitudeOverflowError | None:
    """The AmplitudeOverflowError of a field with max |u| = max_abs beyond
    the exp() range guard, or None within it."""
    if max_abs > EXP_GUARD:
        return AmplitudeOverflowError(
            f"max |u| = {max_abs:.3g} exceeds the exp() range guard ({EXP_GUARD:g})"
        )
    return None


def shifted_exp(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """e^(u - max u), its grid mean, and log(int e^u) = max u + log(mean).

    Every evaluation of e^u goes through here or through the flow's step,
    behind the range guard, so nothing overflows.
    """
    top = float(values.max())
    if error := exp_range_error(max(top, -float(values.min()))):
        raise error
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


def energy_weights(grid: Grid, D: float) -> np.ndarray:
    """Weights w with (D/2) int u_x^2 + (1/2) int u^2 = sum_j w_j v_j^2 (Parseval).

    v = u_hat.view(float) interleaves the real and imaginary parts of the
    forward-normalized rfft u_hat.
    """
    quadratic = 0.5 * grid.parseval_weights * (1.0 + D * grid.laplacian_eigenvalues)
    return np.repeat(quadratic, 2)


def quadratic_energy(
    v: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(D/2) int u_x^2 + (1/2) int u^2 as one dot product over the rfft.

    v = u_hat.view(float) is the forward-normalized rfft of the grid values,
    or a stack of them (one value per row), and weights are
    ``energy_weights``.  ``out``, if given, receives weights * v.
    ``np.vecdot`` takes the BLAS dot of ``np.dot`` for each row, so every
    row's value is bit-identical to that of the row alone.
    """
    return np.vecdot(np.multiply(weights, v, out), v)


def free_energy(values: np.ndarray, grid: Grid, params: ModelParams, log_int: float) -> float:
    """J(u) = (D/2) int u_x^2 + (1/2) int u^2 - kappa log(int e^u) of the grid
    values, the quadratic part over their rfft (Parseval), with
    log_int = log(int e^u) (``shifted_exp(values)[2]``)."""
    quadratic = quadratic_energy(rfft(values).view(float), energy_weights(grid, params.D))
    return float(quadratic) - params.kappa * log_int


def evolution_rhs(
    values: np.ndarray, p: np.ndarray, grid: Grid, params: ModelParams
) -> np.ndarray:
    """D u_xx - u + kappa p, with p = ``density(values)``; also the
    stationary residual."""
    uxx = irfft(-grid.laplacian_eigenvalues * rfft(values), grid.n_points)
    return params.D * uxx - values + params.kappa * p


def residual_floor(values: np.ndarray, grid: Grid, params: ModelParams) -> float:
    """Round-off floor of the spectral stationary residual.

    The FFT second derivative amplifies coefficient noise by D * mu_max, so
    no iteration can push the residual below this scale.
    """
    return EPS * (1.0 + params.D * grid.laplacian_eigenvalues[-1]) * max(
        1.0, float(np.abs(values).max())
    )


def even_part(values: np.ndarray) -> np.ndarray:
    """Even (cosine) part (u(x) + u(-x)) / 2 of a periodic sample about node 0."""
    return irfft(rfft(values).real, values.size)


def even_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zero-mean even part of n standard normal samples, scaled to max |.| = 1."""
    even = even_part(rng.standard_normal(n))
    even -= even.mean()
    peak = np.max(np.abs(even))
    return even / peak if peak > 0 else even


def noisy_constant(rng: np.random.Generator, kappa: float, amplitude: float, n: int) -> np.ndarray:
    """kappa (1 + amplitude ``even_noise``): the constant state, evenly perturbed."""
    return kappa * (1.0 + amplitude * even_noise(rng, n))


def bump_seed(kappa: float, nodes: np.ndarray) -> np.ndarray:
    """kappa e^cos(2 pi x) / mean e^cos(2 pi x): one broad peak of mass kappa."""
    bump = np.exp(np.cos(2.0 * np.pi * nodes))
    return kappa * bump / bump.mean()


@functools.lru_cache(maxsize=32)
def even_weights(n_points: int, n_modes: int) -> np.ndarray:
    """Norms w_k of the even basis 1, sqrt2 cos(2 pi k x), ... on the grid:
    1 for the constant and the Nyquist cosine (-1)^j, sqrt2 otherwise.
    Read-only and built once per (n_points, n_modes)."""
    w = np.full(n_modes + 1, np.sqrt(2.0))
    w[0] = 1.0
    if 2 * n_modes == n_points:
        w[-1] = 1.0
    w.setflags(write=False)
    return w


def project_even(values: np.ndarray, n_modes: int, out: np.ndarray | None = None) -> np.ndarray:
    """Grid-mean inner products of values with the even basis, k = 0..n_modes,
    into ``out`` if given (which may be a view, such as a Jacobian column)."""
    coef = rfft(values)[: n_modes + 1].real
    return np.multiply(even_weights(values.size, n_modes), coef, out)


def synthesize_even(coef: np.ndarray, n_points: int) -> np.ndarray:
    """Grid values of sum_k coef_k f_k over the even basis (inverse of ``project_even``)."""
    return irfft(coef / even_weights(n_points, coef.size - 1), n_points)


@functools.lru_cache(maxsize=32)
def _assembly_constants(n_points: int, n_modes: int):
    """What the assembly needs of the basis alone, read-only and built once per
    (n_points, n_modes): the rfft index and the conjugation sign of a_m for
    m = -n_modes .. 2 n_modes, mu_k, w_k, scale_k = w_k / sqrt2 and the
    indices where scale_k != 1 (the constant and the Nyquist cosine)."""
    m = np.arange(-n_modes, 2 * n_modes + 1) % n_points
    upper = m > n_points // 2  # a_m = conj(a_{n_points - m}) for a real function
    w = even_weights(n_points, n_modes)
    arrays = (np.where(upper, n_points - m, m), np.where(upper, -1.0, 1.0),
              (2.0 * np.pi * np.arange(n_modes + 1)) ** 2, w, w / np.sqrt(2.0))
    for a in arrays:
        a.setflags(write=False)
    return *arrays, tuple(np.flatnonzero(arrays[-1] != 1.0).tolist())


def _windows(seq: np.ndarray, start: int, n_rows: int, n_cols: int, step: int) -> np.ndarray:
    """[..., i, j] = seq[..., start + i + step j], a strided view of the
    C-contiguous seq: step -1 gives a Toeplitz, step +1 a Hankel matrix."""
    s = seq.itemsize
    strides = (*seq.strides[:-1], s, step * s)
    return np.ndarray((*seq.shape[:-1], n_rows, n_cols), float, seq, start * s, strides)


def linearization_parts(
    exp_u: tuple[np.ndarray, float, float], grid: Grid, params: ModelParams, n_modes: int,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, float] | tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Galerkin parts of the linearization L h = D h_xx + A h - M C int(C h).

    A = kappa e^U / int e^U - 1, C = e^U, M = kappa / (int e^U)^2, and
    exp_u is ``shifted_exp(U)``, so that a caller that also needs e^U
    evaluates it once.  The orthonormal Laplacian eigenbasis is, by
    ``kind``: "even", the constant and sqrt2 cos(2 pi k x) for
    k = 1..n_modes (n_modes + 1 rows; at n_modes = n_points/2 the last is
    the Nyquist cosine (-1)^j, of grid norm 1); "full", the constant
    followed by alternating (cos k, sin k) pairs (2 n_modes + 1 rows).
    Both return the local block diag(-D mu) + int A f_i f_j, the coupling
    vector int C f_i and M.  "split" returns the "even" parts followed by
    the local block over sqrt2 sin(2 pi k x), k = 1..n_modes: the two
    blocks of L under the reflection x -> -x of an even U, from one
    transform of e^U (the sine coupling vanishes for an even U and is not
    returned).  All parts have the exponential shifted by max(U): C and M
    then stand for e^(U - max U) and kappa / (int e^(U - max U))^2, which
    leaves the rank-one term M C(x) C(y) unchanged and cannot overflow.

    "even" and "split" also take a stack: e^(U - max U) in rows, and its means,
    kappa and D as (B, 1) columns.  Each row's matrices are bit-identical to its
    own; its M, squared by numpy instead of as a float, can differ in the last bit.

    Nothing is sampled: with c_m the Fourier coefficients of C (one rfft),
    a_m = kappa c_m / int C - [m = 0] are those of A, and products of
    trigonometric functions reduce to them (Toeplitz plus Hankel),
    int A sqrt2 cos i sqrt2 cos j = Re a_{i-j} + Re a_{i+j},
    int A sqrt2 sin i sqrt2 sin j = Re a_{i-j} - Re a_{i+j},
    int A sqrt2 cos i sqrt2 sin j = Im a_{i-j} - Im a_{i+j},
    with the weight 1 of the constant and the Nyquist rows in place of sqrt2.
    These identities hold for grid means with the indices taken mod
    n_points, so the result is the grid quadrature over the sampled basis.
    The Toeplitz and Hankel matrices are strided views of one moment
    sequence, a_{-n_modes} .. a_{2 n_modes}, gathered by an index built
    once per (n_points, n_modes) with mu_k, w_k and the scales.  Only the
    cosine rows and columns of a scale other than 1 are scaled (x * 1.0 == x).
    """
    if kind not in ("even", "split", "full"):
        raise ValueError(f"unknown basis kind {kind!r}")
    n, k = grid.n_points, n_modes
    shifted, mean_c, _ = exp_u
    c_hat = rfft(shifted)
    a_hat = params.kappa / mean_c * c_hat
    a_hat[..., 0] -= 1.0
    gather, conj, mu, w, scale, edges = _assembly_constants(n, k)
    re = np.take(a_hat.real, gather, -1)  # a_m at index m + k, C-contiguous as _windows needs
    cos = _windows(re, k, k + 1, k + 1, -1) + _windows(re, k, k + 1, k + 1, 1)
    for i in edges:  # w_i w_j / 2 = scale_i scale_j, by columns and then by rows
        cos[..., i] *= scale[i]
    for i in edges:
        cos[..., i, :] *= scale[i]
    lead = cos.shape[:-2]
    cos.reshape(*lead, -1)[..., :: k + 2] -= params.D * mu  # the diagonal, as a strided view
    cos_c, m_coef = w * c_hat[..., : k + 1].real, params.kappa / mean_c**2
    if kind == "even":
        return cos, cos_c, m_coef
    sin = _windows(re, k, k, k, -1) - _windows(re, k + 2, k, k, 1)
    sin.reshape(*lead, -1)[..., :: k + 1] -= params.D * mu[1:]
    if kind == "split":
        return cos, cos_c, m_coef, sin
    im = a_hat.imag[gather] * conj
    cross = (_windows(im, k - 1, k + 1, k, -1) - _windows(im, k + 1, k + 1, k, 1)) * scale[:, None]
    sin_c = -np.sqrt(2.0) * c_hat[1 : k + 1].imag
    # block order (cos 0..K, sin 1..K) -> (1, cos 1, sin 1, cos 2, sin 2, ...)
    order = np.concatenate([[0], (np.arange(1, k + 1)[:, None] + [0, k]).ravel()])
    local = np.block([[cos, cross], [cross.T, sin]])[np.ix_(order, order)]
    return local, np.concatenate([cos_c, sin_c])[order], m_coef


def subtract_coupling(local: np.ndarray, c_vec: np.ndarray, m_coef: float, out=None) -> np.ndarray:
    """local - M c c^T, the rank-one coupling taken off the local block, into
    ``out`` if given (local itself, or a view of a larger array)."""
    coupling = np.multiply.outer(c_vec, c_vec)
    coupling *= m_coef
    return np.subtract(local, coupling, out)


def linearization_dense(
    exp_u: tuple[np.ndarray, float, float], grid: Grid, params: ModelParams, n_modes: int,
    kind: str, out: np.ndarray | None = None,
) -> np.ndarray:
    """Galerkin matrix of the linearization L in the "even" or "full" basis
    (exp_u = ``shifted_exp(U)``, see ``linearization_parts``).

    local - M c c^T goes into ``out`` if given, which may be a view of a
    larger array, such as the block of a bordered Jacobian."""
    if kind not in ("even", "full"):
        raise ValueError(f"unknown basis kind {kind!r}")
    return subtract_coupling(*linearization_parts(exp_u, grid, params, n_modes, kind), out)


def default_modes(coef: np.ndarray, n: int) -> int:
    """Truncation K of the Galerkin matrices of a state with rfft coef on n points.

    The eigenfunctions of the linearization concentrate on the scale of the
    reaction density, roughly half the state's shortest scale, so twice the
    state's significant bandwidth is kept (at least 64 modes, at most n/4,
    where the Galerkin quadrature stays alias-safe; K >= 2 on every grid).
    """
    coef = np.abs(coef)
    top = coef.max()
    significant = np.nonzero(coef > 1e-12 * top)[0]
    bandwidth = int(significant.max()) if significant.size else 0
    return min(n // 4, max(64, 2 * bandwidth))


def full_linearization(values: np.ndarray, grid: Grid, params: ModelParams) -> np.ndarray:
    """Galerkin matrix of L at the state values in the "full" basis, at the
    truncation K = ``default_modes`` of their rfft: 2K + 1 rows."""
    k = default_modes(rfft(values), grid.n_points)
    return linearization_dense(shifted_exp(values), grid, params, k, "full")
