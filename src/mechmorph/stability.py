"""Linear stability of stationary solutions.

Two independent routes to the spectrum of the linearization

    L h = D h_xx + A(x) h - M C(x) int C(y) h(y) dy,
    A = kappa e^U / int e^U - 1,  C = e^U,  M = kappa / (int e^U)^2.

Steady states are even about a peak, so L splits under the reflection
about it.  The state is recentered (its rfft coefficients rotated by the
phase of harmonic ``modality``) and L is assembled in two blocks, each
from the Fourier coefficients of e^U (one rfft, no sampled basis).  The
cosine block carries the local part and the whole rank-one coupling.  The
sine block is purely local (int e^U sin = 0); the sine eigenvector that
overlaps U_x most is the translation mode.  The local eigenfunctions are
synthesized together by one batched irfft into a single array, and their
sign changes are counted in one vectorized pass.

The direct route takes the eigenvalues of the cosine block of L and keeps
the sine eigenvalues.  The secular route removes the rank-one coupling: with
(lambda_n, psi_n) the local eigenpairs, D psi_xx + A psi = lambda psi, and
beta_n = int C psi_n (zero on the sines), every nonlocal eigenvalue not
shared with the local problem solves

    1/M = sum_n beta_n^2 / (lambda_n - nu),

with exactly one root between consecutive distinct lambdas that carry
beta != 0, plus one root below the smallest of them.  Local eigenvalues
with |beta| <= 1e-9 max |beta| carry over verbatim.  Agreement of the two
routes is the package's main spectral self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._operators import linearization_dense, linearization_parts
from .errors import BracketError, ConfigurationError, ResolutionError
from .steady import SteadyState

__all__ = [
    "LocalSpectrum",
    "EigenReport",
    "CrosscheckReport",
    "assemble_linearization",
    "local_spectrum",
    "nonlocal_spectrum",
    "secular_roots",
    "spectrum_crosscheck",
]

MARGINAL_TOL = 1e-8
SYMMETRY_TOL = 1e-9  # odd part of a recentered state, relative to its largest coefficient
BETA_TOL = 1e-9  # relative to max |beta|
MERGE_TOL = 1e-9
BISECT_TOL = 1e-12
BRACKET_INSET = 1e-10
N_VERIFY = 5  # leading local eigenfunctions checked against the oscillation pattern


def _default_modes(state) -> int:
    """Truncation adapted to the state's own spectral content.

    The eigenfunctions of the linearization concentrate on the scale of the
    reaction density, roughly half the state's shortest scale, so twice the
    state's significant bandwidth is kept (at least 64 modes, at most
    n_points/4 where the Galerkin quadrature stays alias-safe).
    """
    n = state.field.grid.n_points
    coef = np.abs(np.fft.rfft(state.field.values, norm="forward"))
    top = coef.max()
    significant = np.nonzero(coef > 1e-12 * top)[0]
    bandwidth = int(significant.max()) if significant.size else 0
    return min(n // 4, max(64, 2 * bandwidth))


@dataclass(frozen=True)
class LocalSpectrum:
    """Spectrum of the local problem D psi_xx + A(x) psi = lambda psi.

    lambdas are sorted decreasing.  eigenfunctions is a read-only
    (len(lambdas), n_points) array of grid values whose row i belongs to
    lambdas[i]; the rows are orthonormal under the grid mean.  zero_counts
    holds the number of sign changes per period of each row.
    """

    lambdas: np.ndarray
    eigenfunctions: np.ndarray = field(repr=False)
    zero_counts: np.ndarray


@dataclass(frozen=True)
class EigenReport:
    """Stability report for one stationary solution.

    nonlocal_eigs (sorted decreasing) are those of the cosine block of L
    and of the purely local sine block; betas align with local.lambdas and
    are exactly 0.0 on the sines.  verdict follows the thresholds
    max nu > 1e-8 (unstable) and |max nu| <= 1e-8 (marginal); a nonconstant
    state always carries a translation eigenvalue at zero, so a pattern that
    is stable modulo shifts reports "marginal".  translation_nu is the sine
    eigenvalue whose eigenvector overlaps U_x most (None for the constant
    state); leading_nu, the largest eigenvalue without it, changes sign at
    folds.
    """

    local: LocalSpectrum
    betas: np.ndarray
    M: float
    nonlocal_eigs: np.ndarray
    verdict: str
    route: tuple[str, ...]
    leading_nu: float
    translation_nu: float | None


@dataclass(frozen=True)
class CrosscheckReport:
    """Comparison of the direct and secular spectra (leading eigenvalues).

    ``report`` is the direct-route spectrum that was checked.
    """

    direct: np.ndarray
    secular: np.ndarray
    max_deviation: float
    n_compared: int
    interlacing_ok: bool
    report: EigenReport


def _zero_counts(functions: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Cyclic sign changes of each row among its significant entries.

    An entry is significant where |f| > max(1e-9 max|row|, floor of the
    row).  Only bool arrays of the full size are made: the signs of the
    significant entries are compressed row after row into one vector, and
    every entry is compared with the one before it, the first of a row with
    the last of the same row.
    """
    peak = np.maximum(functions.max(axis=1), -functions.min(axis=1))
    threshold = np.maximum(1e-9 * peak, floors)[:, None]
    significant = functions > threshold
    significant |= functions < -threshold
    positive = (functions > 0.0)[significant]
    sizes = np.count_nonzero(significant, axis=1)
    counts = np.zeros(sizes.size, dtype=int)
    filled = sizes > 0
    if not filled.any():
        return counts
    first = (np.cumsum(sizes) - sizes)[filled]
    last = first + sizes[filled] - 1
    change = np.empty_like(positive)
    np.not_equal(positive[1:], positive[:-1], out=change[1:])
    change[first] = positive[first] != positive[last]
    # changes per row from the sorted change positions: no integer array
    # of the full size
    bounds = np.searchsorted(np.flatnonzero(change), np.append(first, change.size))
    counts[filled] = np.diff(bounds)
    return counts


def _check_modes(state: SteadyState, n_modes: int | None) -> int:
    n = state.field.grid.n_points
    if n_modes is None:
        n_modes = _default_modes(state)
    if n_modes < 1 or n_modes > n // 4:
        raise ConfigurationError(
            f"n_modes must be in [1, n_points/4], got {n_modes} at n_points={n}"
        )
    return n_modes


def assemble_linearization(state: SteadyState, n_modes: int | None = None) -> np.ndarray:
    """Dense Galerkin matrix of L in the full trigonometric basis.

    Basis ordering matches :func:`mechmorph.energy.hessian_matrix`
    (constant, then alternating cos/sin), of which this matrix is the
    negative; here it is assembled independently from A, C and M.
    """
    grid, n_modes = state.field.grid, _check_modes(state, n_modes)
    return linearization_dense(state.field.values, grid, state.params, n_modes, "full")


def _eigenfunctions(cos_vecs, sin_vecs, order, back, n_points: int) -> np.ndarray:
    """Grid values of the block eigenvectors, in the sorted ``order``.

    One irfft of their coefficients (sqrt2 cos k -> 1/sqrt2, sqrt2 sin k
    -> -i/sqrt2), rotated by ``back`` from the axis onto the state.  Rows
    go straight into sorted order (rank[j] is the row of block eigenvector
    j), which saves a permuted copy, and the coefficients are freed on
    return, before the zero counts run.  The result is read-only.
    """
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    n_modes = sin_vecs.shape[0]
    spec = np.zeros((order.size, n_modes + 1), dtype=complex)
    spec[rank[: n_modes + 1]] = cos_vecs.T
    spec[rank[n_modes + 1 :], 1:] = -1j * sin_vecs.T
    spec[:, 1:] *= back[1 : n_modes + 1] / np.sqrt(2.0)
    functions = np.fft.irfft(spec, n_points, norm="forward")
    functions.flags.writeable = False
    return functions


def _local_split(state: SteadyState, n_modes: int):
    """Checked local spectrum from the cosine and sine blocks of L.

    Returns it with its betas, the cosine parts of L (local block, coupling,
    M; e^U shifted by u_max), u_max, the sine eigenvalues and the index of
    the translation mode among them (None for the constant state).
    """
    grid, params = state.field.grid, state.params
    # rotate a peak to x = 0, where an even state has real coefficients
    coef = np.fft.rfft(state.field.values, norm="forward")
    m = state.modality
    back = np.exp(1j * np.arange(coef.size) * np.angle(coef[m]) / m) if m else np.ones(coef.size)
    coef = coef * back.conj()
    if np.max(np.abs(coef.imag)) > SYMMETRY_TOL * np.max(np.abs(coef)):
        raise ResolutionError("steady state is not reflection-symmetric about a peak")
    values = np.fft.irfft(coef.real, grid.n_points, norm="forward")
    cos_parts = linearization_parts(values, grid, params, n_modes, "even")
    sin_local = linearization_parts(values, grid, params, n_modes, "odd")[0]
    cos_vals, cos_vecs = np.linalg.eigh(cos_parts[0])
    sin_vals, sin_vecs = np.linalg.eigh(sin_local)
    order = np.argsort(np.concatenate([cos_vals, sin_vals]))[::-1]
    eigvals = np.concatenate([cos_vals, sin_vals])[order]

    functions = _eigenfunctions(cos_vecs, sin_vecs, order, back, grid.n_points)
    # significance floor per eigenfunction: truncation ripples in the flat
    # exponential tails scale with the energy in the last coefficients
    tail = max(2, n_modes // 4)
    floors = 10.0 * np.linalg.norm(np.hstack([cos_vecs[-tail:], sin_vecs[-tail:]]), axis=0)[order]
    counts = _zero_counts(functions, floors)

    # the oscillation pattern is only checkable for eigenvalues that are
    # numerically isolated: inside degenerate clusters (cos/sin pairs of the
    # constant state, or the exponentially small tunneling splittings of
    # multimodal states) the split of the cluster is arbitrary
    spread = max(1.0, float(eigvals[0] - eigvals[-1]))
    gaps = np.abs(np.diff(eigvals)) > 1e-9 * spread
    isolated = np.concatenate([gaps, [True]]) & np.concatenate([[True], gaps])
    if state.modality <= 1 and eigvals.size >= 2 and eigvals[0] - eigvals[1] <= 1e-10:
        raise ResolutionError("leading local eigenvalue is not simple at this resolution")
    for i in range(min(N_VERIFY, eigvals.size)):
        expected = 0 if i == 0 else 2 * ((i + 1) // 2)
        if isolated[i] and counts[i] != expected:
            raise ResolutionError(
                f"local eigenfunction {i} has {counts[i]} sign changes, expected {expected}"
            )
    local = LocalSpectrum(lambdas=eigvals, eigenfunctions=functions, zero_counts=counts)

    u_max = float(values.max())
    betas = np.concatenate([np.exp(u_max) * (cos_vecs.T @ cos_parts[1]), np.zeros(n_modes)])
    translation = None
    if m:
        # sine coefficients of U_x are -2 pi k a_k for the cosine coefficients a_k
        ux = np.arange(1, n_modes + 1) * coef.real[1 : n_modes + 1]
        translation = int(np.argmax(np.abs(sin_vecs.T @ ux)))
    return local, betas[order], cos_parts, u_max, sin_vals, translation


def local_spectrum(state: SteadyState, n_modes: int | None = None) -> LocalSpectrum:
    """Eigen-decomposition of the local problem, sorted decreasing.

    The leading five eigenfunctions are checked against the oscillation
    pattern (the 0th does not vanish; the pair 2j+1, 2j+2 has 2j+2 zeros
    per period) and the ordering chain; a mismatch raises
    :class:`ResolutionError`.
    """
    return _local_split(state, _check_modes(state, n_modes))[0]


def _verdict(max_nu: float) -> str:
    if max_nu > MARGINAL_TOL:
        return "unstable"
    if abs(max_nu) <= MARGINAL_TOL:
        return "marginal"
    return "stable"


def nonlocal_spectrum(state: SteadyState, n_modes: int | None = None) -> EigenReport:
    """Direct-route spectrum of the full linearization, with verdict.

    The cosine block of L is diagonalized with its rank-one term; the sine
    block is local, so its eigenvalues enter unchanged.  For a nonconstant
    state the translation mode U_x is a sine eigenvector with an eigenvalue
    at zero; it is excluded from ``leading_nu`` (but not from the verdict
    thresholds).
    """
    split = _local_split(state, _check_modes(state, n_modes))
    local, betas, (cos_local, c_vec, m_shifted), u_max, sin_vals, translation = split
    # undo the max(U) shift: M = kappa / (int e^U)^2
    m_coef = m_shifted * np.exp(-2.0 * u_max)
    if m_coef < np.finfo(float).tiny:
        raise ConfigurationError("state too large to represent the coupling constant M")

    cos_eigs = np.linalg.eigvalsh(cos_local - m_shifted * np.outer(c_vec, c_vec))
    eigvals = np.sort(np.concatenate([cos_eigs, sin_vals]))[::-1]
    translation_nu = None if translation is None else float(sin_vals[translation])
    others = sin_vals if translation is None else np.delete(sin_vals, translation)
    leading_nu = max(float(cos_eigs.max()), float(others.max(initial=-np.inf)))

    return EigenReport(
        local=local,
        betas=betas,
        M=m_coef,
        nonlocal_eigs=eigvals,
        verdict=_verdict(float(eigvals[0])),
        route=("direct-matrix",) * eigvals.size,
        leading_nu=leading_nu,
        translation_nu=translation_nu,
    )


def _bisect(g, lo: float, hi: float) -> float:
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if np.sign(glo) == np.sign(ghi):
        raise BracketError(
            f"no sign change in bracket ({lo:.12g}, {hi:.12g}); "
            "a coupling coefficient may be misclassified at the current tolerance"
        )
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if np.sign(gm) == np.sign(glo):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class _SecularSolution:
    """Internal: secular roots with their brackets, plus the verbatim set."""

    roots: list[tuple[float, float, float]]  # (root, lower bracket, upper bracket)
    verbatim: list[float]

    def all_sorted(self) -> np.ndarray:
        values = self.verbatim + [r for r, _, _ in self.roots]
        return np.sort(np.asarray(values))[::-1]


def _secular_solve(local: LocalSpectrum, betas: np.ndarray, M: float) -> _SecularSolution:
    if M <= 0:
        raise ConfigurationError(f"M must be positive, got {M}")
    lambdas = np.asarray(local.lambdas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if betas.shape != lambdas.shape:
        raise ConfigurationError("betas must align with local.lambdas")

    decoupled = np.abs(betas) <= BETA_TOL * np.max(np.abs(betas), initial=0.0)
    verbatim = list(lambdas[decoupled])
    coupled = list(zip(lambdas[~decoupled], betas[~decoupled]))

    # merge coincident coupled eigenvalues (sorted decreasing already); the
    # shared value stays an eigenvalue through the decoupled combination
    merged: list[tuple[float, float]] = []
    for lam, b in coupled:
        if merged and abs(merged[-1][0] - lam) < MERGE_TOL:
            prev_lam, prev_b = merged[-1]
            merged[-1] = (prev_lam, float(np.hypot(prev_b, b)))
            verbatim.append(prev_lam)
        else:
            merged.append((lam, float(b)))

    if not merged:
        return _SecularSolution(roots=[], verbatim=verbatim)

    lam_b = np.array([lam for lam, _ in merged])
    scale = max(abs(b) for _, b in merged)
    b_norm = np.array([b / scale for _, b in merged])
    target = (1.0 / M) / scale / scale

    def g(nu):
        with np.errstate(divide="ignore"):
            return float(np.sum(b_norm**2 / (lam_b - nu)) - target)

    def shrink_towards(endpoint, sign, want_negative):
        # move the probe closer to the pole at `endpoint` until g has the
        # required sign; a probe that collapses onto the pole means the root
        # coincides with the eigenvalue to machine precision
        inset = BRACKET_INSET
        while inset > 1e-18:
            probe = endpoint + sign * inset
            if probe == endpoint:
                return endpoint, True
            value = g(probe)
            if (value < 0.0) == want_negative:
                return probe, False
            inset *= 1e-3
        return endpoint, True

    roots: list[tuple[float, float, float]] = []
    # one root inside each interval between consecutive coupled eigenvalues
    for upper, lower in zip(lam_b[:-1], lam_b[1:]):
        if upper - lower <= 2 * BRACKET_INSET:  # narrower than the insets
            roots.append((0.5 * (lower + upper), lower, upper))
            continue
        lo, pinned_lo = shrink_towards(lower, +1.0, want_negative=True)
        hi, pinned_hi = shrink_towards(upper, -1.0, want_negative=False)
        if pinned_lo:
            roots.append((lower, lower, upper))
        elif pinned_hi:
            roots.append((upper, lower, upper))
        else:
            roots.append((_bisect(g, lo, hi), lower, upper))
    # one root below the smallest coupled eigenvalue (g -> 0- as nu -> -inf)
    lowest = lam_b[-1]
    hi, pinned = shrink_towards(lowest, -1.0, want_negative=False)
    if pinned:
        roots.append((lowest, -np.inf, lowest))
    else:
        span = max(1.0, abs(lowest))
        lo = lowest - span
        for _ in range(200):
            if g(lo) < 0.0:
                break
            span *= 2.0
            lo = lowest - span
        else:
            raise BracketError("could not bracket the lowest secular root")
        roots.append((_bisect(g, lo, hi), -np.inf, lowest))

    return _SecularSolution(roots=roots, verbatim=verbatim)


def secular_roots(local: LocalSpectrum, betas: np.ndarray, M: float) -> np.ndarray:
    """All nonlocal eigenvalues via the secular equation, sorted decreasing.

    Local eigenvalues with |beta| <= 1e-9 max |beta| are nonlocal
    eigenvalues verbatim and enter the result directly.  Coincident local
    eigenvalues (within 1e-9) that both couple are merged with
    beta <- sqrt(beta_i^2 + beta_j^2); the shared eigenvalue itself then
    also remains a nonlocal eigenvalue (the orthogonal combination
    decouples).  One root is bisected inside every interval between
    consecutive distinct coupled eigenvalues, plus one below the smallest.
    """
    return _secular_solve(local, betas, M).all_sorted()


def spectrum_crosscheck(
    state: SteadyState,
    n_modes: int | None = None,
    tol: float = 1e-6,
    n_compare: int = 10,
) -> CrosscheckReport:
    """Compare the direct and secular spectra on the leading eigenvalues.

    Raises :class:`ResolutionError` (with both lists attached) if the
    maximum pairwise deviation over the leading ``n_compare`` eigenvalues
    exceeds ``tol``.  Also verifies the interlacing brackets: every secular
    root must lie strictly between the coupled local eigenvalues around it.
    """
    report = nonlocal_spectrum(state, n_modes)
    solution = _secular_solve(report.local, report.betas, report.M)
    secular = solution.all_sorted()
    direct = report.nonlocal_eigs
    k = min(n_compare, direct.size, secular.size)
    max_dev = float(np.max(np.abs(direct[:k] - secular[:k])))

    # every bisected root must sit inside its own bracket of consecutive
    # coupled local eigenvalues (the lowest one is only bounded above)
    interlacing_ok = all(lower <= root <= upper for root, lower, upper in solution.roots)

    if max_dev >= tol:
        err = ResolutionError(
            f"spectrum cross-check deviation {max_dev:.3e} exceeds {tol:g} "
            f"on the leading {k} eigenvalues"
        )
        err.direct = direct[:k]
        err.secular = secular[:k]
        raise err
    return CrosscheckReport(
        direct=direct,
        secular=secular,
        max_deviation=max_dev,
        n_compared=k,
        interlacing_ok=interlacing_ok,
        report=report,
    )
