"""Linear stability of stationary solutions.

Two independent routes to the spectrum of the linearization

    L h = D h_xx + A(x) h - M C(x) int C(y) h(y) dy,
    A = kappa e^U / int e^U - 1,  C = e^U,  M = kappa / (int e^U)^2.

Steady states are even about a peak, so L splits under the reflection
about it.  The state is recentered (its rfft coefficients rotated by the
phase of harmonic ``modality``) and L is assembled in two blocks from the
Fourier coefficients of e^U: one shifted exponential and one rfft serve
both blocks, and no basis is sampled.  The cosine block carries the
local part and the whole rank-one coupling.  The sine block is purely
local (int e^U sin = 0); the sine eigenvector that overlaps U_x most is
the translation mode.  A 1/m-periodic state (m >= 2 peaks) makes L commute
with the shift by 1/m, so both blocks split further into the Bloch classes
of wavenumbers k = +-r (mod m), one eigensolve each.  Only the class r = 0
meets the coupling (int e^U cos k = 0 unless m divides k): the classes
r != 0 are purely local, so the strain-conservation inhibition does not act
on their coarsening modes, and there the instability of multimodal states
lives; they keep their local eigenvalues.  The local eigenvectors are kept
as the blocks give them; a spectrum builds the rfft rows of only the leading
N_VERIFY, which the oscillation check synthesizes and counts.

The direct route takes the eigenvalues of the cosine block of L and keeps
the sine eigenvalues.  The secular route removes the rank-one coupling: with
(lambda_n, psi_n) the local eigenpairs, D psi_xx + A psi = lambda psi, and
beta_n = int C psi_n (zero on the sines), every nonlocal eigenvalue not
shared with the local problem solves

    1/M = sum_n beta_n^2 / (lambda_n - nu),

with exactly one root between consecutive distinct lambdas that carry
beta != 0, plus one root below the smallest of them.  Local eigenvalues
with |beta| <= 1e-9 max |beta| carry over verbatim.  All brackets are
bisected together: each sweep evaluates the secular function for every
open bracket as one (brackets x poles) array.

Agreement of the two routes is the package's main spectral self-check.
It comes with an interlacing check of the direct eigenvalues against the
local ones: L is the local operator minus a positive rank-one term, so
lambda_{i+1} <= nu_i <= lambda_i.  :func:`spectrum_crosscheck` logs what
the secular solve did (:class:`SecularStats`) at DEBUG on the
``mechmorph.stability`` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._operators import linearization_dense, linearization_parts, shifted_exp
from .errors import BracketError, ConfigurationError, ResolutionError
from .grid import irfft, rfft
from .model import check_count
from .steady import SteadyState

__all__ = [
    "LocalSpectrum",
    "EigenReport",
    "CrosscheckReport",
    "SecularStats",
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
# bracket ends probed ever closer to a pole (the products as a loop forms them)
PROBE_INSETS = (BRACKET_INSET, BRACKET_INSET * 1e-3, BRACKET_INSET * 1e-3 * 1e-3)
N_VERIFY = 5  # leading local eigenfunctions checked against the oscillation pattern
INTERLACE_TOL = 1e-12  # relative to max(1, max |lambda|)
CROSSCHECK_TOL = 1e-6  # largest direct-vs-secular deviation spectrum_crosscheck accepts
N_COMPARE = 10  # leading eigenvalues spectrum_crosscheck compares

_log = logging.getLogger(__name__)


def _default_modes(state, coef: np.ndarray | None) -> int:
    """Truncation adapted to the state's own spectral content.

    The eigenfunctions of the linearization concentrate on the scale of the
    reaction density, roughly half the state's shortest scale, so twice the
    state's significant bandwidth is kept (at least 64 modes, at most
    n_points/4 where the Galerkin quadrature stays alias-safe).  coef is
    the state's rfft, or None to take it here.
    """
    n = state.field.grid.n_points
    if n // 4 <= 64:  # the floor of 64 modes reaches the cap without a transform
        return n // 4
    coef = np.abs(rfft(state.field.values) if coef is None else coef)
    top = coef.max()
    significant = np.nonzero(coef > 1e-12 * top)[0]
    bandwidth = int(significant.max()) if significant.size else 0
    return min(n // 4, max(64, 2 * bandwidth))


@dataclass(frozen=True)
class LocalSpectrum:
    """Spectrum of the local problem D psi_xx + A(x) psi = lambda psi.

    lambdas are sorted decreasing.  zero_counts holds the sign changes per
    period of the leading min(5, len(lambdas)) eigenfunctions, the rows the
    oscillation check reads.  vectors = (cos_vecs, sin_vecs, order, back)
    are the eigenvectors as the blocks give them: cosine coefficients
    k = 0..K and sine coefficients k = 1..K in columns, lambdas[i] belonging
    to column order[i] of the two side by side, and the phase that rotates
    them from the axis onto the state.
    """

    lambdas: np.ndarray
    n_points: int
    zero_counts: np.ndarray
    vectors: tuple = field(repr=False)

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only rfft coefficients (norm="forward"), row i of lambdas[i]; built when read."""
        return _coefficient_rows(*self.vectors, self.lambdas.size)

    @property
    def eigenfunctions(self) -> np.ndarray:
        """Read-only (len(lambdas), n_points) grid values, synthesized when
        read; the rows are orthonormal under the grid mean."""
        functions = irfft(self.coefficients, self.n_points)
        functions.flags.writeable = False
        return functions


@dataclass(frozen=True)
class EigenReport:
    """Stability report for one stationary solution.

    nonlocal_eigs (sorted decreasing) are those of the cosine block of L and
    of the purely local sine block; betas align with local.lambdas and are
    exactly 0.0 on the sines.  For an m-modal state (m >= 2) only the
    cosines of wavenumbers k = 0 (mod m) couple: the other period classes
    carry the coarsening modes, on which the nonlocal inhibition does not
    act, their betas are round-off and their local eigenvalues are nonlocal
    ones.  verdict follows the thresholds max nu > 1e-8 (unstable) and
    |max nu| <= 1e-8 (marginal); a nonconstant state always carries a
    translation eigenvalue at zero, so a pattern that is stable modulo
    shifts reports "marginal".  translation_nu is the sine eigenvalue whose
    eigenvector overlaps U_x most (None for the constant state); leading_nu,
    the largest eigenvalue without it, changes sign at folds.
    """

    local: LocalSpectrum
    betas: np.ndarray
    M: float
    nonlocal_eigs: np.ndarray
    verdict: str
    leading_nu: float
    translation_nu: float | None


@dataclass(frozen=True)
class CrosscheckReport:
    """Comparison of the direct and secular spectra (leading eigenvalues).

    ``report`` is the direct-route spectrum that was checked.
    ``interlacing_ok`` says whether its eigenvalues interlace the local
    eigenvalues as a rank-one negative update must, within 1e-12 of the
    spectral scale.
    """

    direct: np.ndarray
    secular: np.ndarray
    max_deviation: float
    n_compared: int
    interlacing_ok: bool
    report: EigenReport


def _zero_counts(functions: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Cyclic sign changes of each row among its significant entries.

    An entry is significant where |f| > max(1e-9 max|row|, floor of the row).
    """
    magnitude = np.abs(functions)
    significant = magnitude > np.maximum(1e-9 * magnitude.max(axis=1), floors)[:, None]
    counts = np.zeros(len(functions), dtype=int)
    for i, (row, keep) in enumerate(zip(functions, significant)):
        positive = row[keep] > 0.0
        # neighbours, then the pair that wraps around the period
        counts[i] = np.count_nonzero(positive[1:] != positive[:-1]) + np.count_nonzero(
            positive[:1] != positive[-1:]
        )
    return counts


def _check_modes(state: SteadyState, n_modes: int | None, coef: np.ndarray | None = None) -> int:
    n = state.field.grid.n_points
    if n_modes is None:
        n_modes = _default_modes(state, coef)
    check_count("n_modes", n_modes, 1)
    if n_modes > n // 4:
        raise ConfigurationError(
            f"n_modes must be in [1, n_points/4], got {n_modes} at n_points={n}"
        )
    return n_modes


def assemble_linearization(state: SteadyState, n_modes: int | None = None) -> np.ndarray:
    """Dense Galerkin matrix of L in the full trigonometric basis.

    Basis ordering matches :func:`mechmorph.energy.hessian_matrix`
    (constant, then alternating cos/sin), of which this matrix is the
    negative: both are one ``linearization_dense(..., "full")`` assembly,
    which checks the split spectra against the unsplit basis.
    """
    grid, n_modes = state.field.grid, _check_modes(state, n_modes)
    exp_u = shifted_exp(state.field.values)
    return linearization_dense(exp_u, grid, state.params, n_modes, "full")


def _coefficient_rows(cos_vecs, sin_vecs, order, back, rows: int) -> np.ndarray:
    """rfft coefficients of the leading ``rows`` eigenvectors in ``order``.

    Block column j <= K is cosine eigenvector j, column K + 1 + j sine
    eigenvector j.  sqrt2 cos k -> 1/sqrt2 and sqrt2 sin k -> -i/sqrt2,
    rotated by ``back`` from the axis onto the state.  Read-only.
    """
    n_modes, cols = sin_vecs.shape[0], order[:rows]
    sine = cols > n_modes
    spec = np.zeros((cols.size, n_modes + 1), dtype=complex)
    spec[~sine] = cos_vecs[:, cols[~sine]].T
    spec[sine, 1:] = -1j * sin_vecs[:, cols[sine] - n_modes - 1].T
    spec[:, 1:] *= back[1 : n_modes + 1] / np.sqrt(2.0)
    spec.flags.writeable = False
    return spec


def _period(coef: np.ndarray, m: int) -> int:
    """p = m when m > 1 and every recentered coefficient off the multiples
    of m is within SYMMETRY_TOL of the largest (U is 1/m-periodic), else 1."""
    off = np.abs(coef)
    top, off[:: max(m, 1)] = off.max(), 0.0
    return m if m > 1 and off.max() <= SYMMETRY_TOL * top else 1


def _class_eigh(matrix: np.ndarray, classes: list) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a matrix that couples no two index classes, one block per
    class; the block eigenvectors are scattered into full-size columns."""
    if len(classes) == 1:
        return np.linalg.eigh(matrix)
    vals, vecs, start = np.empty(len(matrix)), np.zeros_like(matrix), 0
    for idx in classes:
        stop = start + idx.size
        vals[start:stop], vecs[idx, start:stop] = np.linalg.eigh(matrix[np.ix_(idx, idx)])
        start = stop
    return vals, vecs


def _local_split(state: SteadyState, n_modes: int | None):
    """Checked local spectrum from the cosine and sine blocks of L, on
    n_modes modes (``_check_modes``; None takes the default from the same
    rfft of the state that recenters it).

    Returns it with its betas, the cosine parts of L (local block, coupling,
    M; e^U shifted by u_max), u_max, the cosine eigenvalues class by class,
    the sine eigenvalues, the index of the translation mode among them
    (None for the constant state) and the cosine index classes.
    """
    grid, params = state.field.grid, state.params
    # rotate a peak to x = 0, where an even state has real coefficients
    coef = rfft(state.field.values)
    n_modes = _check_modes(state, n_modes, coef)
    m = state.modality
    back = np.exp(1j * np.arange(coef.size) * np.angle(coef[m]) / m) if m else np.ones(coef.size)
    coef = coef * back.conj()
    if np.max(np.abs(coef.imag)) > SYMMETRY_TOL * np.max(np.abs(coef)):
        raise ResolutionError("steady state is not reflection-symmetric about a peak")
    values = irfft(coef.real, grid.n_points)
    exp_u = shifted_exp(values)  # both reflection blocks from one e^U and one rfft
    *cos_parts, sin_local = linearization_parts(exp_u, grid, params, n_modes, "split")
    p, k = _period(coef, m), np.arange(n_modes + 1)  # classes r = min(k mod p, -k mod p)
    classes = [k] if p == 1 else [np.flatnonzero(np.minimum(k % p, -k % p) == r)
                                  for r in range(p // 2 + 1)]
    cos_vals, cos_vecs = _class_eigh(cos_parts[0], classes)
    sin_vals, sin_vecs = _class_eigh(sin_local, [idx[idx > 0] - 1 for idx in classes])
    order = np.argsort(np.concatenate([cos_vals, sin_vals]))[::-1]
    eigvals = np.concatenate([cos_vals, sin_vals])[order]

    checked = order[:N_VERIFY]
    # significance floor per eigenfunction: truncation ripples in the flat
    # exponential tails scale with the energy in the last coefficients
    tail = min(n_modes, max(2, n_modes // 4))
    last = np.column_stack([sin_vecs[-tail:, j - n_modes - 1] if j > n_modes
                            else cos_vecs[-tail:, j] for j in checked])
    functions = irfft(_coefficient_rows(cos_vecs, sin_vecs, order, back, N_VERIFY), grid.n_points)
    counts = _zero_counts(functions, 10.0 * np.linalg.norm(last, axis=0))

    # the oscillation pattern is only checkable for eigenvalues that are
    # numerically isolated: inside degenerate clusters (cos/sin pairs of the
    # constant state, or the exponentially small tunneling splittings of
    # multimodal states) the split of the cluster is arbitrary
    spread = max(1.0, float(eigvals[0] - eigvals[-1]))
    gaps = np.abs(np.diff(eigvals)) > 1e-9 * spread
    isolated = np.concatenate([gaps, [True]]) & np.concatenate([[True], gaps])
    if state.modality <= 1 and eigvals.size >= 2 and eigvals[0] - eigvals[1] <= 1e-10:
        raise ResolutionError("leading local eigenvalue is not simple at this resolution")
    for i in range(checked.size):
        expected = 0 if i == 0 else 2 * ((i + 1) // 2)
        if isolated[i] and counts[i] != expected:
            raise ResolutionError(
                f"local eigenfunction {i} has {counts[i]} sign changes, expected {expected}"
            )
    local = LocalSpectrum(eigvals, grid.n_points, counts, (cos_vecs, sin_vecs, order, back))

    u_max = float(values.max())
    betas = np.concatenate([np.exp(u_max) * (cos_vecs.T @ cos_parts[1]), np.zeros(n_modes)])
    translation = None
    if m:
        # sine coefficients of U_x are -2 pi k a_k for the cosine coefficients a_k
        ux = np.arange(1, n_modes + 1) * coef.real[1 : n_modes + 1]
        translation = int(np.argmax(np.abs(sin_vecs.T @ ux)))
    return local, betas[order], cos_parts, u_max, cos_vals, sin_vals, translation, classes


def local_spectrum(state: SteadyState, n_modes: int | None = None) -> LocalSpectrum:
    """Eigen-decomposition of the local problem, sorted decreasing.

    The leading five eigenfunctions are checked against the oscillation
    pattern (the 0th does not vanish; the pair 2j+1, 2j+2 has 2j+2 zeros
    per period) and the ordering chain; a mismatch raises
    :class:`ResolutionError`.
    """
    return _local_split(state, n_modes)[0]


def _verdict(max_nu: float) -> str:
    if max_nu > MARGINAL_TOL:
        return "unstable"
    if abs(max_nu) <= MARGINAL_TOL:
        return "marginal"
    return "stable"


def nonlocal_spectrum(state: SteadyState, n_modes: int | None = None) -> EigenReport:
    """Direct-route spectrum of the full linearization, with verdict.

    The cosine block of L is diagonalized with its rank-one term; the sine
    block is local, so its eigenvalues enter unchanged, and so do those of
    the uncoupled period classes r != 0 (a local eigenvalue whose coupling
    vanishes is one of the rank-one update).  For a nonconstant state the
    translation mode U_x is a sine eigenvector with an eigenvalue at zero;
    it is excluded from ``leading_nu`` (but not from the verdict
    thresholds).
    """
    (local, betas, (cos_local, c_vec, m_shifted), u_max, cos_vals, sin_vals, translation,
     classes) = _local_split(state, n_modes)
    # undo the max(U) shift: M = kappa / (int e^U)^2
    m_coef = m_shifted * np.exp(-2.0 * u_max)
    if m_coef < np.finfo(float).tiny:
        raise ConfigurationError("state too large to represent the coupling constant M")

    zero = classes[0]
    if len(classes) > 1:
        cos_local, c_vec = cos_local[np.ix_(zero, zero)], c_vec[zero]
    coupled = np.outer(c_vec, c_vec)  # cos_local - M c c^T, built in place
    coupled *= -m_shifted
    coupled += cos_local
    cos_eigs = np.concatenate([np.linalg.eigvalsh(coupled), cos_vals[zero.size :]])
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
        leading_nu=leading_nu,
        translation_nu=translation_nu,
    )


@dataclass(frozen=True)
class SecularStats:
    """What one secular solve did.

    ``brackets`` counts the secular roots, one per distinct coupled local
    eigenvalue; ``pinned`` the roots placed on a local eigenvalue because
    the probes next to it had the wrong sign or collapsed onto it;
    ``verbatim`` the local eigenvalues carried over unchanged; ``sweeps``
    the bisection sweeps, each of which evaluates the secular function once
    for every bracket still open.
    """

    brackets: int
    pinned: int
    verbatim: int
    sweeps: int


@dataclass(frozen=True)
class _SecularSolution:
    """Internal: roots[i] lies in [poles[i+1], poles[i]], the last root below
    poles[-1]; poles are the merged coupled local eigenvalues, decreasing."""

    poles: np.ndarray
    roots: np.ndarray
    verbatim: np.ndarray
    stats: SecularStats

    def all_sorted(self) -> np.ndarray:
        return np.sort(np.concatenate([self.verbatim, self.roots]))[::-1]


def _secular_values(nu, poles, weights, target, work) -> np.ndarray:
    """sum_n weights_n / (poles_n - nu) - target for each nu.

    One (nu x poles) array, written into the leading rows of ``work``; each
    row is summed exactly as the 1-D sum over the poles would be, so a value
    does not depend on which other nu are evaluated with it.
    """
    terms = np.subtract(poles, nu[:, None], out=work[: nu.size])
    with np.errstate(divide="ignore"):
        return np.sum(np.divide(weights, terms, out=terms), axis=1) - target


def _probe(g, poles: np.ndarray, side: float, want_negative: bool):
    """A bracket end next to each pole, on ``side`` of it (+1 above, -1 below).

    Each pole is probed at the PROBE_INSETS in turn until g has the wanted
    sign.  A probe that collapses onto its pole, or three with the wrong
    sign, pin the root to the pole: it coincides with the local eigenvalue
    to machine precision.  Returns the ends, g there and the pinned mask.
    """
    ends = poles.copy()
    values = np.zeros(poles.size)
    found = np.zeros(poles.size, dtype=bool)
    for inset in PROBE_INSETS:
        probes = poles + side * inset
        # rounding is monotone: a probe that collapsed stays collapsed
        idx = np.flatnonzero(~found & (probes != poles))
        if idx.size == 0:
            break
        g_probe = g(probes[idx])
        hit = (g_probe < 0.0) == want_negative
        ends[idx[hit]] = probes[idx[hit]]
        values[idx[hit]] = g_probe[hit]
        found[idx[hit]] = True
    return ends, values, ~found


def _below_lowest(g, lowest: float) -> float:
    """A point below the lowest pole where g < 0 (g -> 0- as nu -> -inf)."""
    span = max(1.0, abs(lowest))
    for _ in range(200):
        lo = lowest - span
        if g(np.array([lo]))[0] < 0.0:
            return lo
        span *= 2.0
    raise BracketError("could not bracket the lowest secular root")


def _bisect_all(g, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, int]:
    """Bisect every bracket together; g(lo) < 0 <= g(hi) (or NaN) on entry.

    A bracket retires with its midpoint once hi - lo <= BISECT_TOL, once
    the midpoint no longer moves, or where g vanishes there.  Returns the
    roots and the number of sweeps.
    """
    roots = np.empty(lo.size)
    active = np.arange(lo.size)
    sweeps = 0
    while active.size:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        done = (b - a <= BISECT_TOL) | (mid <= a) | (mid >= b)
        roots[active[done]] = mid[done]
        active, mid = active[~done], mid[~done]
        if not active.size:
            break
        g_mid = g(mid)
        sweeps += 1
        zero = g_mid == 0.0
        roots[active[zero]] = mid[zero]
        below = g_mid < 0.0
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[~zero]
    return roots, sweeps


def _secular_solve(local: LocalSpectrum, betas: np.ndarray, M: float) -> _SecularSolution:
    if M <= 0:
        raise ConfigurationError(f"M must be positive, got {M}")
    lambdas = np.asarray(local.lambdas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if betas.shape != lambdas.shape:
        raise ConfigurationError("betas must align with local.lambdas")

    decoupled = np.abs(betas) <= BETA_TOL * np.max(np.abs(betas), initial=0.0)
    verbatim = lambdas[decoupled].tolist()
    coupled = zip(lambdas[~decoupled].tolist(), betas[~decoupled].tolist())

    # merge coincident coupled eigenvalues (sorted decreasing already); the
    # shared value stays an eigenvalue through the decoupled combination
    merged: list[list[float]] = []
    for lam, b in coupled:
        if merged and abs(merged[-1][0] - lam) < MERGE_TOL:
            merged[-1][1] = float(np.hypot(merged[-1][1], b))
            verbatim.append(merged[-1][0])
        else:
            merged.append([lam, b])

    verbatim = np.array(verbatim, dtype=float)
    if not merged:
        stats = SecularStats(brackets=0, pinned=0, verbatim=verbatim.size, sweeps=0)
        return _SecularSolution(np.empty(0), np.empty(0), verbatim, stats)

    poles = np.array([lam for lam, _ in merged])
    b = np.array([b for _, b in merged])
    scale = np.max(np.abs(b))
    weights = (b / scale) ** 2
    target = (1.0 / M) / scale / scale
    work = np.empty((poles.size, poles.size))  # no call evaluates more nu than poles

    def g(nu):
        return _secular_values(nu, poles, weights, target, work)

    # root i lies between poles[i+1] (or -inf) and poles[i]: probe below
    # every pole and above every pole but the first
    hi, g_hi, pinned_hi = _probe(g, poles, -1.0, want_negative=False)
    lo, _, pinned_lo = _probe(g, poles[1:], +1.0, want_negative=True)
    lower = np.append(poles[1:], -np.inf)
    lo = np.append(lo, -np.inf)
    pinned_lo = np.append(pinned_lo, False)
    narrow = np.append(poles[:-1] - poles[1:] <= 2 * BRACKET_INSET, False)  # inside the insets

    # a bracket narrower than the insets takes its midpoint; otherwise a
    # root pinned to its lower pole wins over one pinned to its upper pole,
    # and a probe where g vanishes is the root
    roots = poles.copy()
    roots[pinned_lo] = lower[pinned_lo]
    roots[narrow] = 0.5 * (lower[narrow] + poles[narrow])
    pinned = ~narrow & (pinned_lo | pinned_hi)
    bisect = ~(narrow | pinned)
    at_hi = bisect & (g_hi == 0.0)
    roots[at_hi] = hi[at_hi]
    bisect &= ~at_hi
    if bisect[-1]:
        lo[-1] = _below_lowest(g, poles[-1])
    roots[bisect], sweeps = _bisect_all(g, lo[bisect], hi[bisect])

    stats = SecularStats(
        brackets=poles.size,
        pinned=int(np.count_nonzero(pinned)),
        verbatim=verbatim.size,
        sweeps=sweeps,
    )
    return _SecularSolution(poles, roots, verbatim, stats)


def secular_roots(local: LocalSpectrum, betas: np.ndarray, M: float) -> np.ndarray:
    """All nonlocal eigenvalues via the secular equation, sorted decreasing.

    Local eigenvalues with |beta| <= 1e-9 max |beta| are nonlocal
    eigenvalues verbatim and enter the result directly.  Coincident local
    eigenvalues (within 1e-9) that both couple are merged with
    beta <- sqrt(beta_i^2 + beta_j^2); the shared eigenvalue itself then
    also remains a nonlocal eigenvalue (the orthogonal combination
    decouples).  There is one root inside every interval between
    consecutive distinct coupled eigenvalues, plus one below the smallest;
    all of them are bisected together, each sweep evaluating the secular
    function for every open bracket as one array.
    """
    return _secular_solve(local, betas, M).all_sorted()


def _interlaces(lambdas: np.ndarray, nus: np.ndarray) -> bool:
    """Whether lambda_{i+1} - tol <= nu_i <= lambda_i + tol for every i.

    Both are sorted decreasing and of one length: the spectrum nu of a
    symmetric matrix minus a positive rank-one term interlaces the spectrum
    lambda of the matrix.  tol = 1e-12 max(1, max |lambda|).
    """
    tol = INTERLACE_TOL * max(1.0, float(np.max(np.abs(lambdas))))
    return bool(np.all(nus <= lambdas + tol) and np.all(nus[:-1] >= lambdas[1:] - tol))


def spectrum_crosscheck(state: SteadyState, n_modes: int | None = None) -> CrosscheckReport:
    """Compare the direct and secular spectra on the leading eigenvalues.

    Raises :class:`ResolutionError` (with both lists attached) if the
    maximum pairwise deviation over the leading 10 eigenvalues reaches
    1e-6.  Also checks that the direct eigenvalues interlace the
    local ones (L is the local operator minus a positive rank-one term), a
    test of the direct route against the local spectrum of the secular one.
    Logs the :class:`SecularStats` of the secular solve at DEBUG on the
    ``mechmorph.stability`` logger.
    """
    report = nonlocal_spectrum(state, n_modes)
    solution = _secular_solve(report.local, report.betas, report.M)
    _log.debug("spectrum_crosscheck: %s", solution.stats,
               extra={"secular_stats": solution.stats})
    secular = solution.all_sorted()
    direct = report.nonlocal_eigs
    k = min(N_COMPARE, direct.size, secular.size)
    max_dev = float(np.max(np.abs(direct[:k] - secular[:k])))
    interlacing_ok = _interlaces(report.local.lambdas, direct)

    if max_dev >= CROSSCHECK_TOL:
        err = ResolutionError(
            f"spectrum cross-check deviation {max_dev:.3e} exceeds {CROSSCHECK_TOL:g} "
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
