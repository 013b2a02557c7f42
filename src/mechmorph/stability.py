"""Linear stability of stationary solutions.

Two independent routes to the spectrum of the linearization

    L h = D h_xx + A(x) h - M C(x) int C(y) h(y) dy,
    A = kappa e^U / int e^U - 1,  C = e^U,  M = kappa / (int e^U)^2.

Steady states are even about a peak, so L splits under the reflection
about it.  The state is recentered (its rfft coefficients rotated by the
phase of harmonic ``modality``) and L is assembled in two blocks from the
Fourier coefficients of e^U: one shifted exponential and one rfft serve
both blocks, and no basis is sampled; the same rfft gives the truncation
K.  The cosine block carries the local part and the whole rank-one
coupling.  The sine block is purely local (int e^U sin = 0) and holds the
translation mode U_x, found by Sturm's oscillation theorem: U_x has m/p - 1
zeros inside the half period of an m-peaked state of period 1/p, so its
eigenvalue is the (m/p)-th largest of the class-0 sines (below).  A
1/m-periodic state (m >= 2 peaks) makes L commute with the shift by 1/m, so
both blocks split further into the Bloch classes of wavenumbers k = +-r
(mod m), one eigensolve each.  Only the class r = 0 meets the coupling
(int e^U cos k = 0 unless m divides k): the classes r != 0 are purely
local, so the strain-conservation inhibition does not act on their
coarsening modes, and there the instability of multimodal states lives;
they keep their local eigenvalues.  The local eigenvectors are kept as the
blocks give them; a spectrum builds the rfft rows of only the leading
N_VERIFY, which the oscillation check synthesizes and counts.

Spectra run in stacks: states of equal (n_points, K, period, modality) share
each transform, assembly and eigensolve, each numpy call computing a row as it
does one state (M is formed per row in floats), so every row and every failed
row's error is its state's alone.  The public functions take stacks of one.

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
from types import SimpleNamespace

import numpy as np

from ._operators import exp_range_error, linearization_dense, linearization_parts, shifted_exp
from .errors import BracketError, ConfigurationError, MechmorphError, ResolutionError
from .grid import irfft, rfft
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
# memory bound of a stack of spectra: beyond one spectrum's, its live matrices,
# three (K + 1)^2 blocks a row at the largest K = n_points/4, hold at most
# 50,000 entries (0.4 MB)
SPECTRUM_STACK_ENTRIES = 50_000

_log = logging.getLogger(__name__)


def _stack_rows(n_points: int) -> int:
    """Rows per stack of spectra on n_points within SPECTRUM_STACK_ENTRIES:
    4 at n_points = 256, 2 at 512 and 1 from 1024 on."""
    return 1 + SPECTRUM_STACK_ENTRIES // (3 * (n_points // 4 + 1) ** 2)


def _default_modes(coef: np.ndarray, n: int) -> int:
    """Truncation K of a state with rfft coef on n points.

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


@dataclass(frozen=True)
class LocalSpectrum:
    """Spectrum of the local problem D psi_xx + A(x) psi = lambda psi.

    lambdas are sorted decreasing.  zero_counts holds the sign changes per
    period of the leading five eigenfunctions, the rows the oscillation
    check reads.  vectors = (cos_vecs, sin_vecs, order, back)
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
        return _coefficient_rows(*(v[None] for v in self.vectors), self.lambdas.size)[0]

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
    shifts reports "marginal".  translation_nu is the eigenvalue of U_x,
    the (m/p)-th largest class-0 sine eigenvalue by Sturm's rule above
    (None for the constant state); leading_nu, the largest eigenvalue
    without it, changes sign at folds.
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
    The significant signs of all rows form one sequence, cut at the rows' ends.
    """
    magnitude = np.abs(functions)
    significant = magnitude > np.maximum(1e-9 * magnitude.max(axis=1), floors)[:, None]
    positive = functions[significant] > 0.0
    sizes = np.count_nonzero(significant, axis=1)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    changes = np.concatenate([[0], np.cumsum(positive[1:] != positive[:-1])])  # before entry j
    counts, kept = np.zeros(len(functions), dtype=int), ends > starts
    first, last = starts[kept], ends[kept] - 1
    # the neighbours within a row, then the pair that wraps around the period
    counts[kept] = changes[last] - changes[first] + (positive[first] != positive[last])
    return counts


def assemble_linearization(state: SteadyState) -> np.ndarray:
    """Dense Galerkin matrix of L in the full trigonometric basis, at the
    spectra's truncation K.

    Basis ordering matches :func:`mechmorph.energy.hessian_matrix`
    (constant, then alternating cos/sin), of which this matrix is the
    negative: both are one ``linearization_dense(..., "full")`` assembly,
    which checks the split spectra against the unsplit basis.
    """
    values, grid = state.field.values, state.field.grid
    k = _default_modes(rfft(values), grid.n_points)
    return linearization_dense(shifted_exp(values), grid, state.params, k, "full")


def _coefficient_rows(cos_vecs, sin_vecs, order, back, rows: int) -> np.ndarray:
    """rfft coefficients of the leading ``rows`` eigenvectors in ``order``, for
    a stack of spectra (a leading axis on every argument).

    Block column j <= K is cosine eigenvector j, column K + 1 + j sine
    eigenvector j.  sqrt2 cos k -> 1/sqrt2 and sqrt2 sin k -> -i/sqrt2,
    rotated by ``back`` from the axis onto the state.  Read-only.
    """
    n_modes, cols = sin_vecs.shape[-1], order[:, :rows]
    sine, b = cols > n_modes, np.arange(len(cols))[:, None]
    spec = np.zeros((*cols.shape, n_modes + 1), dtype=complex)
    spec[~sine] = cos_vecs.swapaxes(1, 2)[b, np.minimum(cols, n_modes)][~sine]
    spec[sine, 1:] = -1j * sin_vecs.swapaxes(1, 2)[b, np.maximum(cols - n_modes - 1, 0)][sine]
    spec[..., 1:] *= back[:, None, 1 : n_modes + 1] / np.sqrt(2.0)
    spec.flags.writeable = False
    return spec


def _period(coef: np.ndarray, m: int) -> np.ndarray:
    """p = m when m > 1 and every recentered coefficient off the multiples
    of m is within SYMMETRY_TOL of the largest (U is 1/m-periodic), else 1;
    one p per row of coef."""
    off = np.abs(coef)
    top, off[..., :: max(m, 1)] = off.max(axis=-1), 0.0
    return np.where((m > 1) & (off.max(axis=-1) <= SYMMETRY_TOL * top), m, 1)


def _class_eigh(matrix: np.ndarray, classes: list) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a stack of matrices that couple no two index classes, one block
    stack per class; the block eigenvectors are scattered into full-size columns."""
    if len(classes) == 1:
        return np.linalg.eigh(matrix)
    vals, vecs, start = np.empty(matrix.shape[:-1]), np.zeros_like(matrix), 0
    for idx in classes:
        stop = start + idx.size
        vals[:, start:stop], vecs[:, idx, start:stop] = np.linalg.eigh(matrix[:, idx[:, None], idx])
        start = stop
    return vals, vecs


def _spectra(states: list[SteadyState]) -> list:
    """Direct-route spectra of steady states: for each, in order, its
    EigenReport or the MechmorphError that it raises alone.

    The states on one grid with one modality are recentered together (one
    rfft, which also gives each state's default K), then the states of equal
    (n_points, K, period, modality) are solved as one stack.
    """
    results, pools, stacks = [None] * len(states), {}, {}
    for i, state in enumerate(states):
        pools.setdefault((state.field.grid.n_points, state.modality), []).append(i)
    for (n, m), index in pools.items():
        coef = rfft(np.array([states[i].field.values for i in index]))
        angle = np.angle(coef[:, m : m + 1])  # of harmonic m, which a peak at x = 0 makes real
        back = np.exp(1j * np.arange(n // 2 + 1) * angle / m) if m else np.ones(coef.shape)
        centered = coef * back.conj()
        asymmetric = np.abs(centered.imag).max(axis=1) > SYMMETRY_TOL * np.abs(centered).max(axis=1)
        for r, (i, p) in enumerate(zip(index, _period(centered, m).tolist())):
            if asymmetric[r]:
                results[i] = ResolutionError("steady state is not reflection-symmetric about a peak")
            else:
                stacks.setdefault((n, _default_modes(coef[r], n), p, m), []).append(
                    (i, states[i], centered[r].real, back[r]))
    for (_, k, p, m), rows in stacks.items():
        index, stack, coef, back = zip(*rows)
        for i, result in zip(index, _stack_spectra(stack, np.array(coef), np.array(back), k, p, m)):
            results[i] = result
    return results


def _stack_spectra(states, coef, back, k: int, p: int, m: int) -> list:
    """Spectra of recentered states (rfft rows ``coef``, phases ``back``) that
    share n_points, K = k, the period p and the modality m: one transform pair,
    one assembly, one eigh per block stack (per class when p > 1), one eigvalsh
    of the coupled stack and stacked ``@`` serve every row."""
    n, rows = states[0].field.grid.n_points, np.arange(len(states))
    values = irfft(coef, n)
    top, bottom = values.max(axis=1), values.min(axis=1)
    shifted = np.exp(values - top[:, None])  # shifted_exp, row by row
    mean = shifted.sum(axis=1) / n
    kappa, D = zip(*((state.params.kappa, state.params.D) for state in states))
    columns = SimpleNamespace(kappa=np.array(kappa)[:, None], D=np.array(D)[:, None])
    cos_local, cos_c, _, sin_local = linearization_parts(
        (shifted, mean[:, None], None), states[0].field.grid, columns, k, "split")
    idx = np.arange(k + 1)  # classes r = min(k mod p, -k mod p)
    classes = [idx] if p == 1 else [np.flatnonzero(np.minimum(idx % p, -idx % p) == r)
                                    for r in range(p // 2 + 1)]
    # at most three (K + 1)^2 matrices a row are live: the sine block is solved
    # first, and the coupled class-0 block cos_local - M c c^T formed in place
    sin_vals, sin_vecs = _class_eigh(sin_local, [c[c > 0] - 1 for c in classes])
    del sin_local
    cos_vals, cos_vecs = _class_eigh(cos_local, classes)
    m_shifted = [kap / mu**2 for kap, mu in zip(kappa, mean.tolist())]  # float powers, as alone
    zero = classes[0]
    coupled, c_zero = (cos_local, cos_c) if p == 1 else (cos_local[:, zero[:, None], zero],
                                                         cos_c[:, zero])
    del cos_local
    for i in rows:  # no view of coupled outlives it
        outer = np.multiply.outer(c_zero[i], c_zero[i])
        outer *= -m_shifted[i]
        coupled[i] += outer
    cos_eigs = np.concatenate([np.linalg.eigvalsh(coupled), cos_vals[:, zero.size :]], axis=1)
    del coupled
    both = np.concatenate([cos_vals, sin_vals], axis=1)
    order = np.argsort(both, axis=1)[:, ::-1]
    eigvals = both[rows[:, None], order]

    # significance floor per eigenfunction: truncation ripples in the flat
    # exponential tails scale with the energy in the last coefficients
    checked = order[:, None, :N_VERIFY]  # column j <= K is cosine vector j, else sine j - K - 1
    b, low = rows[:, None, None], np.arange(-max(2, k // 4), 0)[:, None]
    last = np.where(checked > k, sin_vecs[b, low, np.maximum(checked - k - 1, 0)],
                    cos_vecs[b, low, np.minimum(checked, k)])
    floors = 10.0 * np.linalg.norm(last, axis=1)
    functions = irfft(_coefficient_rows(cos_vecs, sin_vecs, order, back, N_VERIFY), n)
    counts = _zero_counts(functions.reshape(-1, n), floors.ravel()).reshape(floors.shape)
    # the oscillation pattern is only checkable for eigenvalues that are
    # numerically isolated: inside degenerate clusters (cos/sin pairs of the
    # constant state, or the exponentially small tunneling splittings of
    # multimodal states) the split of the cluster is arbitrary
    spread = np.maximum(1.0, eigvals[:, 0] - eigvals[:, -1])
    gaps = np.abs(np.diff(eigvals, axis=1)) > 1e-9 * spread[:, None]
    edge = np.ones((len(states), 1), dtype=bool)
    isolated = np.concatenate([gaps, edge], axis=1) & np.concatenate([edge, gaps], axis=1)
    expected = [2 * ((i + 1) // 2) for i in range(N_VERIFY)]
    wrong = isolated[:, :N_VERIFY] & (counts != expected)
    simple = eigvals[:, 0] - eigvals[:, 1] > 1e-10  # 2K + 1 >= 3 eigenvalues

    betas = np.exp(top)[:, None] * (cos_vecs.swapaxes(1, 2) @ cos_c[:, :, None])[:, :, 0]
    betas = np.concatenate([betas, np.zeros((len(states), k))], axis=1)[rows[:, None], order]
    nonlocal_eigs = np.sort(np.concatenate([cos_eigs, sin_vals], axis=1), axis=1)[:, ::-1]
    # Sturm: U_x is odd and 1/p-periodic with m/p - 1 zeros inside its half
    # period, so it is the (m/p)-th largest class-0 sine eigenvector; class 0
    # comes first in the sine columns, ascending
    translation = zero.size - 1 - m // p
    others = np.delete(sin_vals, translation, axis=1) if m else sin_vals
    leading = np.maximum(cos_eigs.max(axis=1), others.max(axis=1))

    m_coef = np.array(m_shifted) * np.exp(-2.0 * top)  # undo the max(U) shift
    results, tiny = [], np.finfo(float).tiny
    for i, j in zip(rows, wrong.argmax(axis=1).tolist()):
        vectors = (cos_vecs[i], sin_vecs[i], order[i], back[i])
        local = LocalSpectrum(eigvals[i], n, counts[i], vectors)
        error = exp_range_error(max(float(top[i]), -float(bottom[i])))
        if error is None and m <= 1 and not simple[i]:
            error = ResolutionError("leading local eigenvalue is not simple at this resolution")
        elif error is None and wrong[i, j]:
            error = ResolutionError(
                f"local eigenfunction {j} has {counts[i, j]} sign changes, expected {expected[j]}")
        elif error is None and m_coef[i] < tiny:
            error = ConfigurationError("state too large to represent the coupling constant M")
            error.local = local  # the local problem does not need M
        results.append(error or EigenReport(
            local, betas[i], m_coef[i], nonlocal_eigs[i], _verdict(float(nonlocal_eigs[i, 0])),
            float(leading[i]), None if m == 0 else float(sin_vals[i, translation])))
    return results


def local_spectrum(state: SteadyState) -> LocalSpectrum:
    """Eigen-decomposition of the local problem, sorted decreasing.

    The leading five eigenfunctions are checked against the oscillation
    pattern (the 0th does not vanish; the pair 2j+1, 2j+2 has 2j+2 zeros
    per period) and the ordering chain; a mismatch raises
    :class:`ResolutionError`.
    """
    result = _spectra([state])[0]
    if not hasattr(result, "local"):  # a report, or the error of an M out of range has one
        raise result
    return result.local


def _verdict(max_nu: float) -> str:
    if max_nu > MARGINAL_TOL:
        return "unstable"
    if abs(max_nu) <= MARGINAL_TOL:
        return "marginal"
    return "stable"


def nonlocal_spectrum(state: SteadyState) -> EigenReport:
    """Direct-route spectrum of the full linearization, with verdict.

    The cosine block of L is diagonalized with its rank-one term; the sine
    block is local, so its eigenvalues enter unchanged, and so do those of
    the uncoupled period classes r != 0 (a local eigenvalue whose coupling
    vanishes is one of the rank-one update).  For a nonconstant state the
    translation mode U_x is a sine eigenvector with an eigenvalue at zero;
    it is excluded from ``leading_nu`` (but not from the verdict
    thresholds).
    """
    result = _spectra([state])[0]
    if isinstance(result, MechmorphError):
        raise result
    return result


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


def spectrum_crosscheck(state: SteadyState) -> CrosscheckReport:
    """Compare the direct and secular spectra on the leading eigenvalues.

    Raises :class:`ResolutionError` (with both lists attached) if the
    maximum pairwise deviation over the leading 10 eigenvalues reaches
    1e-6.  Also checks that the direct eigenvalues interlace the
    local ones (L is the local operator minus a positive rank-one term), a
    test of the direct route against the local spectrum of the secular one.
    Logs the :class:`SecularStats` of the secular solve at DEBUG on the
    ``mechmorph.stability`` logger.
    """
    report = nonlocal_spectrum(state)
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
