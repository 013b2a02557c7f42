"""Independent numerical oracles used only by the tests.

These deliberately avoid the package's own quadrature and differentiation
routes: integrals use composite Gauss-Legendre panels, Bessel values come
from the defining power series, derivatives of the energy are taken by
central finite differences, Galerkin integrals by sampled trigonometric
bases, zero counts by one loop per function, secular roots by one scalar
bisection per bracket, fixed-step trajectories by the step that
allocates every intermediate array, and peak counts by filling ties with
one loop over the nodes.  The Galerkin assembly from sliding windows, one
kind per call, the full-step branch corrector that synthesizes each
iterate twice and evaluates e^U three times, the coefficient rows of every
local eigenvector scattered by rank, the sweep cell that relaxes its
seeds one at a time, the branch that takes the spectrum of each point
alone, and the existence bound d1 scanned over every mode count are kept as
bit-identity references.  Mode-n branches are
traced at D itself, in the cosine modes of the n-peaked field.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import mechmorph as mm
from mechmorph._operators import (
    EXP_GUARD,
    bump_seed,
    density,
    even_weights,
    noisy_constant,
    project_even,
    shifted_exp,
    synthesize_even,
)
from mechmorph.bifurcation import (
    CORRECTOR_TOL,
    HANDOFF_TOL,
    SEED_AMPLITUDE,
    _detect_folds,
    _predictor_coefficients,
)
from mechmorph.dynamics import MAX_STEP, TrajectorySummary
from mechmorph.errors import (
    AmplitudeOverflowError,
    BracketError,
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    MechmorphError,
    ResolutionError,
    SingularJacobianError,
)
from mechmorph.stability import BETA_TOL, BISECT_TOL, BRACKET_INSET, MARGINAL_TOL, MERGE_TOL
from mechmorph.steady import FLAT_TOL, _bordered_newton, _rescale_modal, _residual


def gauss_legendre_integral(f, n_panels=64, order=10):
    """Composite Gauss-Legendre quadrature of a callable over [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    width = 1.0 / n_panels
    for i in range(n_panels):
        a = i * width
        x = a + 0.5 * width * (nodes + 1.0)
        total += 0.5 * width * np.sum(weights * f(x))
    return total


def bessel_i0(x, terms=40):
    """Modified Bessel I_0(x) from its power series sum_m (x/2)^(2m) / (m!)^2."""
    total = 0.0
    term = 1.0
    for m in range(terms):
        if m > 0:
            term *= (x / 2.0) ** 2 / m**2
        total += term
    return total


def directional_derivative(u, params, psi, eps=1e-5):
    """Central finite difference of the energy along psi."""
    plus = mm.energy(mm.Field(u.grid, u.values + eps * psi), params)
    minus = mm.Field(u.grid, u.values - eps * psi)
    return (plus - mm.energy(minus, params)) / (2.0 * eps)


def second_directional_derivative(u, params, psi, eps=3e-4):
    """Central second finite difference of the energy along psi."""
    plus = mm.energy(mm.Field(u.grid, u.values + eps * psi), params)
    minus = mm.energy(mm.Field(u.grid, u.values - eps * psi), params)
    center = mm.energy(u, params)
    return (plus - 2.0 * center + minus) / eps**2


def random_smooth_field(grid, rng, amplitude=1.0, n_modes=8, mean=0.0):
    """Band-limited random field with the given peak amplitude."""
    x = grid.nodes
    values = np.zeros(grid.n_points)
    for k in range(1, n_modes + 1):
        values += rng.standard_normal() * np.cos(2.0 * np.pi * k * x)
        values += rng.standard_normal() * np.sin(2.0 * np.pi * k * x)
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return mm.Field(grid, mean + values)


def trig_basis(grid, n_modes, kind="full"):
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


def sampled_linearization_parts(values, grid, params, n_modes, kind):
    """Local block, coupling vector and M of L as grid sums over ``trig_basis``.

    Same shift by max(U) as ``mechmorph._operators.linearization_parts``.
    """
    basis, mu = trig_basis(grid, n_modes, kind)
    shifted = np.exp(values - values.max())
    mean_c = shifted.mean()
    a = params.kappa * shifted / mean_c - 1.0
    local = np.diag(-params.D * mu) + (basis * a) @ basis.T / grid.n_points
    return local, basis @ shifted / grid.n_points, params.kappa / mean_c**2


def _moments(coef, lo, hi, n):
    """Fourier coefficients c_m for m = lo..hi from the rfft half: c_m has
    period n in m and c_{-m} = conj(c_m) for a real function."""
    m = np.arange(lo, hi + 1) % n
    upper = m > n // 2
    out = coef[np.where(upper, n - m, m)]
    return np.where(upper, out.conj(), out)


def window_linearization_parts(values, grid, params, n_modes, kind):
    """The Galerkin parts of L as assembled one kind per call.

    kind "even", "odd" (sqrt2 sin k, k = 1..n_modes) or "full"; each call
    takes its own shifted exponential and rfft, and the Toeplitz and Hankel
    matrices are ``sliding_window_view`` windows of the moment sequence.
    Returns (local block, coupling vector, M) with the max(U) shift.
    """
    n, k = grid.n_points, n_modes
    shifted, mean_c, _ = shifted_exp(values)
    c_hat = np.fft.rfft(shifted, norm="forward")
    a_hat = params.kappa / mean_c * c_hat
    a_hat[0] -= 1.0
    seq = _moments(a_hat, -k, 2 * k, n)
    re, im = seq.real, seq.imag

    def toeplitz(part, cols):
        return sliding_window_view(part, cols)[:, ::-1]

    def hankel(part, cols):
        return sliding_window_view(part, cols)

    freq = np.arange(k + 1)
    mu = (2.0 * np.pi * freq) ** 2
    w = even_weights(n, k)
    scale = w / np.sqrt(2.0)
    if kind != "odd":
        cos = toeplitz(re[: 2 * k + 1], k + 1) + hankel(re[k:], k + 1)
        cos *= scale
        cos *= scale[:, None]
        cos_c = w * c_hat[: k + 1].real
    if kind != "even":
        sin = toeplitz(re[1 : 2 * k], k) - hankel(re[k + 2 :], k)
        sin_c = -np.sqrt(2.0) * c_hat[1 : k + 1].imag
    if kind == "even":
        local, c_vec = cos, cos_c
    elif kind == "odd":
        local, c_vec, mu = sin, sin_c, mu[1:]
    else:
        cross = (toeplitz(im[: 2 * k], k) - hankel(im[k + 1 :], k)) * scale[:, None]
        order = np.concatenate([[0], np.stack([freq[1:], freq[1:] + k], axis=1).ravel()])
        local = np.block([[cos, cross], [cross.T, sin]])[np.ix_(order, order)]
        c_vec = np.concatenate([cos_c, sin_c])[order]
        mu = np.repeat(mu, 2)[1:]
    local[np.diag_indices_from(local)] -= params.D * mu
    return local, c_vec, params.kappa / mean_c**2


def evaluated(z, grid, D):
    """z and the evaluation that ``steady._bordered_newton`` returns with it,
    computed as ``mm.SteadyState`` computes its own (``steady._residual``)."""
    values = synthesize_even(z[:-1], grid.n_points)
    return z, _residual(values, grid, mm.ModelParams(D=D, kappa=float(z[-1])))


def two_pass_corrector_solve(z0, tangent, anchor, ds, grid, D, tol, history=None):
    """The branch corrector with full Newton steps, a fixed tolerance
    CORRECTOR_TOL and at most 12 iterations, evaluating each iterate in two
    passes; ``tol`` and ``history`` are taken and ignored, so that it can
    stand in for ``steady._bordered_newton``.  The evaluation it returns
    with z is the certificate's own (``evaluated``).

    The residual pass synthesizes the field and evaluates e^U for the
    density; the Jacobian pass synthesizes it again and evaluates e^U for
    the assembly and again for the kappa column.  Monkeypatched over the
    corrector, it must leave every branch point unchanged where the
    round-off floor is below CORRECTOR_TOL and full steps converge.
    """
    n_modes, n_unknowns = z0.size - 2, z0.size

    def residual(z):
        params = mm.ModelParams(D=D, kappa=float(z[-1]))
        values = synthesize_even(z[:-1], grid.n_points)
        uxx = np.fft.irfft(
            -grid.laplacian_eigenvalues * np.fft.rfft(values, norm="forward"),
            grid.n_points,
            norm="forward",
        )
        rhs = params.D * uxx - values + params.kappa * density(values)
        return project_even(rhs, n_modes)

    z = z0.copy()
    for _ in range(12):
        proj = residual(z)
        res_norm = float(np.linalg.norm(proj))
        norm_eq = float(tangent @ (z - anchor)) - ds
        if res_norm < CORRECTOR_TOL and abs(norm_eq) < 1e-12:
            return evaluated(z, grid, D)
        kappa = float(z[-1])
        if kappa <= 0:
            raise ConvergenceError("corrector left the kappa > 0 domain")
        params = mm.ModelParams(D=D, kappa=kappa)
        vals = synthesize_even(z[:-1], grid.n_points)
        jac = np.empty((n_unknowns, n_unknowns))
        local, c_vec, m_coef = window_linearization_parts(
            vals, grid, params, n_modes, "even"
        )
        jac[:-1, :-1] = local - m_coef * np.outer(c_vec, c_vec)
        jac[:-1, -1] = project_even(density(vals), n_modes)
        jac[-1, :] = tangent
        rhs = -np.concatenate([proj, [norm_eq]])
        try:
            z = z + np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError("singular extended Jacobian") from exc
        if not np.all(np.isfinite(z)):
            raise ConvergenceError("corrector diverged")
    raise ConvergenceError("corrector did not converge")


def mode_n_branch(bp, step, max_points, kappa_range, grid):
    """``mm.continue_branch`` of a mode-n ``bp`` run at D on the n-peaked field.

    The corrector solves min(96, n_points/2 - 1) cosine modes at D, of which
    only the multiples of n can be nonzero; the predictor fills coefficients
    n and 2n, the first point pins coefficient n, and the amplitude is that
    coefficient.  The step control and the ends are those of the package,
    without the reconnect check; a point's errors other than a failed
    certificate propagate.
    """
    lo, hi = kappa_range
    n_modes = min(96, grid.n_points // 2 - 1)

    def make_point(z, s):
        params = mm.ModelParams(D=bp.D, kappa=float(z[-1]))
        state = mm.SteadyState(mm.Field(grid, synthesize_even(z[:-1], grid.n_points)), params)
        nu = mm.nonlocal_spectrum(state).leading_nu
        return mm.BranchPoint(s=s, kappa=params.kappa, field=state.field, amplitude=float(z[bp.n]),
                              stable=nu <= MARGINAL_TOL, leading_nu=nu, energy=state.energy)

    z_pred = _predictor_coefficients(bp, step, n_modes)
    pin = np.zeros(n_modes + 2)
    pin[bp.n] = 1.0
    zs = [_bordered_newton(z_pred, pin, z_pred, 0.0, grid, bp.D, CORRECTOR_TOL)[0]]
    points = [make_point(zs[0], step)]
    z_origin = np.zeros(n_modes + 2)
    z_origin[[0, -1]] = bp.kappa_n
    terminated_by, reason, ds, easy = "step_limit", None, step, 0
    while len(points) < max_points and lo <= points[-1].kappa <= hi:
        diff = zs[-1] - (zs[-2] if len(zs) >= 2 else z_origin)
        tangent = diff / np.linalg.norm(diff)
        try:
            z = _bordered_newton(zs[-1] + tangent * ds, tangent, zs[-1], ds, grid, bp.D,
                                 CORRECTOR_TOL)[0]
            easy += 1
        except MechmorphError as exc:
            easy, ds = 0, ds * 0.5
            if ds < step / 64.0:
                terminated_by, reason = "failure", f"{type(exc).__name__}: {exc}"
                break
            continue
        try:
            points.append(make_point(z, points[-1].s + ds))
        except ConvergenceError as exc:
            terminated_by, reason = "resolution", f"{type(exc).__name__}: {exc}"
            break
        zs.append(z)
        if easy >= 4:
            ds, easy = min(ds * 1.3, step), 0
    if terminated_by == "step_limit" and not lo <= points[-1].kappa <= hi:
        terminated_by = "kappa_bound"
    folds = _detect_folds([p.s for p in points], [p.kappa for p in points])
    return mm.Branch(origin=bp, points=points, folds=folds, terminated_by=terminated_by,
                     reason=reason)


def per_point_branch(bp, step=0.05, max_points=200, kappa_range=None, grid=None):
    """``mm.continue_branch`` with the spectrum of each corrected point taken
    alone (``mm.nonlocal_spectrum``) before the next point is corrected.

    The corrector, certificate, step control and ends are the package's;
    a point whose certificate or spectrum raises ends the branch there, and
    the first point's error propagates.
    """
    lo, hi = kappa_range if kappa_range is not None else (0.0, np.inf)
    grid = grid if grid is not None else mm.make_grid()
    n, m = grid.n_points, bp.n
    n_modes = min(96, n // 2 - 1)
    unimodal = mm.critical_kappas(m**2 * bp.D, 1)[0]

    def make_point(z, s):
        params = mm.ModelParams(D=unimodal.D, kappa=float(z[-1]))
        field = mm.Field(grid, synthesize_even(z[:-1], n))
        state = mm.SteadyState(field, params) if m == 1 else _rescale_modal(field, params, m)
        nu = mm.nonlocal_spectrum(state).leading_nu
        return mm.BranchPoint(s=s, kappa=float(z[-1]), field=state.field, amplitude=float(z[1]),
                              stable=nu <= MARGINAL_TOL, leading_nu=nu, energy=state.energy)

    z_pred = _predictor_coefficients(unimodal, step, n_modes)
    pin = np.zeros(n_modes + 2)
    pin[1] = 1.0
    z = _bordered_newton(z_pred, pin, z_pred, 0.0, grid, unimodal.D, CORRECTOR_TOL)[0]
    points = [make_point(z, step)]
    zs = [_predictor_coefficients(unimodal, 0.0, n_modes), z]
    terminated_by, reason, ds, easy = "step_limit", None, step, 0
    while len(points) < max_points and lo <= points[-1].kappa <= hi:
        diff = zs[-1] - zs[-2]
        tangent = diff / np.linalg.norm(diff)
        try:
            z = _bordered_newton(zs[-1] + tangent * ds, tangent, zs[-1], ds, grid, unimodal.D,
                                 CORRECTOR_TOL)[0]
            easy += 1
        except MechmorphError as exc:
            easy, ds = 0, ds * 0.5
            if ds < step / 64.0:
                terminated_by, reason = "failure", f"{type(exc).__name__}: {exc}"
                break
            continue
        try:
            point = make_point(z, points[-1].s + ds)
        except MechmorphError as exc:
            under = isinstance(exc, (ConvergenceError, ResolutionError))
            terminated_by = "resolution" if under else "failure"
            reason = f"{type(exc).__name__}: {exc}"
            break
        points.append(point)
        zs.append(z)
        if easy >= 4:
            ds, easy = min(ds * 1.3, step), 0
        if float(np.max(np.abs(point.field.values - np.mean(point.field.values)))) < 1e-6:
            terminated_by = "reconnect"
            break
    if terminated_by == "step_limit" and not lo <= points[-1].kappa <= hi:
        terminated_by = "kappa_bound"
    folds = _detect_folds([p.s for p in points], [p.kappa for p in points])
    return mm.Branch(origin=bp, points=points, folds=folds, terminated_by=terminated_by,
                     reason=reason)


def eager_coefficient_rows(cos_vecs, sin_vecs, order, back):
    """rfft coefficients of every block eigenvector, in the sorted ``order``.

    All rows at once, each block eigenvector scattered to its rank: sqrt2
    cos k -> 1/sqrt2 and sqrt2 sin k -> -i/sqrt2, rotated by ``back`` from
    the axis onto the state.
    """
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    n_modes = sin_vecs.shape[0]
    spec = np.zeros((order.size, n_modes + 1), dtype=complex)
    spec[rank[: n_modes + 1]] = cos_vecs.T
    spec[rank[n_modes + 1 :], 1:] = -1j * sin_vecs.T
    spec[:, 1:] *= back[1 : n_modes + 1] / np.sqrt(2.0)
    return spec


def count_sign_changes(values, floor=0.0):
    """Cyclic sign changes of one function among its entries above
    max(1e-9 max|values|, floor)."""
    threshold = max(1e-9 * np.max(np.abs(values)), floor)
    significant = np.abs(values) > threshold
    signs = np.sign(values[significant])
    if signs.size == 0:
        return 0
    return int(np.sum(signs != np.roll(signs, 1)))


def loop_turning_directions(v):
    """Signs of v[j+1] - v[j] on the circle, exact ties filled node by node
    with the previous nonzero direction (leading ties: the wrapped last)."""
    n = v.size
    direction = np.sign(np.roll(v, -1) - v)
    last = 0.0
    for j in range(n):
        if direction[j] == 0.0:
            direction[j] = last
        else:
            last = direction[j]
    if last == 0.0:
        return direction
    for j in range(n):
        if direction[j] == 0.0:
            direction[j] = last
        else:
            break
    return direction


def reference_count_modes(u):
    """``count_modes`` with the loop fill of ties: strict local maxima over
    the periodic index set after pruning extrema pairs closer than
    FLAT_TOL * (max - min)."""
    v = u.values
    span = float(v.max() - v.min())
    if span < FLAT_TOL:
        return 0
    direction = loop_turning_directions(v)
    flips = np.nonzero(direction != np.roll(direction, 1))[0]
    values = [float(v[j]) for j in flips]
    kinds = [bool(direction[j] < 0) for j in flips]  # True = maximum
    if not kinds:
        return 0
    tol = FLAT_TOL * span
    while len(kinds) > 2:
        gaps = [abs(values[i] - values[(i + 1) % len(values)]) for i in range(len(values))]
        i = int(np.argmin(gaps))
        if gaps[i] >= tol:
            break
        for idx in sorted((i, (i + 1) % len(values)), reverse=True):
            del values[idx]
            del kinds[idx]
    if len(kinds) == 2 and abs(values[0] - values[1]) < tol:
        return 0
    return sum(kinds)


def d1_scan(kappa):
    """(d1, arg-max N) by scanning N = 1, 2, ... until the summand has
    decreased for 10 consecutive N past a positive running max."""
    best, best_n, decreasing, n = -np.inf, 1, 0, 1
    while decreasing < 10 or best <= 0.0:
        log4n = np.log(4.0 * n)
        value = (kappa * n * (np.sqrt(2.0) - 1.0) - log4n) / (4.0 * np.pi**2 * n**2 * log4n)
        if value > best:
            best, best_n, decreasing = value, n, 0
        else:
            decreasing += 1
        n += 1
    return float(best), best_n


def density_form_hessian(u, params, n_modes):
    """Energy Hessian over the full trigonometric basis, in density form.

    Entries (1 + D mu_i) delta_ij - kappa (int f_i f_j p - int f_i p int f_j p)
    with p = e^u / int e^u, basis ordered as in ``mm.hessian_matrix``
    (constant, then sqrt2 cos / sqrt2 sin pairs).  The package assembles the
    same matrix as -L from A, C and M instead.
    """
    x = u.grid.nodes
    rows, mu = [np.ones_like(x)], [0.0]
    for k in range(1, n_modes + 1):
        phase = 2.0 * np.pi * k * x
        rows += [np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)]
        mu += [(2.0 * np.pi * k) ** 2] * 2
    basis = np.array(rows)
    p = np.exp(u.values - u.values.max())
    p /= p.mean()
    w = (basis * p) @ basis.T / x.size
    v = basis @ p / x.size
    return np.diag(1.0 + params.D * np.array(mu)) - params.kappa * (w - np.outer(v, v))


def overlap_translation(state, report):
    """(translation_nu, leading_nu) of a nonlocal spectrum, with the
    translation mode taken as the sine eigenvector that overlaps U_x most.

    The sine coefficients of U_x are -2 pi k a_k for the recentered cosine
    coefficients a_k; leading_nu is the largest eigenvalue left when one
    copy of translation_nu is taken out.
    """
    _, sin_vecs, order, back = report.local.vectors
    k = sin_vecs.shape[0]
    coef = (np.fft.rfft(state.field.values) * back.conj()).real
    ux = np.arange(1, k + 1) * coef[1 : k + 1]
    column = int(np.argmax(np.abs(sin_vecs.T @ ux)))
    # lambdas[i] belongs to column order[i] of the cosine and sine columns side by side
    translation = report.local.lambdas[np.flatnonzero(order == k + 1 + column)[0]]
    others = list(report.nonlocal_eigs)
    others.remove(translation)
    return float(translation), float(max(others))


def unshifted_coupling(state, local):
    """beta_n = int e^U psi_n over the local eigenfunctions, and M = kappa / (int e^U)^2."""
    c = np.exp(state.field.values)
    betas = np.array([np.mean(c * f) for f in local.eigenfunctions])
    return betas, state.params.kappa / np.mean(c) ** 2


def _bisect(g, lo, hi):
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if np.sign(glo) == np.sign(ghi):
        raise BracketError(f"no sign change in bracket ({lo:.12g}, {hi:.12g})")
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


def scalar_secular_roots(local, betas, M):
    """All nonlocal eigenvalues by one scalar bisection per secular bracket.

    The same rules as ``mm.secular_roots`` (verbatim carry-over, merge of
    coincident coupled eigenvalues, probes 1e-10, 1e-13 and 1e-16 inside
    each pole, pinning, midpoint of a bracket narrower than the probes),
    with the secular function evaluated one nu at a time.  Sorted
    decreasing.
    """
    if M <= 0:
        raise ConfigurationError(f"M must be positive, got {M}")
    lambdas = np.asarray(local.lambdas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    decoupled = np.abs(betas) <= BETA_TOL * np.max(np.abs(betas), initial=0.0)
    values = list(lambdas[decoupled])
    merged = []
    for lam, b in zip(lambdas[~decoupled], betas[~decoupled]):
        if merged and abs(merged[-1][0] - lam) < MERGE_TOL:
            prev_lam, prev_b = merged[-1]
            merged[-1] = (prev_lam, float(np.hypot(prev_b, b)))
            values.append(prev_lam)
        else:
            merged.append((lam, float(b)))
    if not merged:
        return np.sort(np.asarray(values))[::-1]

    lam_b = np.array([lam for lam, _ in merged])
    scale = max(abs(b) for _, b in merged)
    b_norm = np.array([b / scale for _, b in merged])
    target = (1.0 / M) / scale / scale

    def g(nu):
        with np.errstate(divide="ignore"):
            return float(np.sum(b_norm**2 / (lam_b - nu)) - target)

    def shrink_towards(endpoint, sign, want_negative):
        inset = BRACKET_INSET
        while inset > 1e-18:
            probe = endpoint + sign * inset
            if probe == endpoint:
                return endpoint, True
            if (g(probe) < 0.0) == want_negative:
                return probe, False
            inset *= 1e-3
        return endpoint, True

    for upper, lower in zip(lam_b[:-1], lam_b[1:]):
        if upper - lower <= 2 * BRACKET_INSET:
            values.append(0.5 * (lower + upper))
            continue
        lo, pinned_lo = shrink_towards(lower, +1.0, want_negative=True)
        hi, pinned_hi = shrink_towards(upper, -1.0, want_negative=False)
        if pinned_lo:
            values.append(lower)
        elif pinned_hi:
            values.append(upper)
        else:
            values.append(_bisect(g, lo, hi))
    lowest = lam_b[-1]
    hi, pinned = shrink_towards(lowest, -1.0, want_negative=False)
    if pinned:
        values.append(lowest)
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
        values.append(_bisect(g, lo, hi))
    return np.sort(np.asarray(values))[::-1]


class _Point(NamedTuple):
    u_hat: np.ndarray
    values: np.ndarray
    density: np.ndarray  # e^u / int e^u
    energy: float


class ReferenceStepper:
    """Exponential-Euler steps that allocate every intermediate array.

    J is summed from the gradient weights and the grid mean of u^2; the
    exp() guard takes max |u| from its own pass over the values.
    """

    def __init__(self, grid, params, dt):
        if not (dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if dt > MAX_STEP:
            raise ConfigurationError(f"dt = {dt} exceeds the stability guard {MAX_STEP:g}")
        self.grid = grid
        self.params = params
        self._decay = -(1.0 + params.D * grid.laplacian_eigenvalues)
        w = np.full(grid.n_points // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        self._grad_weights = w * grid.laplacian_eigenvalues
        self._factors = {}

    def start(self, values):
        return self.point(np.fft.rfft(values, norm="forward"), values)

    def point(self, u_hat, values):
        m = float(np.abs(values).max())
        if m > EXP_GUARD:
            raise AmplitudeOverflowError(
                f"max |u| = {m:.3g} exceeds the exp() range guard ({EXP_GUARD:g})"
            )
        top = float(values.max())
        shifted = np.exp(values - top)
        mean = float(shifted.sum()) / values.size
        log_int = top + float(np.log(mean))
        grad_sq = float((self._grad_weights * np.abs(u_hat) ** 2).sum())
        mean_sq = float((values**2).sum()) / values.size
        energy = 0.5 * self.params.D * grad_sq + 0.5 * mean_sq - self.params.kappa * log_int
        return _Point(u_hat, values, shifted / mean, energy)

    def advance(self, p, h):
        if h not in self._factors:
            factor = np.exp(self._decay * h)
            self._factors[h] = factor, (factor - 1.0) / self._decay
        factor, weight = self._factors[h]
        reaction = self.params.kappa * p.density
        u_hat = factor * p.u_hat + weight * np.fft.rfft(reaction, norm="forward")
        return u_hat, np.fft.irfft(u_hat, self.grid.n_points, norm="forward")


def reference_simulate(u0, params, t_end, dt=1e-3, record_every=100, steady_tol=1e-9):
    """``mm.simulate`` with ``ReferenceStepper``: a finiteness pass, a
    separate max |u| for the exp() guard, and the detector rate at every
    step."""
    if not (t_end > 0.0):
        raise ConfigurationError(f"t_end must be positive, got {t_end}")
    if record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {record_every}")
    stepper = ReferenceStepper(u0.grid, params, dt)
    # the least N with N dt >= t_end, a quotient within a few ulps of an
    # integer counting as that integer
    nearest = round(t_end / dt)
    exact = nearest >= 1 and abs(t_end / dt - nearest) <= 4.0 * np.finfo(float).eps * nearest
    n_steps = nearest if exact else math.ceil(t_end / dt)

    p = stepper.start(u0.values.copy())
    times, masses, energies, max_values, min_values = [], [], [], [], []
    max_increment = 0.0
    converged = False
    step = 0

    def record(t):
        times.append(t)
        masses.append(float(p.values.mean()))
        energies.append(p.energy)
        max_values.append(float(p.values.max()))
        min_values.append(float(p.values.min()))

    record(0.0)
    while step < n_steps:
        u_hat, values = stepper.advance(p, dt)
        step += 1
        if not np.isfinite(values).all():
            raise DivergenceError(
                f"simulation diverged at t = {step * dt:.6g}",
                last_state=mm.Field(u0.grid, p.values),
                t=step * dt,
            )
        new = stepper.point(u_hat, values)
        max_increment = max(max_increment, new.energy - p.energy)
        rate = float(np.abs(new.values - p.values).max()) / dt
        p = new
        if step % record_every == 0 or step == n_steps:
            record(step * dt)
        if rate < steady_tol:
            converged = True
            if times[-1] != step * dt:
                record(step * dt)
            break

    return TrajectorySummary(
        times=np.asarray(times),
        masses=np.asarray(masses),
        energies=np.asarray(energies),
        max_values=np.asarray(max_values),
        min_values=np.asarray(min_values),
        final_state=mm.Field(u0.grid, p.values),
        step_count=step,
        converged=converged,
        max_energy_increment=max_increment,
    )


def reference_classify_cell(d_val, kappa, trials, child_seed, n_points, t_end):
    """A sweep cell with its seeds relaxed one at a time by
    ``mm.relax_to_steady``, in seed order (the bump first); the arguments
    are those of ``bifurcation._classify_cell``."""
    grid = mm.make_grid(n_points)
    params = mm.ModelParams(D=d_val, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(child_seed))
    seeds = [bump_seed(kappa, grid.nodes)]
    for _ in range(trials):
        seeds.append(noisy_constant(rng, kappa, SEED_AMPLITUDE, n_points))
    outcomes = set()
    failures = []
    for u0 in seeds:
        try:
            state = mm.relax_to_steady(mm.Field(grid, u0), params, t_end=t_end,
                                       steady_tol=HANDOFF_TOL)
        except MechmorphError as exc:
            failures.append(type(exc).__name__)
            continue
        outcomes.add("constant" if state.modality == 0 else "pattern")
    if not outcomes or (failures and len(outcomes) < 2):
        classification = "unknown"
    elif outcomes == {"constant"}:
        classification = "constant-only"
    elif outcomes == {"pattern"}:
        classification = "pattern-only"
    else:
        classification = "bistable"
    return mm.SweepCell(
        D=d_val,
        kappa=kappa,
        classification=classification,
        n_outcomes=len(outcomes),
        kappa_c=1.0 + 4.0 * np.pi**2 * d_val,
        failures=tuple(failures),
    )
