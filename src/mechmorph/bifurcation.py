"""Bifurcation structure of the constant branch.

The constant state loses stability to the mode cos(2 pi n x) at
kappa_n = 1 + 4 pi^2 n^2 D.  Near each such point a pitchfork branch
exists with closed-form normal-form data:

    state(s)  = kappa(s) + s sqrt2 cos(2 pi n x) + s^2 z_amp cos(4 pi n x) + O(s^3)
    kappa(s)  = kappa_n + curvature * s^2 + O(s^3)

where s is the amplitude of the sqrt2 cos(2 pi n x) component,
z_amp = kappa_n / (24 pi^2 n^2 D), and the branch is subcritical
(curvature < 0) exactly for kappa_n < 3/2, i.e. D < 1/(8 pi^2 n^2).

``alpha_pp`` stores the conventional normal-form constant
1/4 - 1/(16 D n^2 pi^2) + 2 D n^2 pi^2.  The measured quadratic
coefficient of kappa versus amplitude along corrected branches is
alpha_pp / 3 (confirmed numerically to three digits at several D and by a
third-order expansion of the reduced equation); the corrected value is
what the predictor uses, while alpha_pp is reported as the classification
constant.  Both share the sign and the type threshold.

Branches are tracked with pseudo-arclength continuation in the even
(cosine) subspace with kappa as an unknown, so folds pose no singularity;
the corrector is the bordered Newton of mechmorph.steady, with the secant
row as its border.
The model is invariant under u(x) = v(n x), D -> n^2 D, so a mode-n branch
at D is continued as the mode-1 branch at n^2 D, compressed by rescale_modal.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._operators import bump_seed, noisy_constant, synthesize_even
from .dynamics import _check_run, _relax_stack
from .energy import bounds
from .errors import ConfigurationError, ConvergenceError, MechmorphError, ResolutionError
from .grid import Field, Grid, make_grid
from .model import ModelParams, check_count
from .stability import MARGINAL_TOL, _spectra, _stack_rows
from .steady import FIRST_STEP, SteadyState, _bordered_newton, _certified, _handoff
from .steady import _rescale_modal

__all__ = [
    "BifPoint",
    "BranchPoint",
    "Branch",
    "SweepCell",
    "SweepResult",
    "critical_kappas",
    "predictor_from_normal_form",
    "continue_branch",
    "sweep",
]

TYPE_TOL = 1e-12
SEED_AMPLITUDE = 0.01  # relative amplitude of the sweep's random seeds
HANDOFF_TOL = 1e-7  # the sweep's steady-state detector (the relaxation's steady_tol)
CORRECTOR_TOL = 1e-11  # the corrector's tol: RMS of its even-projected residual


@dataclass(frozen=True)
class BifPoint:
    """Bifurcation point (constant state, kappa_n) for mode number n."""

    n: int
    D: float
    kappa_n: float
    alpha_pp: float
    z_amp: float
    type: str

    @property
    def curvature(self) -> float:
        """Quadratic coefficient of kappa versus amplitude along the branch."""
        return self.alpha_pp / 3.0


@dataclass(frozen=True)
class BranchPoint:
    """One corrected point on a bifurcating branch (even-symmetric field)."""

    s: float
    kappa: float
    field: Field = field(repr=False)
    amplitude: float
    stable: bool
    leading_nu: float
    energy: float


@dataclass(frozen=True)
class Branch:
    """A continued branch.  ``reason`` is "ExcClass: message" of the
    exception that ended a branch with ``terminated_by`` "failure" or
    "resolution", and None otherwise."""

    origin: BifPoint
    points: list[BranchPoint]
    folds: list[tuple[int, float]]
    terminated_by: str
    reason: str | None


def _threshold(D, n: int = 1):
    """kappa_n = 1 + 4 pi^2 n^2 D, where the constant state loses cos(2 pi n x)."""
    return 1.0 + 4.0 * np.pi**2 * n**2 * D


def critical_kappas(D: float, n_max: int) -> list[BifPoint]:
    """Closed-form bifurcation data for modes n = 1 .. n_max."""
    if not 0 < D < math.inf:
        raise ConfigurationError(f"D must be positive and finite, got {D}")
    check_count("n_max", n_max, 1)
    return [_bifurcation_point(D, n) for n in range(1, n_max + 1)]


def _bifurcation_point(D: float, n: int) -> BifPoint:
    """The closed form of ``critical_kappas`` for mode n alone (D > 0, n >= 1)."""
    kappa_n = _threshold(D, n)
    alpha_pp = 0.25 - 1.0 / (16.0 * D * n**2 * np.pi**2) + 2.0 * D * n**2 * np.pi**2
    if alpha_pp < -TYPE_TOL:
        kind = "subcritical"
    elif alpha_pp > TYPE_TOL:
        kind = "supercritical"
    else:
        kind = "degenerate"
    return BifPoint(n=n, D=float(D), kappa_n=kappa_n, alpha_pp=alpha_pp,
                    z_amp=kappa_n / (24.0 * np.pi**2 * n**2 * D), type=kind)


def predictor_from_normal_form(bp: BifPoint, s: float, grid: Grid | None = None) -> tuple[Field, float]:
    """Second-order branch predictor at amplitude s (|s| <= 0.2 recommended).
    The grid must hold mode n below its Nyquist mode: n <= n_points/2 - 1."""
    grid = grid if grid is not None else make_grid()
    n_modes = grid.n_points // 2 - 1
    if bp.n > n_modes:
        raise ConfigurationError(f"mode {bp.n} needs more than {grid.n_points} grid points")
    coeffs = _predictor_coefficients(bp, s, n_modes)
    return Field(grid, synthesize_even(coeffs[:-1], grid.n_points)), float(coeffs[-1])


def _predictor_coefficients(bp: BifPoint, s: float, n_modes: int) -> np.ndarray:
    coeffs = np.zeros(n_modes + 2)
    kappa = bp.kappa_n + bp.curvature * s**2
    coeffs[0] = kappa
    coeffs[bp.n] = s
    if 2 * bp.n <= n_modes:
        coeffs[2 * bp.n] = s**2 * bp.z_amp / np.sqrt(2.0)
    coeffs[-1] = kappa
    return coeffs


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _ending(exc: MechmorphError) -> tuple[str, str]:
    """terminated_by and reason of a branch ended by a corrected point's error:
    a failed certificate or resolution check means the point is under-resolved."""
    under = isinstance(exc, (ConvergenceError, ResolutionError))
    return "resolution" if under else "failure", _describe(exc)


def continue_branch(
    bp: BifPoint,
    step: float = 0.05,
    max_points: int = 200,
    kappa_range: tuple[float, float] | None = None,
    grid: Grid | None = None,
    n_modes: int | None = None,
) -> Branch:
    """Trace the branch emanating from (constant, kappa_n) at positive amplitude.

    A mode-m branch is the mode-1 branch at m^2 D, corrected in ``n_modes``
    cosine modes (default min(96, n_points/2 - 1), at least 2) and compressed
    m-fold as ``rescale_modal`` does.  Each point is certified once, on the
    compressed state that it keeps, as it is corrected; at m = 1 from the
    corrector's last evaluation of its z.
    The corrector is the bordered Newton of ``newton_steady`` at tolerance
    CORRECTOR_TOL, raised to the residual's round-off floor where that is
    larger.  The first point comes from the normal-form predictor with the
    amplitude pinned by the border row; afterwards a secant predictor is
    used, with kappa free and the pseudo-arclength row as border.  The step
    is halved on corrector failure and regrown (x1.3, capped at the initial
    step) after four easy successes.  Stability is evaluated at every point
    through the full nonlocal spectrum of the m-modal state, taken for a stack
    of corrected points at once (as many as the stack memory bound of
    :mod:`mechmorph.stability` allows, 16 at n_points = 256, and at the loop's
    end), each bit-identical to the point's spectrum alone; the first failed
    one ends the branch there, the later points of its stack corrected in
    vain, and on the first point it raises once its stack is taken.

    ``terminated_by``: "step_limit" (max_points taken), "kappa_bound" (the
    first corrected point past kappa_range, the branch's first included, is
    kept as the last), "reconnect" (the last point is constant within
    1e-6), "failure" (the corrector failed down to step / 64, or a point
    raised another solver error) or "resolution" (a corrected point failed
    the certificate or the peak count of its compression, or its spectrum's
    resolution check, and was dropped); ``reason`` keeps the last two's cause.
    """
    if not 0 < step < math.inf:
        raise ConfigurationError(f"step must be positive and finite, got {step}")
    check_count("max_points", max_points, 1)
    lo, hi = kappa_range if kappa_range is not None else (0.0, math.inf)
    if not lo <= hi:
        raise ConfigurationError(f"kappa_range must be (lo, hi) with lo <= hi, got {kappa_range}")
    grid = grid if grid is not None else make_grid()
    n, m = grid.n_points, bp.n
    if n < 8 * m + 2:
        raise ConfigurationError(f"mode {m} needs at least {8 * m + 2} grid points, got {n}")
    n_modes = min(96, n // 2 - 1) if n_modes is None else n_modes
    check_count("n_modes", n_modes, 2)
    if n_modes > n // 2 - 1:
        raise ConfigurationError(f"n_modes must be in [2, n_points/2 - 1], got {n_modes}")
    unimodal = _bifurcation_point(m**2 * bp.D, 1)

    def certify(z, evaluation) -> SteadyState:
        params = ModelParams(D=unimodal.D, kappa=float(z[-1]))
        if m == 1:  # the corrector's evaluation of z is the state's
            return _certified(grid, params, evaluation)
        return _rescale_modal(Field(grid, evaluation[0]), params, m)

    points: list[BranchPoint] = []
    queue: list[tuple[float, float, SteadyState]] = []  # (s, amplitude, state), spectra pending
    stack_rows = _stack_rows(n)

    def take_spectra() -> tuple[str, str] | None:
        """Points from one stack of the queued spectra, up to the first failure."""
        pending = queue[:]
        queue.clear()
        for (s_coord, amplitude, state), report in zip(pending, _spectra([q[2] for q in pending])):
            if isinstance(report, MechmorphError):
                if not points:
                    raise report
                return _ending(report)
            nu = report.leading_nu
            points.append(BranchPoint(s=s_coord, kappa=state.params.kappa, field=state.field,
                                      amplitude=amplitude, stable=nu <= MARGINAL_TOL,
                                      leading_nu=nu, energy=state.energy))
        return None

    # first point: normal-form predictor, amplitude pinned at s = step
    z_pred = _predictor_coefficients(unimodal, step, n_modes)
    pin = np.zeros(n_modes + 2)
    pin[1] = 1.0
    try:
        z, evaluation = _bordered_newton(z_pred, pin, z_pred, 0.0, grid, unimodal.D, CORRECTOR_TOL)
    except MechmorphError as exc:
        raise ConvergenceError(f"could not correct the first branch point: {exc}") from exc
    s_coord = step
    queue.append((s_coord, float(z[1]), certify(z, evaluation)))
    # the secant pair; the anchor behind the first point is the bifurcation point itself
    z_prev, z_last = _predictor_coefficients(unimodal, 0.0, n_modes), z

    ds = step
    easy = 0
    ending = None  # (terminated_by, reason); a caught error's traceback would hold this frame
    while len(points) + len(queue) < max_points and lo <= z_last[-1] <= hi:
        diff = z_last - z_prev
        tangent = diff / np.linalg.norm(diff)
        z_pred = z_last + tangent * ds
        try:
            z, evaluation = _bordered_newton(z_pred, tangent, z_last, ds, grid, unimodal.D,
                                             CORRECTOR_TOL)
            easy += 1
        except MechmorphError as exc:
            easy = 0
            ds *= 0.5
            if ds < step / 64.0:
                ending = "failure", _describe(exc)
                break
            continue
        try:
            state = certify(z, evaluation)
        except MechmorphError as exc:
            ending = _ending(exc)
            break
        s_coord += ds
        queue.append((s_coord, float(z[1]), state))
        z_prev, z_last = z_last, z
        if easy >= 4:
            ds = min(ds * 1.3, step)
            easy = 0
        span = float(np.max(np.abs(state.field.values - np.mean(state.field.values))))
        if span < 1e-6:
            ending = "reconnect", None
            break
        if len(queue) >= stack_rows and (ending := take_spectra()):
            break
    # the queued points precede whatever ended the loop
    ending = take_spectra() or ending
    if ending is None:
        ending = "step_limit" if lo <= points[-1].kappa <= hi else "kappa_bound", None
    terminated_by, reason = ending

    folds = _detect_folds([p.s for p in points], [p.kappa for p in points])
    return Branch(
        origin=bp, points=points, folds=folds, terminated_by=terminated_by, reason=reason
    )


def _detect_folds(svals, kappas) -> list[tuple[int, float]]:
    """Sign changes of dkappa/ds with the fold kappa refined by a local
    quadratic fit of kappa(s)."""
    if len(svals) < 3:
        return []
    s = np.asarray(svals, dtype=float)
    k = np.asarray(kappas, dtype=float)
    dk = np.diff(k)
    folds = []
    for i in range(dk.size - 1):
        if dk[i] == 0.0 or dk[i + 1] == 0.0:
            continue
        if np.sign(dk[i]) != np.sign(dk[i + 1]):
            tri = slice(i, i + 3)
            a, b, c = np.polyfit(s[tri], k[tri], 2)
            kappa_f = float(c - b**2 / (4.0 * a)) if a != 0.0 else float(k[i + 1])
            folds.append((i + 1, kappa_f))
    return folds


@dataclass(frozen=True)
class SweepCell:
    D: float
    kappa: float
    classification: str  # constant-only | pattern-only | bistable | unknown
    n_outcomes: int
    kappa_c: float  # constant-state instability threshold 1 + 4 pi^2 D
    failures: tuple[str, ...]  # exception class of each seed whose relaxation raised

    @property
    def n_failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class SweepResult:
    cells: list[SweepCell]
    d_values: np.ndarray
    kappa_values: np.ndarray
    overlays: dict


def _classify_cell(args) -> SweepCell:
    (d_val, kappa, trials, child_seed, n_points, t_end) = args
    grid = make_grid(n_points)
    params = ModelParams(D=d_val, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(child_seed))
    seeds = [bump_seed(kappa, grid.nodes)]
    seeds += [noisy_constant(rng, kappa, SEED_AMPLITUDE, n_points) for _ in range(trials)]
    outcomes, failures = set(), []
    starts = [Field(grid, u0) for u0 in seeds]
    for flow in _relax_stack(starts, params, FIRST_STEP, t_end, HANDOFF_TOL):
        try:
            state = _handoff(flow, params, FIRST_STEP, t_end, HANDOFF_TOL)
        except MechmorphError as exc:
            failures.append(type(exc).__name__)
        else:
            outcomes.add("constant" if state.modality == 0 else "pattern")
    # a failed seed could have shown the outcome that was not seen
    if not outcomes or (failures and len(outcomes) < 2):
        classification = "unknown"
    else:
        classification = "bistable" if len(outcomes) == 2 else f"{min(outcomes)}-only"
    return SweepCell(
        D=d_val,
        kappa=kappa,
        classification=classification,
        n_outcomes=len(outcomes),
        kappa_c=_threshold(d_val),
        failures=tuple(failures),
    )


def sweep(
    d_values,
    kappa_values,
    trials: int = 3,
    seed: int = 0,
    n_points: int = 128,
    t_end: float = 400.0,
    workers: int = 1,
) -> SweepResult:
    """Classify each (D, kappa) cell by the outcomes of relaxation runs.

    Each cell runs ``trials`` >= 0 random even perturbations of the constant
    state (relative amplitude SEED_AMPLITUDE) plus one deterministic large
    seed, the bump kappa e^cos(2 pi x) / int e^cos.  Solver failures
    are never raised: ``failures`` lists the exception class of each failed
    seed in seed order (the bump first), ``n_failed`` counts them, and a
    cell with a failed seed is ``unknown`` unless both outcomes were seen.
    A cell relaxes its seeds as one stack, each row bit-identical to its
    seed relaxed alone, with the first step and the step budget ``t_end``
    of :func:`mechmorph.steady.relax_to_steady`.  Each row that the
    detector HANDOFF_TOL stopped then hands over to Newton, in seed order,
    and its RelaxStats is logged then, after the whole stack has finished.
    Cells are independent; ``workers`` must be >= 1, and with more than one
    they are distributed over a process pool.  Results are deterministic for
    a fixed seed regardless of worker count.
    """
    d_values = np.asarray(list(d_values), dtype=float)
    kappa_values = np.asarray(list(kappa_values), dtype=float)
    if d_values.size == 0 or kappa_values.size == 0 or (d_values <= 0).any() or (kappa_values <= 0).any():
        raise ConfigurationError("d_values and kappa_values must be non-empty and positive")
    check_count("trials", trials, 0)
    check_count("workers", workers, 1)
    check_count("seed", seed, 0)
    _check_run(t_end, HANDOFF_TOL)
    reports = [bounds(k) for k in kappa_values]  # refuses a kappa below its floor before any cell
    children = iter(np.random.SeedSequence(seed).spawn(d_values.size * kappa_values.size))
    cells_args = [(float(d_val), float(kappa), trials, next(children), n_points, t_end)
                  for d_val in d_values for kappa in kappa_values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_classify_cell, cells_args))
    else:
        cells = [_classify_cell(a) for a in cells_args]
    overlays = {
        "kappa_c": _threshold(d_values),
        "d_min": np.array([b.d_min for b in reports]),
        "d_max": np.array([b.d_max for b in reports]),
    }
    return SweepResult(cells=cells, d_values=d_values, kappa_values=kappa_values, overlays=overlays)
