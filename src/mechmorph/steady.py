"""Stationary solutions of 0 = D U_xx - U + kappa e^U / int e^U.

The constant state U = kappa always exists.  Nonconstant states are found
either by damped Newton iteration restricted to the even (cosine) subspace,
which removes the translation zero mode, or by relaxing the gradient flow
and polishing the result.  That Newton is bordered, kappa pinned by its
border row; with a secant row it is the branch corrector of
:mod:`mechmorph.bifurcation`.  The relaxation takes energy-controlled
adaptive exponential-Euler steps (see :mod:`mechmorph.dynamics`): fixed
points of the scheme are exact steady states for any step, and Newton
polishes the end state, so the step is set by the energy alone, not by
trajectory accuracy.  Every stationary solution carries mass
int U = kappa; this is verified a posteriori rather than imposed.

A :class:`SteadyState` computes its certificate (residual, modality,
energy) from its field when it is built; every solver returns one built
from the field it found.

``relax_to_steady`` logs a :class:`RelaxStats` record at DEBUG on the
``mechmorph.steady`` logger, and so does each seed of a sweep cell, whose
seeds relax as one stack and hand over to Newton one at a time.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from ._operators import (
    energy_weights,
    even_part,
    evolution_rhs,
    free_energy,
    linearization_dense,
    project_even,
    residual_floor,
    shifted_exp,
    synthesize_even,
)
from .dynamics import _relax_stack
from .errors import (
    ConfigurationError, ConvergenceError, MechmorphError, ResolutionError, SingularJacobianError,
)
from .grid import Field, Grid, integrate, make_grid, rfft
from .model import ModelParams, check_count

__all__ = [
    "RelaxStats",
    "SteadyState",
    "constant_state",
    "newton_steady",
    "relax_to_steady",
    "rescale_modal",
    "count_modes",
]

FLAT_TOL = 1e-7  # below this peak-to-peak range a field counts as constant
MASS_TOL = 1e-6
RESIDUAL_CERT = 1e-8  # certification threshold for SteadyState
NEWTON_MAX_ITER = 50
FIRST_STEP = 1e-3  # first step of the relaxation flow, unless a caller sets dt

_log = logging.getLogger(__name__)


def _residual(values: np.ndarray, grid: Grid, params: ModelParams):
    """The full-grid stationary residual, its RMS (the norm that is
    certified) and ``shifted_exp(values)``, which the density came from."""
    exp_u = shifted_exp(values)
    residual = evolution_rhs(values, exp_u[0] / exp_u[1], grid, params)
    return residual, float(np.sqrt(np.mean(residual**2))), exp_u


@dataclasses.dataclass(frozen=True)
class SteadyState:
    """A Field certified as a stationary solution of the given parameters.

    The certificate is computed from the field, never passed in:
    residual_norm is the RMS of the full-grid stationary residual, modality
    ``count_modes(field)`` (0 for the constant state) and energy J(field).
    Raises ConvergenceError for residual_norm >= RESIDUAL_CERT and
    ResolutionError for |int U - kappa| >= MASS_TOL.
    """

    field: Field
    params: ModelParams
    residual_norm: float = dataclasses.field(init=False)
    modality: int = dataclasses.field(init=False)
    energy: float = dataclasses.field(init=False)

    def __post_init__(self):
        _, residual_norm, exp_u = _residual(self.field.values, self.field.grid, self.params)
        if residual_norm >= RESIDUAL_CERT:
            raise ConvergenceError(f"residual norm {residual_norm:.3e} exceeds {RESIDUAL_CERT:g}")
        mass_defect = abs(integrate(self.field) - self.params.kappa)
        if mass_defect >= MASS_TOL:
            raise ResolutionError(
                f"stationary mass defect |int U - kappa| = {mass_defect:.3e} exceeds {MASS_TOL:g}"
            )
        object.__setattr__(self, "residual_norm", residual_norm)
        object.__setattr__(self, "modality", count_modes(self.field))
        # J takes log(int e^U) from the residual's e^U instead of a second exp
        weights = energy_weights(self.field.grid, self.params.D)
        energy = free_energy(rfft(self.field.values), self.params, weights, exp_u[2])
        object.__setattr__(self, "energy", energy)


def constant_state(params: ModelParams, grid: Grid | None = None) -> SteadyState:
    """The homogeneous state U = kappa: residual exactly 0.0, energy exactly
    -kappa^2/2.  Its certificate evaluates e^U like that of every other
    state, so kappa > 700 trips the exp() range guard (AmplitudeOverflowError).
    """
    grid = grid if grid is not None else make_grid()
    return SteadyState(Field(grid, np.full(grid.n_points, params.kappa)), params)


def turning_directions(v: np.ndarray) -> np.ndarray:
    """Signs of v[j+1] - v[j] around the circle; an exact tie takes the previous
    nonzero direction, cyclically (leading ties take the last one)."""
    direction = np.sign(np.append(v[1:], v[0]) - v)
    nonzero = np.flatnonzero(direction)
    if nonzero.size == 0:
        return direction
    # forward fill of indices; leading ties start from the last, as a negative index
    source = np.where(direction != 0.0, np.arange(v.size), nonzero[-1] - v.size)
    return direction[np.maximum.accumulate(source)]


def count_modes(u: Field) -> int:
    """Number of peaks per period.

    Strict local maxima over the periodic index set, after discarding
    oscillations of amplitude below 1e-7 * (max - min).  Fields with
    max - min < 1e-7 count as constant (0 modes).
    """
    v = u.values
    span = float(v.max() - v.min())
    if span < FLAT_TOL:
        return 0
    direction = turning_directions(v)
    flips = np.flatnonzero(direction != np.append(direction[-1], direction[:-1]))
    extrema = [(int(j), direction[j] < 0) for j in flips]  # True = maximum
    if not extrema:
        return 0
    # prune max/min pairs whose value gap is below the prominence threshold
    tol = FLAT_TOL * span
    values = [float(v[j]) for j, _ in extrema]
    kinds = [is_max for _, is_max in extrema]
    while len(kinds) > 2:
        gaps = [abs(values[i] - values[(i + 1) % len(values)]) for i in range(len(values))]
        i = int(np.argmin(gaps))
        if gaps[i] >= tol:
            break
        j = (i + 1) % len(values)
        for idx in sorted((i, j), reverse=True):
            del values[idx]
            del kinds[idx]
    if len(kinds) == 2 and abs(values[0] - values[1]) < tol:
        return 0
    return sum(kinds)


def _even_project(values: np.ndarray) -> np.ndarray:
    # center the max at node 0, then keep the cosine (even) part
    return even_part(np.roll(values, -int(np.argmax(values))))


def newton_steady(
    guess: Field,
    params: ModelParams,
    tol: float = 1e-10,
    history: list | None = None,
) -> SteadyState:
    """Damped Newton iteration on the stationary equation in the even subspace.

    The guess is recentered at its maximum and projected onto cosine modes,
    which fixes the translation phase and makes the Jacobian (the nonlocal
    linearization restricted to even modes) nonsingular away from folds.
    It is ``_bordered_newton`` with kappa pinned, over every even grid mode,
    the Nyquist cosine (-1)^j included, so the iteration can correct every
    component of the full-grid residual it certifies.  ``history``, if
    given, receives the residual RMS of each iterate.
    """
    if not 1e-12 <= tol < np.inf:
        raise ConfigurationError(f"tol must be finite and >= 1e-12, got {tol}")
    return _pinned_newton(_even_project(guess.values), guess.grid, params, tol, history)


def _pinned_newton(values, grid: Grid, params: ModelParams, tol: float = 1e-10, history=None):
    """The state that ``_bordered_newton`` reaches from the even field
    ``values`` over all n_points/2 + 1 cosines, kappa pinned at params.kappa."""
    z = np.append(project_even(values, grid.n_points // 2), params.kappa)
    pin = np.zeros(z.size)
    pin[-1] = 1.0
    z = _bordered_newton(z, pin, z, 0.0, grid, params.D, tol, history)
    return SteadyState(Field(grid, synthesize_even(z[:-1], grid.n_points)), params)


def _bordered_newton(z, tangent, anchor, ds, grid: Grid, D: float, tol: float, history=None):
    """Damped Newton on the stationary equation in the even subspace,
    closed by one border row (a bordered system, after Keller).

    The unknowns z = (a_0 .. a_K, kappa) are the coefficients of U in the
    cosine basis of ``project_even`` and kappa (K = n_points/2 is every even
    grid mode).  The equations are the residual projected on those K + 1
    cosines, whose kappa column is the projected e^U / int e^U, and the
    border tangent . (z - anchor) = ds: tangent e_kappa with ds = 0 pins
    kappa, a secant tangent is the pseudo-arclength row.  The solve stops
    when the residual RMS (the norm of the projection; at K = n_points/2
    the full-grid RMS that SteadyState certifies) is below max(tol,
    ``residual_floor``) and the border below 1e-12.  Each step is halved
    until hypot(residual RMS, border) falls; 21 halvings, or
    NEWTON_MAX_ITER steps, raise ConvergenceError.  A singular or
    non-finite step raises SingularJacobianError; a trial with kappa <= 0
    or beyond the exp() guard raises from its evaluation.  An iterate is
    evaluated once, the accepted trial's evaluation serving the next step,
    with one e^(U - max U) for its residual, kappa column and Jacobian; the
    Jacobian and its right-hand side are allocated once per call.  Returns
    z; ``history``, if given, receives each iterate's residual RMS.
    """
    n_modes = z.size - 2
    jac = np.empty((z.size, z.size))
    rhs = np.empty(z.size)
    jac[-1] = tangent

    def evaluate(z):
        params = ModelParams(D=D, kappa=float(z[-1]))  # rejects kappa <= 0
        values = synthesize_even(z[:-1], grid.n_points)
        exp_u = shifted_exp(values)
        p = exp_u[0] / exp_u[1]
        proj = project_even(evolution_rhs(values, p, grid, params), n_modes, rhs[:-1])
        border = float(tangent @ (z - anchor)) - ds
        return z, params, values, exp_u, p, float(np.linalg.norm(proj)), border

    z, params, values, exp_u, p, res, border = evaluate(z)
    for iteration in range(NEWTON_MAX_ITER + 1):
        if history is not None:
            history.append(res)
        if abs(border) < 1e-12 and (res < tol or res < residual_floor(values, grid, params)):
            return z
        if iteration == NEWTON_MAX_ITER:
            break
        linearization_dense(exp_u, grid, params, n_modes, "even", jac[:-1, :-1])
        project_even(p, n_modes, jac[:-1, -1])
        rhs[-1] = border
        try:
            step = np.linalg.solve(jac, np.negative(rhs, rhs))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError("singular bordered Jacobian in Newton iteration") from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobianError("non-finite Newton step")
        merit = math.hypot(res, border)
        for _halving in range(21):
            trial = evaluate(z + step)
            if math.hypot(*trial[-2:]) < merit:
                z, params, values, exp_u, p, res, border = trial
                break
            step *= 0.5
        else:
            raise ConvergenceError(f"Newton line search stalled at residual {res:.3e}")
    raise ConvergenceError(
        f"Newton did not reach tol={tol:g} within {NEWTON_MAX_ITER} iterations "
        f"(residual {res:.3e})"
    )


@dataclasses.dataclass(frozen=True)
class RelaxStats:
    """What one ``relax_to_steady`` call did.

    ``accepted`` and the three ``rejected_*`` counts are flow steps (a
    step is rejected when J rises beyond round-off, the state goes
    non-finite, or it leaves the exp() range); ``flow_time`` is the sum of
    the accepted step lengths, ``final_h`` the last step length and
    ``handoff_rate`` the detector value max|u_{n+1} - u_n| / h at the hand-over
    to Newton.  ``newton_move`` is the max-norm distance between the
    polished state and the recentered flow state it started from.
    """

    accepted: int
    rejected_energy: int
    rejected_nonfinite: int
    rejected_overflow: int
    flow_time: float
    final_h: float
    handoff_rate: float
    newton_iterations: int
    newton_move: float


def relax_to_steady(
    u0: Field,
    params: ModelParams,
    dt: float = FIRST_STEP,
    t_end: float = 500.0,
    steady_tol: float = 1e-9,
) -> SteadyState:
    """Relax the gradient flow until quasi-steady, then polish with Newton.

    The flow starts with a step of length dt and doubles it after each
    accepted step, up to 0.5.  A longer step that would raise the energy
    beyond round-off or leave the exp() range is rejected and halved,
    never below dt; a step of length dt that leaves it raises the error
    :func:`mechmorph.dynamics.simulate` refuses it with.  t_end / dt is a
    budget of steps, not a flow time: at most ceil(t_end / dt) steps,
    accepted or rejected, the number a fixed-dt flow takes to reach t_end.
    steady_tol is the detector threshold on max|u_{n+1}-u_n|/h; a looser
    value hands over to Newton earlier, and a value <= 0, which could never
    fire, raises ConfigurationError.  Raises ConvergenceError if neither the
    flow nor the polish reaches its tolerance.
    """
    (flow,) = _relax_stack([u0], params, dt, t_end, steady_tol)
    return _handoff(flow, params, dt, t_end, steady_tol)


def _handoff(
    flow: tuple[Field, bool, dict] | MechmorphError, params: ModelParams, dt: float,
    t_end: float, steady_tol: float,
) -> SteadyState:
    """Newton's polish of one relaxed flow as :func:`mechmorph.dynamics._relax_stack`
    returns it for a start run with dt, t_end and steady_tol: ``(state,
    converged, counters)``, or the exception that ended the run, raised here.

    Raises ConvergenceError if the detector did not fire or if Newton moved
    the state out of the flow's basin, and logs the run's RelaxStats.
    """
    if isinstance(flow, MechmorphError):
        raise flow
    relaxed, converged, counters = flow
    if not converged:
        raise ConvergenceError(
            f"gradient flow not steady within {int(np.ceil(t_end / dt))} steps "
            f"(t = {counters['flow_time']:.6g}, detector {steady_tol:g})"
        )
    history = []
    # the recentered even projection Newton starts from, and the move's baseline
    baseline = _even_project(relaxed.values)
    state = _pinned_newton(baseline, relaxed.grid, params, history=history)
    moved = float(np.max(np.abs(state.field.values - baseline)))
    stats = RelaxStats(**counters, newton_iterations=len(history) - 1, newton_move=moved)
    _log.debug("relax_to_steady: %s", stats, extra={"relax_stats": stats})
    if moved > 0.05 * max(1.0, float(np.max(np.abs(baseline)))):
        raise ConvergenceError(
            f"Newton polish moved the relaxed state by {moved:.3e}; "
            "the flow had not settled into a basin"
        )
    return state


def rescale_modal(state: SteadyState, m: int) -> SteadyState:
    """Compress a steady state m-fold: U(m x mod 1) at diffusivity D/m^2.

    A 1-modal input at diffusivity m^2 D yields an m-modal steady state at
    diffusivity D (compressing the profile lowers the effective diffusivity
    by m^2).  The result is sampled on the same grid and certified at the
    new diffusivity like every SteadyState, the one certificate computed:
    a mode-m branch point is certified once, on its compressed state.  A
    failed certificate (a residual of 1e-8 or more included) or a peak
    count other than m times the input's means the grid cannot represent
    the compression (aliasing) and raises ResolutionError.
    """
    check_count("m", m, 1)
    return state if m == 1 else _rescale_modal(state.field, state.params, m)


def _rescale_modal(field: Field, params: ModelParams, m: int) -> SteadyState:
    """``rescale_modal`` of a field at params that is not certified itself:
    the m-fold compression is the one state certified.  At m = 1 that is
    the field's own certificate, whose errors pass through unchanged."""
    if m == 1:
        return SteadyState(field, params)
    grid = field.grid
    values = field.values[(m * np.arange(grid.n_points)) % grid.n_points]
    params = ModelParams(D=params.D / m**2, kappa=params.kappa)
    try:
        rescaled = SteadyState(Field(grid, values), params)
    except ConvergenceError as exc:
        raise ResolutionError(
            f"rescaled state not certified ({exc}); grid too coarse for m={m}"
        ) from exc
    expected = m * count_modes(field)
    if rescaled.modality != expected:
        raise ResolutionError(f"rescaled state has {rescaled.modality} peaks, expected {expected}")
    return rescaled
