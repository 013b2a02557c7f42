"""Time integration of the gradient flow.

The stiff linear part (D d_xx - 1) is integrated exactly per Fourier mode
with its integrating factor, while the nonlocal production term
kappa e^u / int e^u is treated explicitly (exponential Euler).  The scheme
is first-order accurate overall, exact on the linear equation when the
production term is absent, and preserves the constant steady state to
round-off.  Because the mode-0 forcing is exactly kappa, the recorded mass
follows the exact law m(t) = kappa + (m0 - kappa) e^(-t) to round-off.

One fused step serves two loops.  ``simulate`` takes fixed steps for
trajectory-accurate runs.  The relaxation behind
:func:`mechmorph.steady.relax_to_steady` adapts its step to the energy J,
the flow's Lyapunov function: fixed points of exponential Euler are exact
steady states for any step, so only the energy needs to control the step.
Each state's e^(u - max u) is computed once and gives both J at that state
and the production term of the step that leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._operators import density, free_energy, gradient_weights, shifted_exp
from .errors import AmplitudeOverflowError, ConfigurationError, DivergenceError
from .grid import Field, Grid
from .model import ModelParams

__all__ = ["TrajectorySummary", "simulate", "strain_field"]


@dataclass(frozen=True)
class TrajectorySummary:
    """Recorded diagnostics of one trajectory.

    ``max_energy_increment`` is the largest single-step energy increase seen
    over the whole run (round-off scale for a gradient flow), checked at
    every internal step, not only at recording times.
    """

    times: np.ndarray
    masses: np.ndarray
    energies: np.ndarray
    max_values: np.ndarray
    min_values: np.ndarray
    final_state: Field
    step_count: int
    converged: bool
    max_energy_increment: float


MAX_STEP = 0.5  # stability guard on the step length


class _Point(NamedTuple):
    """A state of the flow with what the fused step needs from it."""

    u_hat: np.ndarray
    values: np.ndarray
    density: np.ndarray  # e^u / int e^u
    energy: float


class _Stepper:
    """Exponential-Euler steps for one (grid, params); the integrating
    factors are cached per step length."""

    def __init__(self, grid: Grid, params: ModelParams, dt: float):
        if not (dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if dt > MAX_STEP:
            raise ConfigurationError(f"dt = {dt} exceeds the stability guard {MAX_STEP:g}")
        self.grid = grid
        self.params = params
        self._decay = -(1.0 + params.D * grid.laplacian_eigenvalues)
        self._grad_weights = gradient_weights(grid)
        self._factors = {}

    def start(self, values: np.ndarray) -> _Point:
        return self.point(np.fft.rfft(values, norm="forward"), values)

    def point(self, u_hat: np.ndarray, values: np.ndarray) -> _Point:
        """The state's density and energy from one shifted exponential.

        Raises AmplitudeOverflowError beyond the exp() range guard.
        """
        shifted, mean, log_int = shifted_exp(values)
        energy = free_energy(u_hat, values, self.params, self._grad_weights, log_int)
        return _Point(u_hat, values, shifted / mean, energy)

    def advance(self, p: _Point, h: float) -> tuple[np.ndarray, np.ndarray]:
        """One step of length h from p: the new rfft and grid values."""
        if h not in self._factors:
            factor = np.exp(self._decay * h)
            self._factors[h] = factor, (factor - 1.0) / self._decay  # phi_1(h decay) h
        factor, weight = self._factors[h]
        reaction = self.params.kappa * p.density
        u_hat = factor * p.u_hat + weight * np.fft.rfft(reaction, norm="forward")
        return u_hat, np.fft.irfft(u_hat, self.grid.n_points, norm="forward")


def simulate(
    u0: Field,
    params: ModelParams,
    t_end: float,
    dt: float = 1e-3,
    record_every: int = 100,
    steady_tol: float = 1e-9,
) -> TrajectorySummary:
    """Integrate with the fixed step dt until t_end, recording mass and
    energy every record_every steps.

    Stops early (and reports ``converged=True``) once the steady-state
    detector fires: max |u_{n+1} - u_n| / dt < steady_tol.  Divergence raises
    :class:`DivergenceError` with the last finite state attached.
    """
    if not (t_end > 0.0):
        raise ConfigurationError(f"t_end must be positive, got {t_end}")
    if record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {record_every}")
    stepper = _Stepper(u0.grid, params, dt)
    n_steps = int(np.ceil(t_end / dt))

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
                last_state=Field(u0.grid, p.values),
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
        final_state=Field(u0.grid, p.values),
        step_count=step,
        converged=converged,
        max_energy_increment=max_increment,
    )


def _energy_allows(old: float, new: float) -> bool:
    """Acceptance rule of the adaptive flow: J may rise by round-off only.

    The quadratic part of J is convex and integrated exactly, the concave
    -kappa log int e^u is explicit, so no step of any length raises J in
    exact arithmetic; the rule guards against round-off and defects.
    """
    return new <= old + 8.0 * np.finfo(float).eps * max(1.0, abs(old))


def _relax(
    u0: Field, params: ModelParams, dt: float, t_end: float, steady_tol: float
) -> tuple[Field, bool, dict]:
    """Energy-controlled adaptive exponential Euler toward a steady state.

    The first step is dt and each accepted step doubles the next, up to the
    0.5 guard.  A longer step that raises J beyond round-off, goes
    non-finite or trips the exp() guard is rejected and halved, never below
    dt; a step of length dt is accepted or raises exactly as in
    ``simulate``.  The budget is ceil(t_end / dt) steps, accepted plus
    rejected, which is what ``simulate`` takes to reach t_end: near sharp
    peaks the contraction per step saturates once the step is long, so a
    flow-time budget would run out without converging.

    Returns the last accepted state, whether the detector
    max |u_{n+1} - u_n| / h < steady_tol fired on it, and the counters of
    the run.
    """
    if not (t_end > 0.0):
        raise ConfigurationError(f"t_end must be positive, got {t_end}")
    stepper = _Stepper(u0.grid, params, dt)
    budget = int(np.ceil(t_end / dt))
    p = stepper.start(u0.values)
    h = dt
    flow_time = 0.0
    rate = float("inf")
    accepted = 0
    rejected = dict.fromkeys(("rejected_energy", "rejected_nonfinite", "rejected_overflow"), 0)
    while accepted + sum(rejected.values()) < budget:
        u_hat, values = stepper.advance(p, h)
        reason = None
        if not np.isfinite(values).all():
            if h == dt:
                raise DivergenceError(
                    f"relaxation diverged at t = {flow_time + h:.6g}",
                    last_state=Field(u0.grid, p.values),
                    t=flow_time + h,
                )
            reason = "rejected_nonfinite"
        else:
            try:
                new = stepper.point(u_hat, values)
            except AmplitudeOverflowError:
                if h == dt:
                    raise
                reason = "rejected_overflow"
            else:
                if h != dt and not _energy_allows(p.energy, new.energy):
                    reason = "rejected_energy"
        if reason is not None:
            rejected[reason] += 1
            h = max(0.5 * h, dt)
            continue
        accepted += 1
        flow_time += h
        rate = float(np.abs(new.values - p.values).max()) / h
        p = new
        if rate < steady_tol:
            break
        h = min(2.0 * h, MAX_STEP)
    stats = {"accepted": accepted, **rejected, "flow_time": flow_time, "final_h": h,
             "handoff_rate": rate}
    return Field(u0.grid, p.values), rate < steady_tol, stats


def strain_field(u: Field, params: ModelParams) -> Field:
    """Nondimensional strain profile e^u / int e^u (integrates to one).

    The elastic modulus decreases exponentially with the morphogen level, so
    after nondimensionalization the strain is the normalized production
    profile; constant factors are absorbed into kappa.
    """
    return Field(u.grid, density(u.values))
