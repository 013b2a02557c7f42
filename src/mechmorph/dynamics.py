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

The step works in two preallocated slots, each holding a state's rfft,
grid values and density, plus reaction and energy buffers: every array
operation writes into one of them (``out=``), and a step writes only into
the slot its start is not in, so a rejected step leaves the accepted state
intact.  Its two transforms are :func:`mechmorph.grid.rfft` and ``irfft``,
which call numpy's pocketfft gufuncs (numpy >= 2.0) directly: at n = 256
the ``np.fft`` wrapper took about half of each transform and most of a step.
One max and one min of the new values give the finiteness check (NaN and
+-inf propagate through them), the exp() range guard, the shift of the
exponential and the recorded extremes.  J is one dot product over the
rfft, with the gradient term and, by Parseval, int u^2 folded into its
weights.  The steady-state rate is computed only when its threshold is
positive; the rate is >= 0, so a threshold <= 0 could never fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._operators import check_exp_range, density, energy_weights, free_energy
from .errors import AmplitudeOverflowError, ConfigurationError, DivergenceError
from .grid import Field, Grid, irfft, rfft
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


class _Slot:
    """One preallocated state of the flow and what the step reads from it."""

    __slots__ = ("u_hat", "values", "density", "top", "bottom", "energy")

    def __init__(self, n: int):
        self.u_hat = np.empty(n // 2 + 1, dtype=complex)
        self.values = np.empty(n)
        self.density = np.empty(n)  # e^u / int e^u
        self.top = self.bottom = self.energy = 0.0  # max u, min u, J(u)

    @property
    def finite(self) -> bool:
        # NaN propagates through max and min, and +-inf lands in one of them
        return math.isfinite(self.top) and math.isfinite(self.bottom)


class _Stepper:
    """Exponential-Euler steps for one (grid, params) between two slots.

    A step writes only into the slot its start is not in, so a rejected
    step leaves the accepted state intact.  The integrating factors are
    cached per step length.
    """

    def __init__(self, grid: Grid, params: ModelParams, dt: float):
        if not (dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if dt > MAX_STEP:
            raise ConfigurationError(f"dt = {dt} exceeds the stability guard {MAX_STEP:g}")
        n = grid.n_points
        self.n = n
        self.params = params
        self._decay = -(1.0 + params.D * grid.laplacian_eigenvalues)
        self._weights = energy_weights(grid, params.D)
        self._factors = {}
        self._slots = (_Slot(n), _Slot(n))
        self._reaction = np.empty(n)
        self._reaction_hat = np.empty(n // 2 + 1, dtype=complex)
        self._diff = np.empty(n)
        self._weighted = np.empty(n + 2)  # weights * u_hat.view(float)

    def start(self, values: np.ndarray) -> _Slot:
        """The first state, in slot 0.  Raises AmplitudeOverflowError beyond
        the exp() range guard."""
        s = self._slots[0]
        s.values[:] = values
        rfft(s.values, out=s.u_hat)
        s.top = float(np.maximum.reduce(s.values))
        s.bottom = float(np.minimum.reduce(s.values))
        self.evaluate(s)
        return s

    def evaluate(self, s: _Slot) -> None:
        """The density and energy of s from one shifted exponential.

        Raises AmplitudeOverflowError beyond the exp() range guard.
        """
        check_exp_range(max(s.top, -s.bottom))
        np.subtract(s.values, s.top, out=s.density)
        np.exp(s.density, out=s.density)
        mean = float(np.add.reduce(s.density)) / self.n
        np.divide(s.density, mean, out=s.density)
        s.energy = free_energy(s.u_hat, self.params, self._weights, s.top + float(np.log(mean)),
                               out=self._weighted)

    def advance(self, p: _Slot, h: float) -> _Slot:
        """One step of length h from p into the other slot: its rfft, grid
        values and extremes.  ``evaluate`` completes it."""
        if h not in self._factors:
            factor = np.exp(self._decay * h)
            self._factors[h] = factor, (factor - 1.0) / self._decay  # phi_1(h decay) h
        factor, weight = self._factors[h]
        new = self._slots[p is self._slots[0]]
        np.multiply(self.params.kappa, p.density, out=self._reaction)
        rfft(self._reaction, out=self._reaction_hat)
        np.multiply(weight, self._reaction_hat, out=self._reaction_hat)
        np.multiply(factor, p.u_hat, out=new.u_hat)
        np.add(new.u_hat, self._reaction_hat, out=new.u_hat)
        irfft(new.u_hat, self.n, out=new.values)
        new.top = float(np.maximum.reduce(new.values))
        new.bottom = float(np.minimum.reduce(new.values))
        return new

    def rate(self, new: _Slot, old: _Slot, h: float) -> float:
        """The steady-state detector max |u_new - u_old| / h."""
        np.subtract(new.values, old.values, out=self._diff)
        np.abs(self._diff, out=self._diff)
        return float(np.maximum.reduce(self._diff)) / h


def _check_run(t_end: float, steady_tol: float) -> None:
    if not 0.0 < t_end < math.inf:
        raise ConfigurationError(f"t_end must be positive and finite, got {t_end}")
    if math.isnan(steady_tol):
        raise ConfigurationError("steady_tol must be a number, got nan")


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
    _check_run(t_end, steady_tol)
    if record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {record_every}")
    stepper = _Stepper(u0.grid, params, dt)
    n_steps = int(np.ceil(t_end / dt))

    p = stepper.start(u0.values)
    times, masses, energies, max_values, min_values = [], [], [], [], []
    max_increment = 0.0
    converged = False
    step = 0

    def record(t):
        times.append(t)
        masses.append(float(p.values.mean()))
        energies.append(p.energy)
        max_values.append(p.top)
        min_values.append(p.bottom)

    record(0.0)
    while step < n_steps:
        new = stepper.advance(p, dt)
        step += 1
        if not new.finite:
            raise DivergenceError(
                f"simulation diverged at t = {step * dt:.6g}",
                last_state=Field(u0.grid, p.values),
                t=step * dt,
            )
        stepper.evaluate(new)
        max_increment = max(max_increment, new.energy - p.energy)
        # the rate is >= 0, so a detector with steady_tol <= 0 never fires
        converged = steady_tol > 0.0 and stepper.rate(new, p, dt) < steady_tol
        p = new
        if step % record_every == 0 or step == n_steps:
            record(step * dt)
        if converged:
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
    _check_run(t_end, steady_tol)
    stepper = _Stepper(u0.grid, params, dt)
    budget = int(np.ceil(t_end / dt))
    p = stepper.start(u0.values)
    h = dt
    flow_time = 0.0
    rate = float("inf")
    accepted = 0
    rejected = dict.fromkeys(("rejected_energy", "rejected_nonfinite", "rejected_overflow"), 0)
    while accepted + sum(rejected.values()) < budget:
        new = stepper.advance(p, h)
        reason = None
        if not new.finite:
            if h == dt:
                raise DivergenceError(
                    f"relaxation diverged at t = {flow_time + h:.6g}",
                    last_state=Field(u0.grid, p.values),
                    t=flow_time + h,
                )
            reason = "rejected_nonfinite"
        else:
            try:
                stepper.evaluate(new)
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
        if steady_tol > 0.0:
            rate = stepper.rate(new, p, h)
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
