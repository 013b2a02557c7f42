"""Time integration of the gradient flow.

The stiff linear part (D d_xx - 1) is integrated exactly per Fourier mode
with its integrating factor, while the nonlocal production term
kappa e^u / int e^u is treated explicitly (exponential Euler).  The scheme
is first-order accurate overall, exact on the linear equation when the
production term is absent, and preserves the constant steady state to
round-off.  Because the mode-0 forcing is exactly kappa, the recorded mass
follows the exact law m(t) = kappa + (m0 - kappa) e^(-t) to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._operators import density, free_energy
from .errors import ConfigurationError, DivergenceError
from .grid import Field, Grid
from .model import ModelParams

__all__ = ["TrajectorySummary", "step_imex", "simulate", "strain_field"]


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


class _Stepper:
    """Precomputed integrating factors for one (grid, D, dt) combination."""

    def __init__(self, grid: Grid, params: ModelParams, dt: float):
        if not (dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if dt > 0.5:
            raise ConfigurationError(f"dt = {dt} exceeds the stability guard 0.5")
        self.grid = grid
        self.params = params
        self.dt = dt
        decay = -(1.0 + params.D * grid.laplacian_eigenvalues)
        self.factor = np.exp(decay * dt)
        self.weight = (self.factor - 1.0) / decay  # phi_1(dt * decay) * dt

    def advance(self, u_hat: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        reaction = self.params.kappa * density(values)
        u_hat = self.factor * u_hat + self.weight * np.fft.rfft(reaction, norm="forward")
        return u_hat, np.fft.irfft(u_hat, self.grid.n_points, norm="forward")


def step_imex(u: Field, dt: float, params: ModelParams) -> Field:
    """Advance one semi-implicit step of length dt."""
    stepper = _Stepper(u.grid, params, dt)
    u_hat = np.fft.rfft(u.values, norm="forward")
    _, values = stepper.advance(u_hat, u.values)
    if not np.all(np.isfinite(values)):
        raise DivergenceError("time step produced non-finite values", last_state=u, t=0.0)
    return Field(u.grid, values)


def simulate(
    u0: Field,
    params: ModelParams,
    t_end: float,
    dt: float = 1e-3,
    record_every: int = 100,
    steady_tol: float = 1e-9,
) -> TrajectorySummary:
    """Integrate until t_end, recording mass and energy every record_every steps.

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

    values = u0.values.copy()
    u_hat = np.fft.rfft(values, norm="forward")
    times = [0.0]
    masses = [float(values.mean())]
    energies = [free_energy(u_hat, values, u0.grid, params)]
    max_values = [float(values.max())]
    min_values = [float(values.min())]
    prev_energy = energies[0]
    max_increment = 0.0
    converged = False
    step = 0
    last_finite = values

    def record(t, e):
        times.append(t)
        masses.append(float(values.mean()))
        energies.append(e)
        max_values.append(float(values.max()))
        min_values.append(float(values.min()))

    while step < n_steps:
        u_hat, new_values = stepper.advance(u_hat, values)
        step += 1
        if not np.all(np.isfinite(new_values)):
            raise DivergenceError(
                f"simulation diverged at t = {step * dt:.6g}",
                last_state=Field(u0.grid, last_finite),
                t=step * dt,
            )
        e = free_energy(u_hat, new_values, u0.grid, params)
        max_increment = max(max_increment, e - prev_energy)
        prev_energy = e
        rate = float(np.max(np.abs(new_values - values))) / dt
        values = new_values
        last_finite = values
        if step % record_every == 0 or step == n_steps:
            record(step * dt, e)
        if rate < steady_tol:
            converged = True
            if times[-1] != step * dt:
                record(step * dt, e)
            break

    return TrajectorySummary(
        times=np.asarray(times),
        masses=np.asarray(masses),
        energies=np.asarray(energies),
        max_values=np.asarray(max_values),
        min_values=np.asarray(min_values),
        final_state=Field(u0.grid, values),
        step_count=step,
        converged=converged,
        max_energy_increment=max_increment,
    )


def strain_field(u: Field, params: ModelParams) -> Field:
    """Nondimensional strain profile e^u / int e^u (integrates to one).

    The elastic modulus decreases exponentially with the morphogen level, so
    after nondimensionalization the strain is the normalized production
    profile; constant factors are absorbed into kappa.
    """
    return Field(u.grid, density(u.values))
