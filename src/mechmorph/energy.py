"""Free energy functional and its variations.

The evolution equation is the L^2 gradient flow of

    J(u) = (D/2) int u_x^2 + (1/2) int u^2 - kappa log(int e^u),

so J decreases along trajectories and steady states are critical points.
This module evaluates J, its first variation (the L^2 gradient), the
Hessian in the Laplacian eigenbasis, and the variational diffusivity
bounds that bracket the pattern-forming regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._operators import (
    density,
    energy_weights,
    evolution_rhs,
    free_energy,
    linearization_dense,
    shifted_exp,
)
from .errors import ConfigurationError
from .grid import Field, to_spectral
from .model import ModelParams, check_count

__all__ = ["ModelParams", "BoundsReport", "energy", "first_variation", "hessian_matrix", "bounds"]

MU_1 = 4.0 * np.pi**2
D1_SCAN_CAP = 2_000_000  # largest mode count N the d1 scan tries


def energy(u: Field, params: ModelParams) -> float:
    """Evaluate J(u); the quadratic part is computed spectrally (Parseval)."""
    return free_energy(
        to_spectral(u).coefficients, params, energy_weights(u.grid, params.D),
        shifted_exp(u.values)[2],
    )


def first_variation(u: Field, params: ModelParams) -> Field:
    """L^2 gradient of J at u.

    This is the negative of the PDE right-hand side:
    grad J(u) = -(D u_xx - u + kappa e^u / int e^u).
    """
    return Field(u.grid, -evolution_rhs(u.values, density(u.values), u.grid, params))


def hessian_matrix(u: Field, params: ModelParams, n_modes: int) -> np.ndarray:
    """Second variation of J at u over the truncated Laplacian eigenbasis.

    Basis ordering: index 0 is the constant, then alternating
    (sqrt2 cos(2 pi k x), sqrt2 sin(2 pi k x)) for k = 1 .. n_modes, giving a
    symmetric (2 n_modes + 1) square matrix.  It is -L, the negative of the
    Galerkin matrix of the linearization, because the evolution equation is
    the gradient flow of J.  Row and column 0 reduce to (1, 0, ..., 0)
    because the density e^u / int e^u integrates to one.  n_modes must be
    an integer in [1, n_points/4], where the Galerkin quadrature stays
    alias-safe.
    """
    check_count("n_modes", n_modes, 1)
    if n_modes > u.grid.n_points // 4:
        raise ConfigurationError(
            f"n_modes must be in [1, n_points/4], got {n_modes} at n_points={u.grid.n_points}")
    return -linearization_dense(shifted_exp(u.values), u.grid, params, n_modes, "full")


@dataclass(frozen=True)
class BoundsReport:
    """Diffusivity bounds bracketing the pattern-forming regime.

    d1 comes from the discrete-functional construction (max over the mode
    count N), d2 = (kappa - 1)/mu_1 from concavity at the constant state
    (only for kappa > 1), d_min combines them, and d_max = 15 kappa / mu_1
    guarantees global convexity of J.
    """

    kappa: float
    d1: float
    d2: float | None
    d_min: float
    d_max: float
    argmax_n: int

    def __post_init__(self):
        if not self.d_min < self.d_max:
            raise ConfigurationError("bounds report requires d_min < d_max")


def _d1_scan(kappa: float) -> tuple[float, int]:
    # The summand tends to 0 as N -> infinity and is positive for large N,
    # so the max is attained at finite N; stop after the expression has been
    # decreasing for 10 consecutive N past the running max.
    best = -np.inf
    best_n = 1
    decreasing = 0
    n = 1
    while n < D1_SCAN_CAP:
        log4n = np.log(4.0 * n)
        value = (kappa * n * (np.sqrt(2.0) - 1.0) - log4n) / (MU_1 * n**2 * log4n)
        if value > best:
            best, best_n, decreasing = value, n, 0
        else:
            decreasing += 1
            if decreasing >= 10 and best > 0.0:
                break
        n += 1
    return float(best), best_n


def bounds(kappa: float) -> BoundsReport:
    """Compute d1, d2, d_min, d_max for the given kappa > 0."""
    if not (np.isfinite(kappa) and kappa > 0):
        raise ConfigurationError(f"kappa must be a finite positive real, got {kappa!r}")
    d1, argmax_n = _d1_scan(kappa)
    d2 = (kappa - 1.0) / MU_1 if kappa > 1.0 else None  # concavity at the constant state
    return BoundsReport(kappa=float(kappa), d1=d1, d2=d2, d_min=d1 if d2 is None else max(d1, d2),
                        d_max=15.0 * kappa / MU_1, argmax_n=argmax_n)
