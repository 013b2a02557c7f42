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

from ._operators import density, evolution_rhs, free_energy, full_linearization, shifted_exp
from .errors import ConfigurationError
from .grid import Field
from .model import ModelParams

__all__ = ["ModelParams", "BoundsReport", "energy", "first_variation", "hessian_matrix", "bounds"]

MU_1 = 4.0 * np.pi**2
KAPPA_FLOOR = 1e-9  # below it f's steps near N* > 1e11 are lost to rounding: d1 < 0 at 1e-14


def energy(u: Field, params: ModelParams) -> float:
    """Evaluate J(u); the quadratic part is computed spectrally (Parseval)."""
    return free_energy(u.values, u.grid, params, shifted_exp(u.values)[2])


def first_variation(u: Field, params: ModelParams) -> Field:
    """L^2 gradient of J at u.

    This is the negative of the PDE right-hand side:
    grad J(u) = -(D u_xx - u + kappa e^u / int e^u).
    """
    return Field(u.grid, -evolution_rhs(u.values, density(u.values), u.grid, params))


def hessian_matrix(u: Field, params: ModelParams) -> np.ndarray:
    """Second variation of J at u over the truncated Laplacian eigenbasis.

    Basis ordering: index 0 is the constant, then alternating
    (sqrt2 cos(2 pi k x), sqrt2 sin(2 pi k x)) for k = 1 .. K, at the
    truncation K of the spectra (``default_modes`` of u's rfft); the leading
    2k + 1 rows and columns are the Hessian over the first k modes.  It is
    -L, the negative of :func:`mechmorph.stability.assemble_linearization`,
    because the evolution equation is the gradient flow of J.  Row and
    column 0 reduce to (1, 0, ..., 0) because the density e^u / int e^u
    integrates to one.
    """
    return -full_linearization(u.values, u.grid, params)


@dataclass(frozen=True)
class BoundsReport:
    """Diffusivity bounds bracketing the pattern-forming regime.

    d1 comes from the discrete-functional construction (max over the mode
    count N of the summand f of ``_d1_search``, first attained at argmax_n),
    d2 = (kappa - 1)/mu_1 from concavity at the constant state (only for
    kappa > 1), d_min combines them, and d_max = 15 kappa / mu_1 guarantees global convexity of J.
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


def _d1_search(kappa: float) -> tuple[float, int]:
    """Max over N >= 1 of f(N) = (kappa N (sqrt2 - 1) - ln 4N) / (mu_1 N^2 ln 4N),
    and its first arg-max N*.  With a = kappa (sqrt2 - 1) and L = ln 4x, f'(x)
    has the sign of -phi(x), phi(x) = a x (L + 1) - 2 L^2, convex on x >= 1.
    Where phi(1) < 0, f rises and then falls, with one turn; where phi(1) >= 0
    (kappa >~ 3.89) it falls from N = 1 on, as any dip of phi below 0 stays in
    (1, 2) and f(2) < f(1).  f -> 0+, so the max is positive and N* is the
    first N with f(N + 1) <= f(N): doubling brackets it, bisection finds it."""
    def f(n: int) -> float:
        log4n = np.log(4.0 * n)
        return (kappa * n * (np.sqrt(2.0) - 1.0) - log4n) / (MU_1 * n**2 * log4n)

    lo, hi = 0, 1  # N* is in (lo, hi]
    while f(hi + 1) > f(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if f(mid + 1) <= f(mid) else (mid, hi)
    return float(f(hi)), hi


def bounds(kappa: float) -> BoundsReport:
    """Compute d1, d2, d_min, d_max for the given finite kappa >= KAPPA_FLOOR."""
    if not (np.isfinite(kappa) and kappa >= KAPPA_FLOOR):
        raise ConfigurationError(f"kappa must be finite and >= {KAPPA_FLOOR:g}, got {kappa!r}")
    d1, argmax_n = _d1_search(kappa)
    d2 = (kappa - 1.0) / MU_1 if kappa > 1.0 else None  # concavity at the constant state
    return BoundsReport(kappa=float(kappa), d1=d1, d2=d2, d_min=d1 if d2 is None else max(d1, d2),
                        d_max=15.0 * kappa / MU_1, argmax_n=argmax_n)
