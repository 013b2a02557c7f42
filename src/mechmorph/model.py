"""Model parameters for u_t = D u_xx - u + kappa * e^u / int e^u."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = ["ModelParams"]


def check_count(name: str, value, low: int) -> None:
    """Raise ConfigurationError unless value is an integer (numpy's too, a
    bool not) >= low."""
    if isinstance(value, bool) or not (isinstance(value, (int, numbers.Integral)) and value >= low):
        raise ConfigurationError(f"{name} must be >= {low} and an integer, got {value!r}")


def check_modes(n_modes, n_points: int) -> None:
    """Raise ConfigurationError unless n_modes is an integer in [1, n_points/4],
    where the Galerkin quadrature stays alias-safe."""
    check_count("n_modes", n_modes, 1)
    if n_modes > n_points // 4:
        raise ConfigurationError(
            f"n_modes must be in [1, n_points/4], got {n_modes} at n_points={n_points}"
        )


@dataclass(frozen=True)
class ModelParams:
    """Diffusivity D and production strength kappa, both strictly positive
    reals (numpy scalars included, a bool not)."""

    D: float
    kappa: float

    def __post_init__(self):
        for name, val in (("D", self.D), ("kappa", self.kappa)):
            # float first: the ABC check of numbers.Real costs about 1 us
            real = isinstance(val, (float, numbers.Real)) and not isinstance(val, bool)
            if not (real and math.isfinite(val) and val > 0):
                raise ConfigurationError(f"{name} must be a finite positive real, got {val!r}")
        object.__setattr__(self, "D", float(self.D))
        object.__setattr__(self, "kappa", float(self.kappa))
