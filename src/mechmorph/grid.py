"""Periodic spatial discretization of the unit interval.

Uniform collocation grid on [0, 1) with the endpoints identified, real
half-complex Fourier transforms, spectral differentiation and quadrature.
The transform convention is ``norm="forward"``: coefficient ``k`` multiplies
the basis function ``exp(2*pi*1j*k*x)``, so the k = 0 coefficient is the
mean of the field.  The trapezoid rule degenerates to the plain grid mean
here and is spectrally accurate for smooth periodic integrands.

Every real FFT of the package is one of ``rfft``/``irfft`` below: the
pocketfft gufuncs of ``numpy.fft._pocketfft_umath`` (numpy >= 2.0), scaled
by 1/n (exact for a power of two) and 1, as ``np.fft.rfft``/``irfft`` call
them for ``norm="forward"``.  Results are bit-identical; the wrapper's
argument handling, about half the cost of a transform at n = 256, is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigurationError

__all__ = [
    "Grid",
    "Field",
    "Spectrum",
    "make_grid",
    "to_spectral",
    "from_spectral",
    "second_derivative",
    "first_derivative",
    "integrate",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid x_j = j / n_points; its arrays are read-only, built once."""

    n_points: int
    spacing: float
    nodes: np.ndarray

    def __post_init__(self):
        for a in (self.nodes, self.wavenumbers, self.laplacian_eigenvalues, self.parseval_weights):
            a.setflags(write=False)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers 0 .. n_points // 2 of the half spectrum."""
        return np.arange(self.n_points // 2 + 1)

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """mu_k = (2 pi k)^2 for the half-spectrum wavenumbers."""
        return (2.0 * np.pi * self.wavenumbers) ** 2

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Weights w_k with mean(f^2) = sum_k w_k |c_k|^2 for real fields."""
        w = np.full(self.n_points // 2 + 1, 2.0)
        w[[0, -1]] = 1.0  # the mean and the Nyquist coefficient appear once
        return w


def rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward real FFT over the last axis (even length n), scaled by 1/n."""
    n = values.shape[-1]
    out = np.empty((*values.shape[:-1], n // 2 + 1), complex) if out is None else out
    return _pocketfft.rfft_n_even(values, 1.0 / n, out)


def irfft(coef: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of ``rfft`` onto n points over the last axis; shorter rows
    are zero-padded and real ones read as complex."""
    out = np.empty((*coef.shape[:-1], n)) if out is None else out
    return _pocketfft.irfft(coef, 1.0, out)


def make_grid(n_points: int = 256) -> Grid:
    """Create a periodic grid; n_points must be a power of two, >= 8."""
    if not isinstance(n_points, (int, np.integer)):
        raise ConfigurationError(f"n_points must be an integer, got {n_points!r}")
    n = int(n_points)
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigurationError(
            f"n_points must be a power of two >= 8, got {n}"
        )
    return Grid(n_points=n, spacing=1.0 / n, nodes=np.arange(n) / n)


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on a Grid; immutable after construction."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"field has {vals.shape} values for a grid of {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


@dataclass(frozen=True)
class Spectrum:
    """Half-complex spectrum of a real Field (wavenumbers 0 .. n/2)."""

    grid: Grid
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=complex)
        if coef.shape != (self.grid.n_points // 2 + 1,):
            raise ConfigurationError(
                f"spectrum has {coef.shape} coefficients for n_points={self.grid.n_points}"
            )
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def parseval_weights(self) -> np.ndarray:
        """Weights w_k with mean(f^2) = sum_k w_k |c_k|^2 for real fields."""
        return self.grid.parseval_weights


def to_spectral(f: Field) -> Spectrum:
    """Forward real FFT; coefficient k multiplies exp(2*pi*1j*k*x)."""
    return Spectrum(f.grid, rfft(f.values))


def from_spectral(s: Spectrum) -> Field:
    """Inverse of :func:`to_spectral`."""
    return Field(s.grid, irfft(s.coefficients, s.grid.n_points))


def second_derivative(s: Spectrum) -> Spectrum:
    """Spectral second derivative: coefficient k is scaled by -(2 pi k)^2."""
    return Spectrum(s.grid, -s.grid.laplacian_eigenvalues * s.coefficients)


def first_derivative(s: Spectrum) -> Spectrum:
    """Spectral first derivative: coefficient k is scaled by 2*pi*1j*k.

    The Nyquist coefficient is zeroed (its derivative is not representable
    on the grid), which is the usual convention for real data.
    """
    coef = 2.0j * np.pi * s.grid.wavenumbers * s.coefficients
    coef[-1] = 0.0  # n_points is even
    return Spectrum(s.grid, coef)


def integrate(f: Field) -> float:
    """Integral over [0, 1); the grid mean (trapezoid rule, domain length 1)."""
    return float(np.mean(f.values))
