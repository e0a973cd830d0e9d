"""Log-radial change of variables and the unitary Fourier transform.

The radial Hilbert space is L2(R_+, r^{N-3} dr).  Substituting r = e^s and
weighting by e^{(N-2)s/2} gives a unitary onto L2(R, ds):

    (U f)(s)     = e^{(N-2)s/2} f(e^s),
    (U^{-1} g)(r) = r^{-(N-2)/2} g(log r).

On the line we use the symmetric Fourier convention

    g^(sigma) = (2 pi)^{-1/2} int g(s) e^{-i sigma s} ds,

discretized on a periodic grid s_j = s_min + j ds as a rescaled DFT, so the
discrete transform is exactly unitary between the weighted norms below.
Frequencies are kept in signed (fftshift) order sigma_k = 2 pi k / (n ds)
with k = -n/2 .. n/2 - 1.

Sampled functions should decay below roughly 1e-13 inside the central half
of [s_min, s_max]; the transform is periodic and wraps anything that leaks
past the ends.

Samples are one row of n values or a (k, n) stack of rows, one profile per
row; every transform acts along the last axis, row by row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _rows(grid: LogRadialGrid, values) -> np.ndarray:
    """values as complex samples: one row of grid.n, or a (k, grid.n) stack."""
    values = np.asarray(values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[-1] != grid.n:
        raise DomainError(f"expected rows of {grid.n} samples, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class LogRadialGrid:
    """Periodic grid in s = log r carrying the ambient dimension N."""

    dim: int
    s_min: float = -16.0
    s_max: float = 16.0
    n: int = 2048

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if self.dim > sys.float_info.max:  # the weights' power N - 2 has no float value
            raise DomainError(f"N = {self.dim} is too large: N - 2 is past the float range")
        if not 0 < self.n <= sys.float_info.max:  # ds divides by n, as a float
            raise DomainError(f"n={self.n} must be a power of two >= 8")
        if not (math.isfinite(self.s_min) and math.isfinite(self.s_max) and math.isfinite(self.ds)):
            raise DomainError(f"s_min, s_max and ds must be finite, got {self.s_min}, {self.s_max}, {self.ds}")
        if not (self.s_min < self.s_max):
            raise DomainError("need s_min < s_max")
        if not _is_pow2(self.n) or self.n < 8:
            raise DomainError(f"n={self.n} must be a power of two >= 8")
        if not self.ds > 0:
            raise DomainError(f"ds = (s_max - s_min)/n is 0 at {self.s_min}, {self.s_max}, n={self.n}")
        with np.errstate(all="ignore"):
            radii = np.exp([self.s_min, self.s_max])
            ends = np.concatenate([radii, radii ** float(self.dim - 2)])
        if not np.all((ends > 0) & (ends < math.inf)):
            raise DomainError(f"the radii e^s or the weights r^(N-2) leave the float range at the ends of "
                              f"[{self.s_min}, {self.s_max}] for N = {self.dim}")
        top = math.pi / self.ds  # the largest frequency |sigma|
        if not top * top < math.inf:  # a float product overflows to inf, where ** would raise
            raise DomainError(f"ds = {self.ds} is too small: the squared frequency (pi/ds)^2 passes the float range")

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / self.n

    @cached_property
    def s(self) -> np.ndarray:
        return self.s_min + self.ds * np.arange(self.n)

    @cached_property
    def r(self) -> np.ndarray:
        return np.exp(self.s)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Frequency samples in fftshift order, sigma_k = 2 pi k/(n ds)."""
        return np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(self.n, d=self.ds))


@dataclass
class RadialSamples:
    """Samples f(r_j) of one radial profile, or of a (k, n) stack of them."""

    grid: LogRadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _rows(self.grid, self.values)

    def copy(self) -> "RadialSamples":
        return RadialSamples(self.grid, self.values.copy())


def u_forward(f: RadialSamples) -> np.ndarray:
    """Push f through U: returns g(s_j) = e^{(N-2) s_j / 2} f(r_j)."""
    w = np.exp(0.5 * (f.grid.dim - 2) * f.grid.s)
    return w * f.values


def u_inverse(grid: LogRadialGrid, g: np.ndarray) -> RadialSamples:
    """Pull s-side samples back: f(r_j) = r_j^{-(N-2)/2} g(s_j)."""
    w = np.exp(-0.5 * (grid.dim - 2) * grid.s)
    return RadialSamples(grid, w * np.asarray(g, dtype=complex))


def fourier_forward(grid: LogRadialGrid, g: np.ndarray) -> np.ndarray:
    """Discrete realization of g -> g^, exactly unitary for the norms below.

    g^(sigma_k) = (ds / sqrt(2 pi)) e^{-i sigma_k s_min} FFT(g)_k, returned
    in fftshift order to match grid.sigma, row by row.
    """
    spec = np.fft.fft(_rows(grid, g))
    sigma_unshifted = 2.0 * math.pi * np.fft.fftfreq(grid.n, d=grid.ds)
    spec *= grid.ds / math.sqrt(2.0 * math.pi) * np.exp(-1j * sigma_unshifted * grid.s_min)
    return np.fft.fftshift(spec, axes=-1)


def fourier_inverse(grid: LogRadialGrid, spec: np.ndarray) -> np.ndarray:
    """Inverse of fourier_forward; returns s-side samples g(s_j)."""
    spec = np.fft.ifftshift(_rows(grid, spec), axes=-1)
    sigma_unshifted = 2.0 * math.pi * np.fft.fftfreq(grid.n, d=grid.ds)
    spec = spec * np.exp(1j * sigma_unshifted * grid.s_min)
    return np.fft.ifft(spec) * (math.sqrt(2.0 * math.pi) / grid.ds)


def weighted_norm(f: RadialSamples) -> float:
    """Discrete L2(r^{N-3} dr) norm over all rows; r^{N-3} dr = r^{N-2} ds on the log grid."""
    w = f.grid.r ** (f.grid.dim - 2)
    return math.sqrt(float(np.sum(np.abs(f.values) ** 2 * w) * f.grid.ds))


def frequency_norm(grid: LogRadialGrid, spec: np.ndarray) -> float:
    """Discrete L2(d sigma) norm over all rows of fftshifted samples spec."""
    dsigma = 2.0 * math.pi / (grid.n * grid.ds)
    return math.sqrt(float(np.sum(np.abs(_rows(grid, spec)) ** 2) * dsigma))
