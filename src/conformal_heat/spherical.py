"""Spherical harmonic components and factored fields p (x/|x|) f(|x|).

A field on R^N \\ {0} splits over the spherical harmonic spaces H^m.  The
library keeps two concrete representations:

* FactoredField: components p_i tensor f_i as one (k, n) stack of radial
  samples, one row per component, and one integer key per row telling
  which p_i it carries (sign parity for N = 1, signed angular mode for
  N = 2, the degree of an abstract slot for N >= 3).
* GridField2D: full samples on an (angle x log-radius) grid for N = 2, or
  on the two-point sign axis {+1, -1} x log-radius for N = 1.

decompose_1d/decompose_2d turn a grid field into one FactoredField and
recompose_1d/recompose_2d turn it back, each with array operations over all
rows at once.

The projection onto H^m is the integral against the zonal kernel

    (Gamma(N/2) / (2 pi^{N/2})) C~_m^{(N-2)/2}(<w, w'>)

with the unnormalized surface measure on the sphere (total mass
2 pi^{N/2} / Gamma(N/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .log_radial import LogRadialGrid, RadialSamples, weighted_norm
from .special_functions import gegenbauer_tilde


@dataclass
class FactoredField:
    """Spherical components p_i tensor f_i, one radial profile per row.

    ``radial`` holds a (k, n) stack of radial samples and ``m`` one integer
    key per row, the same key as the m column of a field file: the sign
    parity 0/1 for N = 1 (p = 1 or p = sgn), the signed angular mode with
    p = e^{i m phi} for N = 2, and the degree of an abstract slot for
    N >= 3.  The degree of row i is |m[i]|.
    """

    m: np.ndarray
    radial: RadialSamples

    def __post_init__(self):
        self.m = np.asarray(self.m)
        if self.m.dtype.kind not in "iu":
            raise DomainError(f"sector keys must be integers, got dtype {self.m.dtype}")
        rows = self.radial.values
        if rows.ndim != 2 or not len(rows) or self.m.shape != (len(rows),):
            raise DomainError(f"need a (k, n) sample stack with one key per row, got keys of "
                              f"shape {self.m.shape} for samples of shape {rows.shape}")
        if len(np.unique(self.m)) != len(self.m):
            raise DomainError("sector keys must be distinct")
        if self.dim == 1 and not np.isin(self.m, (0, 1)).all():
            raise DomainError("N=1 components carry the parity key 0 or 1")
        if self.dim >= 3 and (self.m < 0).any():
            raise DomainError("N>=3 keys are degrees and must be nonnegative")

    def __len__(self) -> int:
        return len(self.m)

    @property
    def grid(self) -> LogRadialGrid:
        return self.radial.grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def degrees(self) -> np.ndarray:
        return np.abs(self.m)

    def norm(self) -> float:
        """L2 norm of the whole field.

        The tracked spherical parts, one per key, are orthogonal, each of
        norm sqrt(2) for N = 1 (two points of mass one), sqrt(2 pi) for
        N = 2 (|e^{i m phi}| over the circle) and 1 for an abstract slot.
        """
        sphere = {1: math.sqrt(2.0), 2: math.sqrt(2.0 * math.pi)}.get(self.dim, 1.0)
        return sphere * weighted_norm(self.radial)


@dataclass
class GridField2D:
    """Full field samples, angle index first: values[a, j] = F(w_a, r_j).

    For N = 2 the angles are phi_a = 2 pi a / n_phi with n_phi a power of
    two >= 8; for N = 1 the first axis has exactly the two points +1, -1.
    """

    grid: LogRadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.grid.dim
        if n not in (1, 2):
            raise DomainError("grid fields exist for N in {1, 2} only")
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n:
            raise DomainError(f"expected shape (n_angle, {self.grid.n})")
        n_phi = self.values.shape[0]
        if n == 1 and n_phi != 2:
            raise DomainError("N=1 fields carry exactly the two sign points")
        if n == 2 and (n_phi < 8 or n_phi & (n_phi - 1)):
            raise DomainError(f"n_phi={n_phi} must be a power of two >= 8")

    @property
    def n_phi(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        w = self.grid.r ** (self.grid.dim - 2)
        dmu = 2.0 * math.pi / self.n_phi if self.grid.dim == 2 else 1.0
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2 * w) * self.grid.ds * dmu))


_MAX_DIM = 343  # the largest N whose Gamma(N/2) is a float: Gamma(171.5) = 9.5e307, Gamma(172) = 171! > 1.8e308


@lru_cache(maxsize=64)
def _zonal_prefactor(dim: int) -> float:
    """Gamma(N/2) / (2 pi^{N/2}), the zonal kernel's constant; dim keys the cache completely.

    An N past _MAX_DIM is refused (DomainError): its Gamma(N/2) is past
    the float range.  A refusal is not cached, and a cached N pays nothing.
    """
    if dim > _MAX_DIM:
        raise DomainError(f"N = {dim} is too large: Gamma(N/2) is past the float range for N > {_MAX_DIM}")
    return math.gamma(0.5 * dim) / (2.0 * math.pi ** (0.5 * dim))


def projection_kernel(m, dim: int, t):
    """Zonal kernel of the projection onto H^m at cos angle t.

    m and t are taken as by gegenbauer_tilde; a range of degrees gives
    its rows from one recurrence pass, as an array also for a number t.
    """
    if dim < 1:
        raise DomainError("dim must be >= 1")
    rows = gegenbauer_tilde(m, 0.5 * (dim - 2), t)
    return _zonal_prefactor(dim) * (np.array(rows) if isinstance(rows, list) else rows)


def project_pm(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split values (p(+1), p(-1)) on the two-point sphere into parities.

    Returns the even and odd components as value pairs; even is constant,
    odd is proportional to sgn.
    """
    p = np.asarray(p, dtype=complex)
    if p.shape[0] != 2:
        raise DomainError("expected values at the two points +1, -1")
    even = 0.5 * (p[0] + p[1])
    odd = 0.5 * (p[0] - p[1])
    return np.stack([even, even]), np.stack([odd, -odd])


_DROP = 1e-14  # relative cutoff below which an angular mode is considered absent


def decompose_2d(field: GridField2D) -> FactoredField:
    """Angular DFT per radius; one row per surviving mode, modes ascending.

    The row with key m carries p = e^{i m phi} and degree |m|.  Rows whose
    norm is below 1e-14 of the field norm are dropped, so a pure profile
    f(r) comes back as the single m = 0 row.
    """
    grid = field.grid
    if grid.dim != 2:
        raise DomainError("decompose_2d expects an N = 2 field")
    n_phi = field.n_phi
    coeffs = np.fft.fftshift(np.fft.fft(field.values, axis=0) / n_phi, axes=0)
    modes = np.arange(-(n_phi // 2), n_phi // 2)
    # the norm of each row as a component: r^{N-2} = 1 for N = 2
    norms = math.sqrt(2.0 * math.pi) * np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=1) * grid.ds)
    total = field.norm()
    # a zero field drops nothing, so the result is never empty
    kept = ~((total > 0) & (norms <= _DROP * total))
    return FactoredField(modes[kept], RadialSamples(grid, coeffs[kept]))


def recompose_2d(components: FactoredField, n_phi: int | None = None) -> GridField2D:
    """Sum mode rows back onto the angle x radius grid; aliased modes add up."""
    grid = components.grid
    if grid.dim != 2:
        raise DomainError("recompose_2d expects N = 2 components")
    if n_phi is None:
        n_phi = max(8, 2 * (int(components.degrees.max()) + 1))
        n_phi = 1 << (n_phi - 1).bit_length()
    coeffs = np.zeros((n_phi, grid.n), dtype=complex)
    np.add.at(coeffs, components.m % n_phi, components.radial.values)
    return GridField2D(grid, np.fft.ifft(coeffs, axis=0) * n_phi)


def decompose_1d(field: GridField2D) -> FactoredField:
    """Parity split of an N = 1 field along its sign axis: rows m = 0, 1."""
    if field.grid.dim != 1:
        raise DomainError("decompose_1d expects an N = 1 field")
    even, odd = project_pm(field.values)
    return FactoredField(np.array([0, 1]), RadialSamples(field.grid, np.stack([even[0], odd[0]])))


def recompose_1d(components: FactoredField) -> GridField2D:
    """Rebuild an N = 1 field: the even part plus and minus the odd part."""
    if components.dim != 1:
        raise DomainError("recompose_1d expects N = 1 components")
    rows = components.radial.values
    even = rows[components.m == 0].sum(axis=0)
    odd = rows[components.m == 1].sum(axis=0)
    return GridField2D(components.grid, np.stack([even + odd, even - odd]))
