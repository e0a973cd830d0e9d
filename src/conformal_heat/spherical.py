"""Spherical harmonic components and factored fields p (x/|x|) f(|x|).

A field on R^N \\ {0} splits over the spherical harmonic spaces H^m.  The
library keeps two concrete representations:

* FactoredField: one component p tensor f, with p in H^m tracked by a tag
  (sign parity for N = 1, signed angular mode for N = 2, abstract slot for
  N >= 3) and f as radial samples.
* GridField2D: full samples on an (angle x log-radius) grid for N = 2, or
  on the two-point sign axis {+1, -1} x log-radius for N = 1.

The projection onto H^m is the integral against the zonal kernel

    (Gamma(N/2) / (2 pi^{N/2})) C~_m^{(N-2)/2}(<w, w'>)

with the unnormalized surface measure on the sphere (total mass
2 pi^{N/2} / Gamma(N/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .log_radial import LogRadialGrid, RadialSamples, weighted_norm
from .special_functions import gegenbauer_tilde, gegenbauer_tilde_array


@dataclass
class FactoredField:
    """One spherical component p tensor f with p of degree m.

    ``mode`` pins the concrete spherical part where one exists: the sign
    parity 0/1 for N = 1 (p = 1 or p = sgn), the signed angular mode k with
    p = e^{i k phi} for N = 2, and None for the abstract degree-m slot in
    N >= 3.  The degree is always nonnegative; for N = 2 it equals |mode|.
    """

    degree: int
    radial: RadialSamples
    mode: int | None = None

    def __post_init__(self):
        n = self.dim
        if self.degree < 0:
            raise DomainError("degree must be nonnegative")
        if n == 1:
            if self.mode not in (0, 1) or self.degree != self.mode:
                raise DomainError("N=1 components have degree = parity mode in {0, 1}")
        elif n == 2:
            if self.mode is None or abs(self.mode) != self.degree:
                raise DomainError("N=2 components need a signed mode with |mode| = degree")
        elif self.mode is not None:
            raise DomainError("N>=3 spherical parts are abstract; mode must be None")

    @property
    def dim(self) -> int:
        return self.radial.grid.dim

    def sphere_weight(self) -> float:
        """L2 norm of the tracked spherical part (1 for an abstract slot)."""
        if self.dim == 1:
            return math.sqrt(2.0)          # two points of mass one each
        if self.dim == 2:
            return math.sqrt(2.0 * math.pi)  # |e^{ik phi}| over the circle
        return 1.0

    def norm(self) -> float:
        return self.sphere_weight() * weighted_norm(self.radial)


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

    def angles(self) -> np.ndarray:
        if self.grid.dim != 2:
            raise DomainError("angles are defined for N = 2")
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi

    def norm(self) -> float:
        w = self.grid.r ** (self.grid.dim - 2)
        dmu = 2.0 * math.pi / self.n_phi if self.grid.dim == 2 else 1.0
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2 * w) * self.grid.ds * dmu))


def projection_kernel(m: int, dim: int, t):
    """Zonal kernel of the projection onto H^m at cos angle t.

    t may also be an array of cos angles; the row then comes from one
    recurrence pass and equals the scalar calls entry by entry.
    """
    if dim < 1:
        raise DomainError("dim must be >= 1")
    nu = 0.5 * (dim - 2)
    pref = math.gamma(0.5 * dim) / (2.0 * math.pi ** (0.5 * dim))
    if np.ndim(t):
        return pref * gegenbauer_tilde_array(m, nu, t)
    return pref * gegenbauer_tilde(m, nu, t)


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


def decompose_2d(field: GridField2D) -> list[FactoredField]:
    """Angular DFT per radius; returns one component per surviving mode.

    Mode k carries p = e^{i k phi} and degree |k|.  Components whose radial
    norm is below 1e-14 of the field norm are dropped, so a pure profile
    f(r) comes back as the single k = 0 component.
    """
    if field.grid.dim != 2:
        raise DomainError("decompose_2d expects an N = 2 field")
    n_phi = field.n_phi
    coeffs = np.fft.fft(field.values, axis=0) / n_phi
    modes = np.fft.fftfreq(n_phi, d=1.0 / n_phi).astype(int)
    total = field.norm()
    out: list[FactoredField] = []
    for i in np.argsort(modes):
        k = int(modes[i])
        comp = RadialSamples(field.grid, coeffs[i])
        if total > 0 and math.sqrt(2.0 * math.pi) * weighted_norm(comp) <= _DROP * total:
            continue
        out.append(FactoredField(degree=abs(k), radial=comp, mode=k))
    return out


def recompose_2d(components: list[FactoredField], n_phi: int | None = None) -> GridField2D:
    """Sum mode components back onto the angle x radius grid."""
    if not components:
        raise DomainError("nothing to recompose")
    grid = components[0].radial.grid
    if grid.dim != 2:
        raise DomainError("recompose_2d expects N = 2 components")
    if n_phi is None:
        n_phi = max(8, 2 * (max(abs(c.mode) for c in components) + 1))
        n_phi = 1 << (n_phi - 1).bit_length()
    coeffs = np.zeros((n_phi, grid.n), dtype=complex)
    for c in components:
        if c.radial.grid != grid:
            raise DomainError("components live on different grids")
        k = c.mode % n_phi
        coeffs[k] += c.radial.values
    return GridField2D(grid, np.fft.ifft(coeffs, axis=0) * n_phi)


def decompose_1d(field: GridField2D) -> list[FactoredField]:
    """Parity split of an N = 1 field along its sign axis."""
    if field.grid.dim != 1:
        raise DomainError("decompose_1d expects an N = 1 field")
    even, odd = project_pm(field.values)
    return [
        FactoredField(degree=0, radial=RadialSamples(field.grid, even[0]), mode=0),
        FactoredField(degree=1, radial=RadialSamples(field.grid, odd[0]), mode=1),
    ]


def recompose_1d(components: list[FactoredField]) -> GridField2D:
    """Rebuild an N = 1 field from its parity components."""
    if not components:
        raise DomainError("nothing to recompose")
    grid = components[0].radial.grid
    rows = np.zeros((2, grid.n), dtype=complex)
    for c in components:
        if c.dim != 1:
            raise DomainError("recompose_1d expects N = 1 components")
        sign = 1.0 if c.mode == 0 else -1.0
        rows[0] += c.radial.values
        rows[1] += sign * c.radial.values
    return GridField2D(grid, rows)
