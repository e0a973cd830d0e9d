"""Functional calculus for the degenerate generators through the log-radial transform.

The three commuting limit generators act on the degree-m component, after
the unitary U and the Fourier transform, as multiplication operators:

    2 sum x_j d_j + N - 2   ->  2 i sigma,
    i                       ->  i,
    i |x|^2 Delta           ->  -i (sigma^2 + (m + (N-2)/2)^2).

The exponential exp((z1/i)(2 sum x_j d_j + N - 2) + z2 + z3 |x|^2 Delta) is
therefore the Fourier multiplier

    exp(2 z1 sigma + z2 - z3 (sigma^2 + (m + (N-2)/2)^2)).

A factored field holds its sectors as the rows of one array, so
apply_exp_g0 is one batched transform pair with the multiplier broadcast
over a column of degrees; a grid field is decomposed into such a field.

Its operator norm over sigma in R classifies the exponent: unitary when all
three real parts vanish, bounded when Re z1 = 0 and Re z3 >= 0 (the scalar
|e^{z2}| only rescales), unbounded otherwise.  Unbounded exponents are
refused rather than evaluated on a finite grid, where the blowup would be
silently truncated.

For purely imaginary z1 = i t the exponential is the dilation
F -> e^{(N-2) t} F(e^{2 t} x), which on the log grid is an index shift by
2 t / ds; apply_scaling_direct realizes that route without any transform.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridAlignmentError, UnboundedExponentError
from .log_radial import (
    RadialSamples,
    fourier_forward,
    fourier_inverse,
    u_forward,
    u_inverse,
)
from .spherical import FactoredField, GridField2D, decompose_1d, decompose_2d, recompose_1d, recompose_2d


class Boundedness(enum.Enum):
    BOUNDED_UNITARY = "bounded-unitary"
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class G0Exponent:
    """Coefficients (z1, z2, z3) of the degenerate generators in the exponent."""

    z1: complex = 0.0
    z2: complex = 0.0
    z3: complex = 0.0

    def is_zero(self) -> bool:
        return self.z1 == 0 and self.z2 == 0 and self.z3 == 0


def is_bounded(exponent: G0Exponent) -> Boundedness:
    """Classify the multiplier sup over sigma in R and all degrees m."""
    re1, re2, re3 = exponent.z1.real, exponent.z2.real, exponent.z3.real
    if re1 == 0.0 and re3 >= 0.0:
        if re2 == 0.0 and re3 == 0.0:
            return Boundedness.BOUNDED_UNITARY
        return Boundedness.BOUNDED
    return Boundedness.UNBOUNDED


def multiplier(exponent: G0Exponent, m, sigma, dim: int):
    """Evaluate exp(2 z1 sigma + z2 - z3 (sigma^2 + (m + (N-2)/2)^2)).

    m is a degree or an array of degrees; a column of degrees, shape (k, 1),
    against a row of sigma gives the (k, n) multipliers of k sectors.
    """
    m = np.asarray(m)
    if (m < 0).any() or dim < 1:
        raise DomainError("need m >= 0 and dim >= 1")
    sigma = np.asarray(sigma)
    shift = (m + 0.5 * (dim - 2)) ** 2
    out = np.exp(2.0 * exponent.z1 * sigma + exponent.z2 - exponent.z3 * (sigma**2 + shift))
    return complex(out) if out.ndim == 0 else out


def _require_applicable(exponent: G0Exponent) -> None:
    if is_bounded(exponent) is Boundedness.UNBOUNDED:
        raise UnboundedExponentError(
            f"exponent (z1={exponent.z1}, z2={exponent.z2}, z3={exponent.z3}) generates "
            "an unbounded operator (need Re z1 = 0 and Re z3 >= 0); refusing to evaluate"
        )


def apply_exp_g0(exponent: G0Exponent, field: FactoredField) -> FactoredField:
    """Apply the exponential through the spectral route to every sector at once."""
    _require_applicable(exponent)
    if exponent.is_zero():
        return FactoredField(field.m.copy(), field.radial.copy())
    grid = field.grid
    spec = fourier_forward(grid, u_forward(field.radial))
    spec *= multiplier(exponent, field.degrees[:, None], grid.sigma, grid.dim)
    return FactoredField(field.m.copy(), u_inverse(grid, fourier_inverse(grid, spec)))


def apply_exp_g0_grid(exponent: G0Exponent, field: GridField2D) -> GridField2D:
    """Apply the exponential to a full N = 1 or N = 2 grid field."""
    _require_applicable(exponent)
    if exponent.is_zero():  # the identity, with no transform round trip
        return GridField2D(field.grid, field.values.copy())
    if field.grid.dim == 2:
        return recompose_2d(apply_exp_g0(exponent, decompose_2d(field)), n_phi=field.n_phi)
    return recompose_1d(apply_exp_g0(exponent, decompose_1d(field)))


def _shift_steps(t: float, ds: float) -> int:
    steps = 2.0 * t / ds
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise GridAlignmentError(
            f"scaling by t={t} shifts log-radius by 2t={2*t}, not a multiple of ds={ds}"
        )
    return int(round(steps))


def apply_scaling_direct(t: float, field: FactoredField | GridField2D | RadialSamples):
    """Dilation F -> e^{(N-2) t} F(e^{2 t} x) as a grid index shift.

    Needs 2 t to be an integer multiple of ds; the shift wraps periodically,
    which is harmless for data supported away from the grid ends.
    """
    if isinstance(field, FactoredField):
        return FactoredField(field.m.copy(), apply_scaling_direct(t, field.radial))
    grid = field.grid
    values = np.roll(field.values, -_shift_steps(t, grid.ds), axis=-1)
    # scale the parts as reals: a complex product would drop the sign of zeros
    factor = np.exp((grid.dim - 2) * t)
    values.real *= factor
    values.imag *= factor
    return type(field)(grid, values)
