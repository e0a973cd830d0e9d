"""Gegenbauer polynomials, Chebyshev polynomials, and the Jacobi theta function.

Gegenbauer polynomials are defined through the generating function

    (1 - 2 t xi + xi^2)^(-nu) = sum_{m>=0} C_m^nu(t) xi^m,

and evaluated by the standard three-term recurrence.  The renormalized
family is C~_m^nu = ((m + nu)/nu) C_m^nu for nu != 0; at nu = 0 the limit
is C~_0^0 = 1 and C~_m^0 = 2 T_m for m >= 1, which is evaluated through
the Chebyshev route (never by dividing by nu).  At nu = -1/2 the only
geometric evaluation points are t = +-1, where

    C~_m^{-1/2}(+-1) = 1 (m = 0),  +-1 (m = 1),  0 (m >= 2).

The theta function uses the convention

    theta(v, tau) = sum_{m in Z} exp(i pi tau m^2 + 2 i pi m v),  Im tau > 0,

with termwise v-derivative theta_dv.  Both truncate the sum by the same
certified rule, see :func:`theta`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, SeriesDivergenceError

_T_SLACK = 1e-12  # tolerated |t| overshoot from rounding of inner products


@dataclass(frozen=True)
class GegenbauerParam:
    """Index pair (nu, m) for the Gegenbauer family.

    nu is the half-integer (N - 2)/2 in geometric use but any real
    nu >= -1/2 is accepted; degree m must be a nonnegative integer.
    """

    nu: float
    degree: int

    def __post_init__(self):
        if self.nu < -0.5:
            raise DomainError(f"Gegenbauer index nu={self.nu} must be >= -1/2")
        if self.degree < 0 or self.degree != int(self.degree):
            raise DomainError(f"degree m={self.degree} must be a nonnegative integer")


@dataclass(frozen=True)
class ThetaArgs:
    """Arguments (v, tau, tol) for the theta series; requires Im tau > 0."""

    v: complex
    tau: complex
    tol: float = 1e-14

    def __post_init__(self):
        if not (self.tau.imag > 0):
            raise SeriesDivergenceError(
                f"theta series diverges for Im tau = {self.tau.imag}; need Im tau > 0"
            )
        if not (0 < self.tol < math.inf):
            raise DomainError("tol must be finite and positive")


def _check_t(t: float) -> float:
    if abs(t) > 1.0 + _T_SLACK:
        raise DomainError(f"Gegenbauer argument t={t} outside [-1, 1]")
    return min(1.0, max(-1.0, t))


def gegenbauer_c(m: int, nu: float, t: float) -> float:
    """Gegenbauer polynomial C_m^nu(t) by the three-term recurrence.

    The recurrence m C_m = 2 t (m + nu - 1) C_{m-1} - (m + 2 nu - 2) C_{m-2}
    reproduces the generating-function coefficients for every real nu,
    including nu = 0 (where C_m^0 = 0 for m >= 1) and nu = -1/2.
    """
    GegenbauerParam(nu, m)
    t = _check_t(t)
    if m == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * nu * t
    for k in range(2, m + 1):
        prev, cur = cur, (2.0 * t * (k + nu - 1.0) * cur - (k + 2.0 * nu - 2.0) * prev) / k
    return cur


def chebyshev_t(m: int, t: float):
    """Chebyshev polynomial of the first kind, T_m(cos x) = cos(m x)."""
    if m < 0:
        raise DomainError("degree must be nonnegative")
    t = _check_t(t)
    if m == 0:
        return 1.0
    prev, cur = 1.0, t
    for _ in range(2, m + 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def chebyshev_u(m: int, t: float):
    """Chebyshev polynomial of the second kind, U_m(cos x) = sin((m+1)x)/sin(x)."""
    if m < 0:
        raise DomainError("degree must be nonnegative")
    t = _check_t(t)
    if m == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * t
    for _ in range(2, m + 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def gegenbauer_tilde(m: int, nu: float, t: float) -> float:
    """Renormalized Gegenbauer C~_m^nu(t) = ((m + nu)/nu) C_m^nu(t).

    nu = 0 goes through the Chebyshev limit (1 for m = 0, 2 T_m otherwise);
    nu = -1/2 at t = +-1 uses the explicit three-value table, the only
    points the two-point sphere provides.
    """
    GegenbauerParam(nu, m)
    t = _check_t(t)
    if nu == 0.0:
        return 1.0 if m == 0 else 2.0 * chebyshev_t(m, t)
    if nu == -0.5 and abs(t) == 1.0:
        if m == 0:
            return 1.0
        return t if m == 1 else 0.0
    return (m + nu) / nu * gegenbauer_c(m, nu, t)


def gegenbauer_tilde_sup(m: int, nu: float) -> float:
    """Sup of |C~_m^nu| on [-1, 1].

    For nu > 0 the maximum sits at t = 1 where
    C_m^nu(1) = Gamma(m + 2 nu) / (m! Gamma(2 nu)), so the sup is
    ((m + nu)/nu) C_m^nu(1) = O(m^{2 nu + 1}).  For nu = 0 the sup is 1
    (m = 0) or 2.  For nu = -1/2 the table gives 1, 1, 0.
    """
    GegenbauerParam(nu, m)
    if nu == 0.0:
        return 1.0 if m == 0 else 2.0
    if nu == -0.5:
        return 1.0 if m <= 1 else 0.0
    if nu < 0:
        raise DomainError(f"no sup bound available for nu={nu}")
    logc = math.lgamma(m + 2.0 * nu) - math.lgamma(m + 1.0) - math.lgamma(2.0 * nu)
    return (m + nu) / nu * math.exp(logc)


def _theta_cutoff(args: ThetaArgs) -> int:
    # First M >= 4 whose single-term bound (shared with theta_dv through the
    # 1 + 2 pi M factor) drops below tol/4.
    im_tau = args.tau.imag
    im_v = abs(complex(args.v).imag)
    m = 4
    while True:
        bound = math.exp(-math.pi * im_tau * m * m + 2.0 * math.pi * m * im_v) * (1.0 + 2.0 * math.pi * m)
        if bound < args.tol / 4.0:
            return m
        m += 1
        if m > 1_000_000:
            raise SeriesDivergenceError(
                f"theta truncation did not certify by M={m}; Im tau = {im_tau} too small for tol = {args.tol}"
            )


def theta(args: ThetaArgs) -> complex:
    """Jacobi theta function theta(v, tau) = sum_m exp(i pi tau m^2 + 2 i pi m v).

    Parameters
    ----------
    args : ThetaArgs
        Holds v (complex), tau (complex with Im tau > 0) and the absolute
        truncation tolerance tol.

    Returns
    -------
    complex
        The series summed over |m| <= M, where M is the first index >= 4
        with exp(-pi Im tau M^2) (1 + 2 pi M) exp(2 pi M |Im v|) < tol/4.

    Notes
    -----
    The function is even and 1-periodic in v termwise, so both properties
    hold to roundoff.  Raises SeriesDivergenceError when Im tau <= 0.
    """
    cut = _theta_cutoff(args)
    v, tau = complex(args.v), complex(args.tau)
    total = 1.0 + 0.0j
    for m in range(1, cut + 1):
        total += 2.0 * cmath.exp(1j * math.pi * tau * m * m) * cmath.cos(2.0 * math.pi * m * v)
    return total


def theta_dv(args: ThetaArgs) -> complex:
    """Termwise v-derivative of theta: sum_m 2 i pi m exp(i pi tau m^2 + 2 i pi m v)."""
    cut = _theta_cutoff(args)
    v, tau = complex(args.v), complex(args.tau)
    total = 0.0 + 0.0j
    for m in range(1, cut + 1):
        total += -4.0 * math.pi * m * cmath.exp(1j * math.pi * tau * m * m) * cmath.sin(2.0 * math.pi * m * v)
    return total
