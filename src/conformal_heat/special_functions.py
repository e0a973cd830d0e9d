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
from functools import lru_cache

import numpy as np

from .errors import DomainError, SeriesDivergenceError

_T_SLACK = 1e-12  # tolerated |t| overshoot from rounding of inner products


def _check_index(nu: float, degree: int) -> None:
    if nu < -0.5:
        raise DomainError(f"Gegenbauer index nu={nu} must be >= -1/2")
    if degree < 0 or degree != int(degree):
        raise DomainError(f"degree m={degree} must be a nonnegative integer")


def check_tol(tol: float) -> None:
    """Refuse a truncation tolerance outside 0 < tol < inf (NaN included)."""
    if not (0 < tol < math.inf):
        raise DomainError("tol must be finite and positive")


def check_t(t: float) -> float:
    """A cos-angle t in [-1, 1] up to rounding slack, clamped into it; NaN is refused."""
    if not abs(t) <= 1.0 + _T_SLACK:  # NaN fails this test too
        raise DomainError(f"t={t} outside [-1, 1]")
    return min(1.0, max(-1.0, t))


@dataclass(frozen=True)
class GegenbauerParam:
    """Index pair (nu, m) for the Gegenbauer family.

    nu is the half-integer (N - 2)/2 in geometric use but any real
    nu >= -1/2 is accepted; degree m must be a nonnegative integer.
    """

    nu: float
    degree: int

    def __post_init__(self):
        _check_index(self.nu, self.degree)


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
        check_tol(self.tol)


def _gegenbauer_run(top: int, nu: float, t: float) -> list[float]:
    # C_0^nu(t) ... C_top^nu(t); t already checked
    values = [1.0]
    if top >= 1:
        prev, cur = 1.0, 2.0 * nu * t
        values.append(cur)
        for k in range(2, top + 1):
            prev, cur = cur, (2.0 * t * (k + nu - 1.0) * cur - (k + 2.0 * nu - 2.0) * prev) / k
            values.append(cur)
    return values


def _chebyshev_run(top: int, t: float, first: float) -> list[float]:
    # T_0 ... T_top (first = t) or U_0 ... U_top (first = 2 t); t already checked
    values = [1.0]
    if top >= 1:
        prev, cur = 1.0, first
        values.append(cur)
        for _ in range(2, top + 1):
            prev, cur = cur, 2.0 * t * cur - prev
            values.append(cur)
    return values


def gegenbauer_c(m: int, nu: float, t: float) -> float:
    """Gegenbauer polynomial C_m^nu(t) by the three-term recurrence.

    The recurrence m C_m = 2 t (m + nu - 1) C_{m-1} - (m + 2 nu - 2) C_{m-2}
    reproduces the generating-function coefficients for every real nu,
    including nu = 0 (where C_m^0 = 0 for m >= 1) and nu = -1/2.
    """
    _check_index(nu, m)
    return _gegenbauer_run(m, nu, check_t(t))[-1]


def chebyshev_t(m: int, t: float):
    """Chebyshev polynomial of the first kind, T_m(cos x) = cos(m x)."""
    if m < 0:
        raise DomainError("degree must be nonnegative")
    t = check_t(t)
    return _chebyshev_run(m, t, t)[-1]


def chebyshev_u(m: int, t: float):
    """Chebyshev polynomial of the second kind, U_m(cos x) = sin((m+1)x)/sin(x)."""
    if m < 0:
        raise DomainError("degree must be nonnegative")
    t = check_t(t)
    return _chebyshev_run(m, t, 2.0 * t)[-1]


def _tilde_run(first: int, top: int, nu: float, t: float) -> list[float]:
    # C~_first^nu(t) ... C~_top^nu(t), all from one recurrence pass
    _check_index(nu, top)
    t = check_t(t)
    if nu == 0.0:
        values = _chebyshev_run(top, t, t)
        return [2.0 * x if k else 1.0 for k, x in enumerate(values[first:], first)]
    if nu == -0.5 and abs(t) == 1.0:
        return ([1.0, t] + [0.0] * (top - 1))[first : top + 1]
    values = _gegenbauer_run(top, nu, t)
    return [(k + nu) / nu * c for k, c in enumerate(values[first:], first)]


def gegenbauer_tilde(m, nu: float, t: float):
    """Renormalized Gegenbauer C~_m^nu(t) = ((m + nu)/nu) C_m^nu(t).

    nu = 0 goes through the Chebyshev limit (1 for m = 0, 2 T_m otherwise);
    nu = -1/2 at t = +-1 uses the explicit three-value table, the only
    points the two-point sphere provides.

    m is a degree, or range(cut + 1) for the list [C~_0^nu(t), ...,
    C~_cut^nu(t)].  The list costs one recurrence pass, O(cut) operations;
    the scalar form runs the same pass up to degree m, so entry k of the
    list equals gegenbauer_tilde(k, nu, t) exactly.
    """
    if isinstance(m, range):
        if m.start != 0 or m.step != 1 or not m:
            raise DomainError(f"a degree range must be range(cut + 1) with cut >= 0, got {m!r}")
        return _tilde_run(0, len(m) - 1, nu, t)
    return _tilde_run(m, m, nu, t)[0]


def gegenbauer_tilde_array(m: int, nu: float, t) -> np.ndarray:
    """C~_m^nu at every entry of the array t, from one recurrence pass.

    The pass runs the scalar recurrence elementwise, with the same
    operations in the same order, so each entry equals
    gegenbauer_tilde(m, nu, t_i) exactly.  Entries must lie in [-1, 1]
    up to the usual rounding slack; NaN is rejected.
    """
    _check_index(nu, m)
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= 1.0 + _T_SLACK):
        raise DomainError("Gegenbauer arguments must lie in [-1, 1]")
    t = np.minimum(1.0, np.maximum(-1.0, t))
    out = np.empty_like(t)
    if nu == 0.0:
        out[...] = 2.0 * _chebyshev_run(m, t, t)[-1] if m else 1.0
        return out
    out[...] = (m + nu) / nu * _gegenbauer_run(m, nu, t)[-1]
    if nu == -0.5:  # the three-value table at the poles
        poles = np.abs(t) == 1.0
        out[poles] = 1.0 if m == 0 else t[poles] if m == 1 else 0.0
    return out


def gegenbauer_tilde_sup(m: int, nu: float) -> float:
    """Sup of |C~_m^nu| on [-1, 1].

    For nu > 0 the maximum sits at t = 1 where
    C_m^nu(1) = Gamma(m + 2 nu) / (m! Gamma(2 nu)), so the sup is
    ((m + nu)/nu) C_m^nu(1) = O(m^{2 nu + 1}).  For nu = 0 the sup is 1
    (m = 0) or 2.  For nu = -1/2 the table gives 1, 1, 0.
    """
    _check_index(nu, m)
    if nu == 0.0:
        return 1.0 if m == 0 else 2.0
    if nu == -0.5:
        return 1.0 if m <= 1 else 0.0
    if nu < 0:
        raise DomainError(f"no sup bound available for nu={nu}")
    logc = math.lgamma(m + 2.0 * nu) - math.lgamma(m + 1.0) - math.lgamma(2.0 * nu)
    return (m + nu) / nu * math.exp(logc)


@lru_cache(maxsize=1024)
def _theta_cutoff(im_tau: float, im_v: float, tol: float) -> int:
    """First M >= 4 whose single-term bound drops below tol/4.

    The bound exp(-pi Im tau M^2 + 2 pi M |Im v|) (1 + 2 pi M) is shared
    with theta_dv through the 1 + 2 pi M factor.  It reads nothing but
    (Im tau, |Im v|, tol), so those three values key the cache completely;
    a kernel table calls it with one key per (z, tol).
    """
    m = 4
    while True:
        bound = math.exp(-math.pi * im_tau * m * m + 2.0 * math.pi * m * im_v) * (1.0 + 2.0 * math.pi * m)
        if bound < tol / 4.0:
            return m
        m += 1
        if m > 1_000_000:
            raise SeriesDivergenceError(
                f"theta truncation did not certify by M={m}; Im tau = {im_tau} too small for tol = {tol}"
            )


@lru_cache(maxsize=256)
def _theta_terms(tau: complex, cut: int) -> tuple[complex, ...]:
    """exp(i pi tau m^2) for m = 1 .. cut.

    The terms depend on tau and the cutoff alone, so (tau, cut) keys the
    cache completely; theta and theta_dv at one tau share an entry.
    """
    return tuple(cmath.exp(1j * math.pi * tau * m * m) for m in range(1, cut + 1))


def _theta_setup(args: ThetaArgs) -> tuple[complex, tuple[complex, ...]]:
    v, tau = complex(args.v), complex(args.tau)
    cut = _theta_cutoff(tau.imag, abs(v.imag), args.tol)
    return v, _theta_terms(tau, cut)


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
    v, terms = _theta_setup(args)
    total = 1.0 + 0.0j
    for m, e in enumerate(terms, 1):
        total += 2.0 * e * cmath.cos(2.0 * math.pi * m * v)
    return total


def theta_dv(args: ThetaArgs) -> complex:
    """Termwise v-derivative of theta: sum_m 2 i pi m exp(i pi tau m^2 + 2 i pi m v)."""
    v, terms = _theta_setup(args)
    total = 0.0 + 0.0j
    for m, e in enumerate(terms, 1):
        total += -4.0 * math.pi * m * e * cmath.sin(2.0 * math.pi * m * v)
    return total
