"""Renormalized Gegenbauer functions and the Jacobi theta function.

Gegenbauer polynomials are defined through the generating function

    (1 - 2 t xi + xi^2)^(-nu) = sum_{m>=0} C_m^nu(t) xi^m,

and evaluated by the standard three-term recurrence.  The library uses
only the renormalized family C~_m^nu = ((m + nu)/nu) C_m^nu for nu != 0;
at nu = 0 the limit is C~_0^0 = 1 and C~_m^0 = 2 T_m for m >= 1, which
is evaluated through the Chebyshev recurrence (never by dividing by nu).
At nu = -1/2 the only geometric evaluation points are t = +-1, where

    C~_m^{-1/2}(+-1) = 1 (m = 0),  +-1 (m = 1),  0 (m >= 2).

The theta function uses the convention

    theta(v, tau) = sum_{m in Z} exp(i pi tau m^2 + 2 i pi m v),  Im tau > 0,

with termwise v-derivative theta_dv.  Both are called as f(v, tau, tol)
with tol = 1e-14 by default, refuse Im tau <= 0 (SeriesDivergenceError)
and then a tol outside 0 < tol < inf (DomainError), truncate the sum by
the same certified rule, see :func:`theta`, and take v as a number or as
an array of points, summed with one array operation per term.
"""

from __future__ import annotations

import cmath
import math
import operator
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
    return t if -1.0 <= t <= 1.0 else (1.0 if t > 0 else -1.0)


def _gegenbauer_run(top: int, nu: float, t: float) -> list[float]:
    # C_0^nu(t) ... C_top^nu(t); t already checked
    values = [1.0]
    if top >= 1:
        prev, cur = 1.0, 2.0 * nu * t
        values.append(cur)
        two_t = 2.0 * t
        for k in range(2, top + 1):
            prev, cur = cur, (two_t * (k + nu - 1.0) * cur - (k + 2.0 * nu - 2.0) * prev) / k
            values.append(cur)
    return values


def _chebyshev_run(top: int, t: float) -> list[float]:
    # T_0(t) ... T_top(t); t already checked
    values = [1.0]
    if top >= 1:
        prev, cur = 1.0, t
        values.append(cur)
        for _ in range(2, top + 1):
            prev, cur = cur, 2.0 * t * cur - prev
            values.append(cur)
    return values


@lru_cache(maxsize=64)
def _tilde_factors(nu: float, top: int) -> tuple[float, ...]:
    """(k + nu)/nu for k = 0 .. top; (nu, top) keys the cache completely."""
    return tuple((k + nu) / nu for k in range(top + 1))


def _tilde_run(top: int, nu: float, t: float) -> list[float]:
    # C~_0^nu(t) ... C~_top^nu(t), all from one recurrence pass
    _check_index(nu, top)
    t = check_t(t)
    if nu == 0.0:
        return [1.0] + [2.0 * x for x in _chebyshev_run(top, t)[1:]]
    if nu == -0.5 and abs(t) == 1.0:
        return ([1.0, t] + [0.0] * (top - 1))[: top + 1]
    return list(map(operator.mul, _tilde_factors(nu, top), _gegenbauer_run(top, nu, t)))


def gegenbauer_tilde(m, nu: float, t):
    """Renormalized Gegenbauer C~_m^nu(t) = ((m + nu)/nu) C_m^nu(t).

    nu = 0 goes through the Chebyshev limit (1 for m = 0, 2 T_m otherwise);
    nu = -1/2 at t = +-1 uses the explicit three-value table, the only
    points the two-point sphere provides.

    m is a degree, or range(cut + 1) for the list [C~_0^nu(t), ...,
    C~_cut^nu(t)].  The list costs one recurrence pass, O(cut) operations.
    For a degree, t is a number or an array of cos angles: the recurrence
    runs up to degree m once, elementwise, and a float comes back for a
    number.  Both forms perform the same operations in the same order, so
    entry k of the list and entry i of an array equal the calls
    gegenbauer_tilde(k, nu, t) and gegenbauer_tilde(m, nu, t_i) exactly.
    """
    if isinstance(m, range):
        if m.start != 0 or m.step != 1 or not m:
            raise DomainError(f"a degree range must be range(cut + 1) with cut >= 0, got {m!r}")
        return _tilde_run(len(m) - 1, nu, t)
    _check_index(nu, m)
    m = int(m)  # an integral float such as 2.0 passes the check: the recurrence counts to int(m)
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= 1.0 + _T_SLACK):  # NaN fails this test too
        raise DomainError("Gegenbauer arguments must lie in [-1, 1]")
    t = np.minimum(1.0, np.maximum(-1.0, t))
    out = np.empty_like(t)
    if nu == 0.0:
        out[...] = 2.0 * _chebyshev_run(m, t)[-1] if m else 1.0
    else:
        out[...] = (m + nu) / nu * _gegenbauer_run(m, nu, t)[-1]
        if nu == -0.5:  # the three-value table at the poles
            poles = np.abs(t) == 1.0
            out[poles] = 1.0 if m == 0 else t[poles] if m == 1 else 0.0
    return float(out) if out.ndim == 0 else out


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
    return (m + nu) / nu * math.exp(_log_c_at_one(m, nu))


def _log_c_at_one(m: int, nu: float) -> float:
    """log C_m^nu(1) = log(Gamma(m + 2 nu) / (m! Gamma(2 nu))) for nu > 0."""
    return math.lgamma(m + 2.0 * nu) - math.lgamma(m + 1.0) - math.lgamma(2.0 * nu)


def gegenbauer_tilde_log_sup(m: int, nu: float) -> float:
    """log gegenbauer_tilde_sup(m, nu) for nu >= 0, finite also where the sup is past the float range."""
    if nu == 0.0:
        return 0.0 if m == 0 else math.log(2.0)
    return math.log((m + nu) / nu) + _log_c_at_one(m, nu)


def _theta_cutoff(im_tau: float, im_v: float, tol: float) -> int:
    """First M >= 4 whose single-term bound drops below tol/4.

    The bound exp(-pi Im tau M^2 + 2 pi M |Im v|) (1 + 2 pi M) is shared
    with theta_dv through the 1 + 2 pi M factor.  Its log is concave in M,
    so where it is at least log(tol/4) at M = 4 and at M = 10^6 it is so
    between, and the refusal needs no walk (both ends are taken in logs,
    which do not overflow).  A walk whose exponential passes the float
    range on the way is refused too: the terms, and cosh(2 pi M Im v) in
    the sum, would overflow before the cutoff.
    """
    log_quarter_tol = math.log(tol) - math.log(4.0)
    if any(-math.pi * im_tau * m * m + 2.0 * math.pi * m * im_v + math.log1p(2.0 * math.pi * m) < log_quarter_tol
           for m in (4, 10**6)):
        for m in range(4, 10**6 + 1):
            log_term = -math.pi * im_tau * m * m + 2.0 * math.pi * m * im_v
            try:
                bound = math.exp(log_term) * (1.0 + 2.0 * math.pi * m)
            except OverflowError:
                raise SeriesDivergenceError(
                    f"theta terms pass the float range at M={m} (log of the bound {log_term:.6g}); "
                    f"Im tau = {im_tau} too small for |Im v| = {im_v}"
                ) from None
            if bound < tol / 4.0:
                return m
    raise SeriesDivergenceError(
        f"theta truncation did not certify by M={10**6 + 1}; Im tau = {im_tau} too small for tol = {tol}"
    )


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn from math at each entry of x, where numpy's ufunc rounds differently.

    numpy's cosh, sinh, arccos and log differ from libm in the last bit
    on part of their arguments; cos, sin and sqrt agree on 1M samples
    each (x86-64 with AVX-512, numpy 2.4, glibc).  The golden kernel
    fixtures catch a platform where they do not.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _theta_sum(v, tau, tol: float, start: float, weight, trig):
    """start + sum_m weight(m, e_m) * trig(2 pi m v), per entry of v.

    Refuses Im tau <= 0, then a tol outside 0 < tol < inf, then a term
    whose phase pi Re tau m^2 passes the float range.  Each entry is
    summed to its own certified cutoff, in increasing m, with the real
    operations that cmath and complex arithmetic perform on a scalar, so
    entry i equals the scalar sum at v_i exactly.
    trig(cos_x, sin_x, cosh_y, sinh_y) returns the real and imaginary
    parts of cos or sin at x + iy from the four real factors cmath uses.
    """
    if not (tau.imag > 0):
        raise SeriesDivergenceError(f"theta series diverges for Im tau = {tau.imag}; need Im tau > 0")
    check_tol(tol)
    v = np.asarray(v, dtype=complex)
    tau = complex(tau)
    x, y = v.real.ravel(), v.imag.ravel()
    keys, which = np.unique(np.abs(y), return_inverse=True)
    cuts = np.array([_theta_cutoff(tau.imag, k, tol) for k in keys.tolist()], dtype=int)
    cut = cuts[which]
    complex_v = np.flatnonzero(y != 0.0)
    re, im = np.full(x.shape, start), np.zeros(x.shape)
    for m in range(1, int(cuts.max(initial=0)) + 1):
        exponent = 1j * math.pi * tau * m * m
        if not math.isfinite(exponent.imag):  # a phase with no float value: no term
            raise DomainError(f"theta phases pass the float range at m={m}: Re tau = {tau.real}")
        e = cmath.exp(exponent)
        f = 2.0 * math.pi * m
        px, hy = f * x, -(f * y)  # 2 pi m v, and the real part of i (2 pi m v)
        ch, sh = np.ones(x.shape), hy.copy()  # cosh and sinh where hy = +-0
        if complex_v.size:
            ch[complex_v], sh[complex_v] = _libm(math.cosh, hy[complex_v]), _libm(math.sinh, hy[complex_v])
        c, d = trig(np.cos(px), np.sin(px), ch, sh)
        w = weight(m, e)
        live = cut >= m
        np.add(re, w.real * c - w.imag * d, out=re, where=live)
        np.add(im, w.real * d + w.imag * c, out=im, where=live)
    out = np.empty(v.shape, dtype=complex)
    out.real, out.imag = re.reshape(v.shape), im.reshape(v.shape)
    return complex(out) if out.ndim == 0 else out


def theta(v, tau: complex, tol: float = 1e-14):
    """Jacobi theta function theta(v, tau) = sum_m exp(i pi tau m^2 + 2 i pi m v).

    Parameters
    ----------
    v : complex or ndarray
        A real or complex number, or an array of them (one point per entry).
    tau : complex
        Shared by every point; needs Im tau > 0.
    tol : float
        Absolute truncation tolerance, finite and positive.

    Returns
    -------
    complex or ndarray
        A complex for a scalar v, else a complex array of v's shape.  The
        series is summed over |m| <= M, where M is the first index >= 4
        with exp(-pi Im tau M^2) (1 + 2 pi M) exp(2 pi M |Im v|) < tol/4.

    Notes
    -----
    The cutoff is chosen per entry from that entry's |Im v|: an array
    with mixed |Im v| sums each entry to its own M (real v share one).
    Every term is one array operation over all entries, with the same
    real operations as cmath.cos and complex arithmetic at one point, so
    entry i equals the scalar call at v_i bit for bit (while
    2 pi M |Im v_i| <= 708, beyond which cmath switches to an
    overflow-safe formula).  The function is even and 1-periodic in v
    termwise, so both properties hold to roundoff.  Raises
    SeriesDivergenceError when Im tau <= 0, then DomainError for a bad tol
    or a phase past the float range.
    """
    # cmath.cos(x + iy) = (cos x cosh(-y), sin x sinh(-y))
    return _theta_sum(v, tau, tol, 1.0, lambda m, e: 2.0 * e,
                      lambda cx, sx, ch, sh: (cx * ch, sx * sh))


def theta_dv(v, tau: complex, tol: float = 1e-14):
    """Termwise v-derivative of theta: sum_m 2 i pi m exp(i pi tau m^2 + 2 i pi m v).

    Takes the same arguments, checks, cutoff and array forms as
    :func:`theta`; entry i equals the scalar call at v_i bit for bit.
    """
    # cmath.sin(x + iy) = (sin x cosh(-y), -(cos x sinh(-y)))
    return _theta_sum(v, tau, tol, 0.0, lambda m, e: -4.0 * math.pi * m * e,
                      lambda cx, sx, ch, sh: (sx * ch, -(cx * sh)))
