"""Integral kernels of the semigroup exp(z |x|^2 Delta) and their closed forms.

On the degree-m spherical component the semigroup acts through the radial
kernel (valid for Re z > 0)

    K_m(r, r'; z) = (4 pi z)^{-1/2} exp(-z (m + (N-2)/2)^2)
                    exp(-(log r - log r')^2 / (4 z)) (r r')^{-(N-2)/2},

integrated against r'^{N-3} dr'.  Summing the components against the zonal
kernels gives the full-space kernel

    K(r w, r' w'; z) = (Gamma(N/2) / (2 pi^{N/2})) (4 pi z)^{-1/2}
                       exp(-(log r - log r')^2/(4 z)) (r r')^{-(N-2)/2}
                       sum_m exp(-z (m + (N-2)/2)^2) C~_m^{(N-2)/2}(<w, w'>),

with certified truncation of the m-sum.  For N = 1, 2, 4 the sum collapses
to theta-function closed forms.  Every kernel function takes plain
arguments and z as a number or a ComplexTime:

    full_kernel_series(dim, r, r', t, z, tol)    one point, t = <w, w'>
    closed_form(dim, r, r', t, z, tol)           N in {1, 2, 4}, arrays broadcast
    closed_form_1d(r, r', t, z)                  N = 1
    closed_form_2d(r, r', t, z, tol)             N = 2
    closed_form_4d(r, r', t, z, tol)             N = 4

A point is (r w, r' w') with radii r, r' > 0 and t = <w, w'>; for N = 1
the sphere is {+1, -1}, so t is +1 (same sign) or -1 (opposite signs)
and nothing else.  Both routes check a point in one order (_check_point):
dim, radii, t, tol where the route takes one, the regime Re z > 0, then
that (r r')^{-(N-2)/2} is a finite nonzero float (so radii whose
power leaves the float range, or whose product underflows to 0, are
refused, never at N = 2; where r r' alone passes the largest float, the
power is formed from each radius's own), and raise DomainError or
InvalidRegimeError for the first bad one.  A closed-form table raises
what a loop over its rows would raise first.

All square roots of z take the principal branch (Re sqrt >= 0, positive
on the positive reals), tracked explicitly by ComplexTime.  On the line
Re z = 0 the operator is unitary but has no pointwise kernel; those
requests raise InvalidRegimeError and must go through the spectral route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidRegimeError
from .log_radial import LogRadialGrid, RadialSamples
from .special_functions import (
    _T_SLACK,
    _libm,
    check_t,
    check_tol,
    gegenbauer_tilde,
    gegenbauer_tilde_log_sup,
    theta,
    theta_dv,
)
from .spherical import GridField2D, _zonal_prefactor

# beyond this cos-angle the N = 4 closed form loses too much to cancellation
_NEAR_DIAGONAL = 1.0 - 1e-6


@dataclass(frozen=True)
class ComplexTime:
    """Complex semigroup time with its principal square root pinned down.

    It also holds two constants of the series route's Gaussian factor:
    (4 pi z)^{-1/2}, and 4 z as a numpy scalar, by which numpy divides
    with the bits it gets for a Python complex divisor, without
    converting one per call.
    """

    z: complex
    sqrt_z: complex = field(init=False)
    inv_sqrt_4pi_z: complex = field(init=False, repr=False, compare=False)
    four_z: np.complex128 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sqrt_z = cmath.sqrt(self.z)
        object.__setattr__(self, "sqrt_z", sqrt_z)
        # z = +-0 has no kernel, and every route refuses it (Re z > 0) before reading this
        inv = 1.0 / (2.0 * math.sqrt(math.pi) * sqrt_z) if sqrt_z else complex(math.nan, math.nan)
        object.__setattr__(self, "inv_sqrt_4pi_z", inv)
        object.__setattr__(self, "four_z", np.complex128(4.0 * self.z))


def as_time(z) -> ComplexTime:
    return z if isinstance(z, ComplexTime) else ComplexTime(complex(z))


def _require_kernel_regime(ct: ComplexTime) -> ComplexTime:
    if not (ct.z.real > 0):
        raise InvalidRegimeError(
            f"integral kernels need Re z > 0, got z = {ct.z}; "
            "the Re z = 0 unitary regime is spectral-only"
        )
    return ct


def _admissible_t(dim: int, t):
    """Whether t = <w, w'> occurs on S^{N-1}, for a float or elementwise:
    t = +-1 exactly for N = 1, else |t| <= 1 up to rounding slack; never NaN."""
    return abs(t) == 1.0 if dim == 1 else abs(t) <= 1.0 + _T_SLACK


def _check_point(dim: int, r: float, r_prime: float, t: float, ct: ComplexTime, tol: float | None) -> float:
    """Refuse a bad kernel point, checking dim, radii, t, tol (unless None), Re z > 0, then
    that the point's (r r')^{-(N-2)/2} is a finite nonzero float (always so for N = 2).

    Returns that power, the series' radial factor, as math.pow gives it.
    """
    if dim < 1:
        raise DomainError("dim must be >= 1")
    if not (r > 0 and r_prime > 0):  # NaN fails too
        raise DomainError("radii must be positive")
    if not _admissible_t(dim, t):  # checked only: the recurrence and the closed forms clamp t
        if dim == 1:
            raise DomainError("N = 1 admits only t = +1 or t = -1")
        check_t(t)
    if tol is not None:
        check_tol(tol)
    _require_kernel_regime(ct)
    e, rr = -0.5 * (dim - 2), r * r_prime
    try:
        # an r r' past the largest float is formed as the radii's powers, whose product may be a float
        power = math.pow(rr, e) if rr < math.inf else math.pow(r, e) * math.pow(r_prime, e)
    except (ValueError, OverflowError):  # 0 to a negative power; past the largest float
        power = 0.0
    if not 0.0 < power < math.inf:
        raise DomainError(f"radii out of the float range for N = {dim}: (r r')^(-(N-2)/2) is 0 or not finite "
                          f"at r = {float(r)!r}, r' = {float(r_prime)!r}")
    return power


def _check_table(dim: int, r, r_prime, t, ct: ComplexTime, tol: float | None) -> None:
    """Raise what a loop of _check_point over the rows of a table would raise first.

    The checks every row shares (dim, tol, the regime) fail such a loop at
    row 0, so row 0 is checked, then each row whose own radii, t or
    (r r')^{-(N-2)/2} may fail, in order, until one does.  numpy's power
    may round unlike math.pow, so a row whose power here lies within a
    factor 2^24 of either end of the float range is only a suspect, which
    _check_point decides.  An empty table raises nothing.
    """
    with np.errstate(all="ignore"):
        power = (r * r_prime) ** (-0.5 * (dim - 2))
    ok = (r > 0) & (r_prime > 0) & _admissible_t(dim, t) & (power > 2.0**-1050) & (power < 2.0**1000)
    if ok.size:
        for i in [0, *np.flatnonzero(~ok).tolist()]:
            _check_point(dim, float(r.flat[i]), float(r_prime.flat[i]), float(t.flat[i]), ct, tol)


def _gauss_factor(ct: ComplexTime, r, rp, dim: int):
    # (4 pi z)^{-1/2} exp(-(log r - log r')^2 / (4 z)) (r r')^{-(N-2)/2}, over arrays.
    # The power stays an array `**`: on arrays it rounds unlike math.pow, so
    # _gauss_point's libm factors would change radial_kernel's values.
    dlog = np.log(r) - np.log(rp)
    return ct.inv_sqrt_4pi_z * np.exp(-dlog * dlog / (4.0 * ct.z)) * (np.asarray(r) * np.asarray(rp)) ** (-0.5 * (dim - 2))


def _gauss_point(ct: ComplexTime, r: float, rp: float, power: float) -> complex:
    """_gauss_factor at one point (r, r'), with the same bits, given its power from _check_point.

    math.pow and cmath.exp round as numpy's float64 scalar power and
    complex exp do.  np.log and numpy's complex quotient stay: math.log
    and Python's complex division round differently on part of the points.
    """
    dlog = np.log(r) - np.log(rp)
    return ct.inv_sqrt_4pi_z * cmath.exp(-dlog * dlog / ct.four_z) * power


def radial_kernel(m: int, dim: int, r, r_prime, z) -> complex:
    """Degree-m radial kernel K_m(r, r'; z); broadcasts over r, r'."""
    if m < 0 or dim < 1:
        raise DomainError("need m >= 0 and dim >= 1")
    if not (np.all(np.asarray(r) > 0) and np.all(np.asarray(r_prime) > 0)):  # NaN fails too
        raise DomainError("radii must be positive")
    ct = _require_kernel_regime(as_time(z))
    nu = 0.5 * (dim - 2)
    out = cmath.exp(-ct.z * (m + nu) ** 2) * _gauss_factor(ct, r, r_prime, dim)
    return complex(out) if np.ndim(out) == 0 else out


def truncation_degree(dim: int, z, tol: float) -> int:
    """Smallest M with sum_{m > M} sup|C~_m| exp(-Re z (m + nu)^2) < tol."""
    check_tol(tol)
    ct = _require_kernel_regime(as_time(z))
    return _certified_cut(dim, ct.z.real, tol)


@lru_cache(maxsize=256)
def _certified_cut(dim: int, x: float, tol: float) -> int:
    """truncation_degree for validated arguments, with x = Re z > 0.

    The term bounds read only nu = (dim - 2)/2, Re z and tol, so
    (dim, Re z, tol) keys the cache completely; a kernel table asks for
    one key per point and computes it once.
    """
    if dim == 1:
        return 1  # C~_m^{-1/2}(t) vanishes for m >= 2 at t = +-1, the only N = 1 angles
    nu = 0.5 * (dim - 2)
    # Accumulate certified term bounds until the leftover tail is provably
    # geometric with ratio <= 1/2, then pick the first admissible M.  The
    # bounds sup|C~_m| exp(-x (m + nu)^2) are compared as their logs, which
    # stay finite where the bounds underflow to 0 or pass the float range.
    log_half, log_quarter_tol = -math.log(2.0), math.log(tol) - math.log(4.0)

    def stops(m: int, log_sup: float, log_sup_before: float) -> bool:
        log_ratio = log_sup - log_sup_before - x * (2.0 * (m + nu) - 1.0)
        return log_ratio <= log_half and log_sup - x * (m + nu) ** 2 <= log_quarter_tol

    # Once the ratio test holds it holds for every larger m, and then so
    # does the bound test: a walk that stops by the last m passes both there.
    last = 200_000
    if not stops(last, gegenbauer_tilde_log_sup(last, nu), gegenbauer_tilde_log_sup(last - 1, nu)):
        raise InvalidRegimeError(f"no certified truncation for Re z = {x}, tol = {tol}")
    log_sups = [gegenbauer_tilde_log_sup(0, nu)]
    for m in range(1, last + 1):
        log_sups.append(gegenbauer_tilde_log_sup(m, nu))
        if stops(m, log_sups[m], log_sups[m - 1]):
            break
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp(np.array(log_sups) - x * (np.arange(len(log_sups)) + nu) ** 2).tolist()
    # terms[-1] bounds the tail beyond the last computed index (ratio <= 1/2)
    cut = len(terms) - 1
    tail = terms[-1]
    while cut >= 1 and tail + terms[cut] < tol:
        tail += terms[cut]
        cut -= 1
    return cut


@lru_cache(maxsize=256)
def _series_weights(z: complex, nu: float, cut: int) -> tuple[complex, ...]:
    """exp(-z (m + nu)^2) for m = 0 .. cut.

    The weights are a function of (z, nu, cut) alone, so that triple keys
    the cache completely; every point of a kernel table shares one entry.
    A phase Im z (m + nu)^2 past the float range has no weight: refused.
    """
    exponents = [-z * (m + nu) ** 2 for m in range(cut + 1)]
    for m, exponent in enumerate(exponents):
        if not math.isfinite(exponent.imag):
            raise InvalidRegimeError(f"no kernel value for z = {z}: the phase Im z (m + (N-2)/2)^2 of the "
                                     f"series passes the float range at m = {m}")
    return tuple(map(cmath.exp, exponents))


def full_kernel_series(dim: int, r: float, r_prime: float, t: float, z, tol: float = 1e-12) -> complex:
    """Full kernel K(r w, r' w'; z) with t = <w, w'>, by the truncated Gegenbauer series.

    z is a number or a ComplexTime.  The arguments are checked in the
    order dim, radii, t (+-1 alone for N = 1), tol, then the regime
    Re z > 0.  The absolute truncation error is at most tol times the
    Gaussian prefactor (the zonal prefactor Gamma(N/2)/(2 pi^{N/2}) < 1
    shrinks it further).  One call costs O(cut): the weights and the
    zonal prefactor come from caches and the C~_m from one recurrence
    pass, summed in increasing m.

    The bytes are those of the numpy formula in _gauss_factor, so two of
    its factors stay numpy at this one point: np.log (math.log differs in
    the last bit on about 0.3% of points) and the complex quotient
    -dlog^2/(4 z) (Python's complex division differs on most points at
    complex z).  The power and the exponential go through math.pow and
    cmath.exp, which round as numpy's scalar operations do.
    """
    ct = as_time(z)
    power = _check_point(dim, r, r_prime, t, ct, tol)
    nu = 0.5 * (dim - 2)
    cut = truncation_degree(dim, ct, tol)
    weights = _series_weights(ct.z, nu, cut)
    # A plain += loop, not sum(): from CPython 3.14 on, sum() of complex
    # values compensates its adds and would change the last bits.
    acc = 0j
    for w, c in zip(weights, gegenbauer_tilde(range(cut + 1), nu, t)):
        acc += w * c
    return _zonal_prefactor(dim) * _gauss_point(ct, r, r_prime, power) * acc


def _columns(*values):
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def _as_result(values, shape: tuple):
    out = np.asarray(values, dtype=complex).reshape(shape)
    return complex(out) if out.ndim == 0 else out


def _gauss_rows(ct: ComplexTime, r, r_prime) -> list[complex]:
    """exp(-(log r - log r')^2 / (4 z)) at each row, as a flat list.

    libm's log and Python's complex arithmetic per row, so entry i has
    the bits of the one-point call.
    """
    dlog = _libm(math.log, r) - _libm(math.log, r_prime)
    quarter = 4.0 * ct.z
    return [cmath.exp(g / quarter) for g in (-dlog * dlog).ravel().tolist()]


def _products(r: np.ndarray, r_prime: np.ndarray):
    """r r' per row, and (i, r_i, r'_i) for each flat row i whose product passes the largest float."""
    with np.errstate(over="ignore"):
        rr = r * r_prime
    return rr, [(i, r.flat[i], r_prime.flat[i]) for i in np.flatnonzero(rr == math.inf).tolist()]


def closed_form_1d(r, r_prime, t, z):
    """N = 1 kernel between the points r and t r' of R \\ {0}.

    t = +1 puts the points on the same side of 0, t = -1 on opposite
    sides, where the kernel vanishes.  r, r_prime and t are numbers or
    arrays that broadcast together; the result is a complex, or a complex
    array of the broadcast shape.  A bad row anywhere raises what a loop
    over the rows would raise first.
    """
    ct = as_time(z)
    r, r_prime, t = _columns(r, r_prime, t)
    _check_table(1, r, r_prime, t, ct, None)
    if not r.size:  # the prefactor has no value at z = 0, which a table with rows refuses
        return np.empty(r.shape, dtype=complex)
    pref = cmath.exp(-ct.z / 4.0) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    rr, past = _products(r, r_prime)
    roots = np.sqrt(rr).ravel().tolist()
    for i, a, b in past:  # (r r')^(1/2) as _check_point forms it
        roots[i] = math.pow(a, 0.5) * math.pow(b, 0.5)
    values = [
        0.0 + 0.0j if opposite else pref * gauss * root
        for opposite, gauss, root in zip((t < 0).ravel().tolist(), _gauss_rows(ct, r, r_prime), roots)
    ]
    return _as_result(values, r.shape)


def closed_form_2d(r, r_prime, t, z, tol: float = 1e-14):
    """N = 2 kernel through the theta function.

    The angular separation a = arccos t in [0, pi] enters as
    theta(a/(2 pi), i z / pi).

    r, r_prime and t are numbers or arrays that broadcast together: a
    table costs one array theta call, and the Gaussian factor and the
    final products run per row in scalar arithmetic, so entry i equals the
    call at row i exactly.  A bad row anywhere raises what a loop over the
    rows would raise first.
    """
    ct = as_time(z)
    r, r_prime, t = _columns(r, r_prime, t)
    _check_table(2, r, r_prime, t, ct, tol)
    if not r.size:  # theta would refuse the tau of a Re z <= 0 table with no rows
        return np.empty(r.shape, dtype=complex)
    a = _libm(math.acos, np.clip(t, -1.0, 1.0))
    pref = 1.0 / (2.0 * math.pi) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    th = theta(a / (2.0 * math.pi), 1j * ct.z / math.pi, tol)
    values = [pref * gauss * h for gauss, h in zip(_gauss_rows(ct, r, r_prime), np.ravel(th).tolist())]
    return _as_result(values, r.shape)


def closed_form_4d(r, r_prime, t, z, tol: float = 1e-14):
    """N = 4 kernel through the v-derivative of theta.

    Uses the identity sum_m exp(-z (m+1)^2) (m+1) U_m(cos a) =
    -(4 pi sin a)^{-1} theta_dv(a/(2 pi), i z / pi).  Within 1e-6 of the
    poles t = +-1 the sin-a cancellation is avoided by falling back to the
    Gegenbauer series, which is regular there (U_m(1) = m + 1).

    r, r_prime and t are numbers or arrays that broadcast together: the
    rows away from the poles cost one array theta_dv call, with the
    Gaussian factor and the final products per row in scalar arithmetic;
    each near-pole row makes its own series call.  Entry i equals the call
    at row i exactly, and a bad row anywhere raises what a loop over the
    rows would raise first.
    """
    ct = as_time(z)
    r, r_prime, t = _columns(r, r_prime, t)
    _check_table(4, r, r_prime, t, ct, tol)
    shape = r.shape
    r, r_prime, t = r.ravel(), r_prime.ravel(), np.clip(t, -1.0, 1.0).ravel()
    out = np.empty(t.shape, dtype=complex)
    near = np.abs(t) > _NEAR_DIAGONAL
    for i in np.flatnonzero(near).tolist():
        out[i] = full_kernel_series(4, float(r[i]), float(r_prime[i]), float(t[i]), ct, tol)
    far = ~near
    if far.any():
        r, r_prime, t = r[far], r_prime[far], t[far]
        dv = theta_dv(_libm(math.acos, t) / (2.0 * math.pi), 1j * ct.z / math.pi, tol)
        pref = -1.0 / (8.0 * math.pi**3) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
        rr, past = _products(r, r_prime)
        gauss, quotients = _gauss_rows(ct, r, r_prime), rr.tolist()
        for i, a, b in past:  # times (r r')^-1 as _check_point forms it, in place of the quotient
            gauss[i], quotients[i] = gauss[i] * (math.pow(a, -1.0) * math.pow(b, -1.0)), 1.0
        out[far] = [pref * g / q / s * d for g, q, s, d in zip(
            gauss, quotients, np.sqrt(1.0 - t * t).tolist(), dv.tolist())]
    return _as_result(out, shape)


def closed_form(dim: int, r, r_prime, t, z, tol: float = 1e-14):
    """The closed form of the kernel for N in {1, 2, 4}.

    The N = 1 form needs no tol, but the tol given is checked all the
    same, in the series' order, so both routes refuse the same calls.
    closed_form_1d, _2d and _4d are looked up by name when called, so a
    wrapper put on this module's names sees every call.
    """
    if dim == 1:
        _check_table(1, *_columns(r, r_prime, t), as_time(z), tol)
        return closed_form_1d(r, r_prime, t, z)
    if dim == 2:
        return closed_form_2d(r, r_prime, t, z, tol)
    if dim == 4:
        return closed_form_4d(r, r_prime, t, z, tol)
    raise DomainError(f"closed forms exist for N in {{1, 2, 4}}, not N = {dim}")


_BUILD_ROWS = 64  # rows per block of the quadrature matrix build


def radial_semigroup_matrix(dim: int, z, grid: LogRadialGrid) -> np.ndarray:
    """Quadrature matrix B with (B f)_j = int K_0-part; degree enters later.

    B already folds in the measure weights r'^{N-2} ds but not the degree
    factor exp(-z (m + nu)^2):  apply_radial_kernel multiplies it back.
    The Gaussian depends on s_j - s_k = (j - k) ds only, so it is evaluated
    once per offset (2n - 1 exponentials) and read as a Toeplitz view; the
    diagonal weights are then applied in blocks of 64 rows, written
    straight into the result, so no n x n temporary is made and each
    block's weights stay in cache.  The result is still a dense n x n
    complex array, so callers doing many degrees at a fixed (dim, z)
    should pass apply_radial_kernel a degree range, which builds it once.
    """
    ct = _require_kernel_regime(as_time(z))
    s, n = grid.s, grid.n
    d = grid.ds * np.arange(n - 1, -n, -1)
    row = np.exp(-d * d / (4.0 * ct.z)) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    # row[n - 1 + k - j] holds offset (j - k) ds: reversed windows are Toeplitz
    base = np.lib.stride_tricks.sliding_window_view(row, n)[::-1]
    half = -0.5 * (dim - 2)
    left = np.exp(half * s)
    right = np.exp(half * s) * grid.r ** (dim - 2) * grid.ds
    out = np.empty((n, n), dtype=row.dtype)
    for i in range(0, n, _BUILD_ROWS):
        rows = slice(i, i + _BUILD_ROWS)
        np.multiply(base[rows], np.outer(left[rows], right), out=out[rows])
    return out


def apply_radial_kernel(f: RadialSamples, m, z):
    """Apply the degree-m semigroup by direct kernel quadrature.

    m is a degree, or a range of degrees such as range(M + 1) for the list
    of results at m = 0 .. M.  The degrees differ only in the scalar
    exp(-z (m + nu)^2), so the list costs one matrix build and one
    product with it, and entry k equals the call at degree m[k] exactly.
    """
    degrees = m if isinstance(m, range) else (m,)
    if any(k < 0 for k in degrees):
        raise DomainError("need m >= 0")
    if f.values.ndim != 1:
        raise DomainError("apply_radial_kernel takes one radial profile, not a stack of rows")
    ct = _require_kernel_regime(as_time(z))
    if not degrees:
        return []
    grid = f.grid
    nu = 0.5 * (grid.dim - 2)
    # numpy's own loops, not BLAS: the same bits on every thread count, and no BLAS call in a forked child
    product = np.einsum("jk,k->j", radial_semigroup_matrix(grid.dim, ct, grid), f.values, optimize=False)
    out = [RadialSamples(grid, cmath.exp(-ct.z * (k + nu) ** 2) * product) for k in degrees]
    return out if isinstance(m, range) else out[0]


def apply_full_kernel_2d(field, z, tol: float = 1e-13):
    """Apply the N = 2 semigroup to a grid field by separated quadrature.

    The kernel factors as an s-Toeplitz Gaussian times the angular theta
    factor, so the double integral is two one-dimensional quadratures.
    """
    ct = _require_kernel_regime(as_time(z))
    if field.grid.dim != 2:
        raise DomainError("expected an N = 2 grid field")
    grid = field.grid
    n_phi = field.n_phi
    radial = radial_semigroup_matrix(2, ct, grid)
    tau = 1j * ct.z / math.pi
    th_row = theta(np.arange(n_phi) / n_phi, tau, tol)
    idx = (np.arange(n_phi)[:, None] - np.arange(n_phi)[None, :]) % n_phi
    angular = th_row[idx] / n_phi  # (1/2pi) theta(dphi/2pi) dphi with dphi = 2pi/n_phi
    return GridField2D(grid, angular @ field.values @ radial.T)


def apply_full_kernel_1d(field, z):
    """Apply the N = 1 semigroup on the two-sign grid; signs do not mix."""
    ct = _require_kernel_regime(as_time(z))
    if field.grid.dim != 1:
        raise DomainError("expected an N = 1 grid field")
    grid = field.grid
    base = radial_semigroup_matrix(1, ct, grid)
    scale = cmath.exp(-ct.z / 4.0)  # (m + nu)^2 = 1/4 for both parities
    rows = np.stack([scale * (base @ field.values[0]), scale * (base @ field.values[1])])
    return GridField2D(grid, rows)
