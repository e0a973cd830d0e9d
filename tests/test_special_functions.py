"""Renormalized Gegenbauer and theta checks against independent oracles."""

from __future__ import annotations

import cmath
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conformal_heat import special_functions
from conformal_heat.errors import DomainError, SeriesDivergenceError
from conformal_heat.special_functions import (
    check_t,
    gegenbauer_tilde,
    gegenbauer_tilde_sup,
    theta,
    theta_dv,
)


def _conv_exact(a, b, order):
    res = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj and i + j <= order:
                    res[i + j] += ai * bj
    return res


def _tilde_coeffs(nu: float, t: float, order: int) -> np.ndarray:
    # Expand (1 - u)^(-nu), u = 2 t xi - xi^2, to the coefficients C_m^nu
    # and scale them to ((m + nu)/nu) C_m^nu.  At nu = 0 the limit of the
    # scaled coefficients is 1 for m = 0 and, for m >= 1, m times those of
    # -log(1 - u) = sum u^k / k.
    # This is the defining series, independent of the recurrence under
    # test.  Exact rationals throughout: float convolution cancels ~10
    # digits at order 25 for |t| near 1.
    nu_q, t_q = Fraction(nu), Fraction(t)
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    u = [Fraction(0)] * (order + 1)
    if order >= 1:
        u[1] = 2 * t_q
    if order >= 2:
        u[2] = Fraction(-1)
    upow = list(out)
    binom = Fraction(1)
    for k in range(1, order + 1):
        binom *= (nu_q + k - 1) / k
        upow = _conv_exact(upow, u, order)
        weight = binom if nu else Fraction(1, k)
        out = [c + weight * p for c, p in zip(out, upow)]
    scale = [(m + nu_q) / nu_q if nu else max(m, 1) for m in range(order + 1)]
    return np.array([float(f * c) for f, c in zip(scale, out)])


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.5, -0.5, 0.0])
@pytest.mark.parametrize("t", [-0.9, 0.0, 0.7])
def test_gegenbauer_matches_generating_function(nu, t):
    coeffs = _tilde_coeffs(nu, t, 25)
    got = np.array([gegenbauer_tilde(m, nu, t) for m in range(26)])
    assert_allclose(got, coeffs, rtol=1e-10, atol=1e-10)


def test_gegenbauer_frozen_values():
    # frozen from the generating-function expansion: C_3^1(1) = 4, C_2^1(0) = -1
    assert gegenbauer_tilde(3, 1.0, 1.0) == pytest.approx(4.0 * 4.0, abs=1e-14)
    assert gegenbauer_tilde(2, 1.0, 0.0) == pytest.approx(3.0 * -1.0, abs=1e-14)


def test_tilde_nu0_is_chebyshev_limit():
    assert gegenbauer_tilde(0, 0.0, 0.3) == 1.0
    # frozen: 2 T_2(0) = -2
    assert gegenbauer_tilde(2, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)
    for m in range(1, 8):
        for t in (-0.8, 0.1, 0.9):
            assert gegenbauer_tilde(m, 0.0, t) == pytest.approx(2.0 * math.cos(m * math.acos(t)), abs=1e-13)


@pytest.mark.parametrize("nu", [1e-7, -1e-7])
def test_tilde_continuous_at_nu0(nu):
    # ((m+nu)/nu) C_m^nu -> 2 T_m as nu -> 0
    for m in (1, 3, 6):
        for t in (-0.6, 0.4):
            lim = gegenbauer_tilde(m, nu, t)
            assert lim == pytest.approx(2.0 * math.cos(m * math.acos(t)), rel=1e-5)


def test_tilde_table_nu_minus_half():
    for sign in (1.0, -1.0):
        assert gegenbauer_tilde(0, -0.5, sign) == 1.0
        assert gegenbauer_tilde(1, -0.5, sign) == sign
        for m in (2, 3, 7):
            assert gegenbauer_tilde(m, -0.5, sign) == 0.0


@pytest.mark.parametrize("nu,m", [(0.5, 3), (0.5, 8), (1.0, 5), (2.0, 8)])
def test_tilde_sup_bound(nu, m):
    grid = np.linspace(-1.0, 1.0, 1001)
    observed = max(abs(gegenbauer_tilde(m, nu, t)) for t in grid)
    bound = gegenbauer_tilde_sup(m, nu)
    assert observed == pytest.approx(bound, rel=1e-9)
    gamma_form = (m + nu) / nu * math.exp(
        math.lgamma(m + 2 * nu) - math.lgamma(m + 1) - math.lgamma(2 * nu)
    )
    assert bound == pytest.approx(gamma_form, rel=1e-12)


def test_chebyshev_cos_identities():
    # C~_m^0 = 2 T_m (m >= 1) and C~_m^1 = (m + 1) U_m, with T_m(cos x) =
    # cos(m x) and U_m(cos x) = sin((m + 1) x) / sin(x)
    for theta_ang in (0.3, 1.1, 2.7):
        t = math.cos(theta_ang)
        for m in range(1, 9):
            assert gegenbauer_tilde(m, 0.0, t) / 2.0 == pytest.approx(math.cos(m * theta_ang), abs=1e-12)
        for m in range(9):
            assert gegenbauer_tilde(m, 1.0, t) / (m + 1) == pytest.approx(
                math.sin((m + 1) * theta_ang) / math.sin(theta_ang), abs=1e-11
            )


def test_chebyshev_u_at_one():
    # frozen limit value: C~_3^1(1) = 4 U_3(1) = 4 * 4, checked against 4 sin(4x)/sin(x)
    assert gegenbauer_tilde(3, 1.0, 1.0) == pytest.approx(16.0, abs=1e-14)
    x = 1e-8
    assert gegenbauer_tilde(3, 1.0, 1.0) / 4.0 == pytest.approx(math.sin(4 * x) / math.sin(x), abs=1e-8)


def _direct_theta(v, tau, order=200):
    return sum(
        cmath.exp(1j * math.pi * tau * m * m + 2j * math.pi * m * v)
        for m in range(-order, order + 1)
    )


def _direct_theta_dv(v, tau, order=200):
    return sum(
        2j * math.pi * m * cmath.exp(1j * math.pi * tau * m * m + 2j * math.pi * m * v)
        for m in range(-order, order + 1)
    )


@pytest.mark.parametrize(
    "v,tau",
    [(0.0, 1j), (0.25, 1j), (0.3, 0.4 + 0.9j), (0.1 + 0.05j, 0.6j), (-0.7, 0.2 + 0.35j)],
)
def test_theta_against_direct_summation(v, tau):
    got = theta(v, tau, 1e-15)
    want = _direct_theta(v, tau)
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))
    got_dv = theta_dv(v, tau, 1e-15)
    want_dv = _direct_theta_dv(v, tau)
    assert abs(got_dv - want_dv) < 1e-12 * max(1.0, abs(want_dv))


def test_theta_frozen_value_at_i():
    # frozen by direct summation of 1 + 2 sum exp(-pi m^2)
    assert abs(theta(0.0, 1j, 1e-15) - 1.086434811213308) < 1e-12


def test_theta_cosine_form():
    partial = 1.0 + 2.0 * sum(
        math.exp(-math.pi * m * m) * math.cos(math.pi * m / 2.0) for m in range(1, 40)
    )
    assert theta(0.25, 1j, 1e-15) == pytest.approx(partial, abs=1e-14)


@pytest.mark.parametrize("v,tau", [(0.2, 0.5j), (-0.15, 0.3j), (0.37, 0.2 + 0.8j)])
def test_theta_dv_finite_differences(v, tau):
    h = 1e-5
    d = theta_dv(v, tau, 1e-15)
    fd = (theta(v + h, tau, 1e-15) - theta(v - h, tau, 1e-15)) / (2 * h)
    assert abs(d - fd) / abs(d) < 1e-8


def test_theta_even_and_periodic():
    for v, tau in ((0.3, 0.7j), (0.12, 0.4 + 0.5j)):
        a = theta(v, tau, 1e-15)
        assert abs(a - theta(-v, tau, 1e-15)) < 1e-14 * abs(a)
        assert abs(a - theta(v + 1.0, tau, 1e-15)) < 1e-12 * abs(a)


_RANGE_CASES = [(-0.5, 1.0), (-0.5, -1.0)] + [
    (nu, t)
    for nu in (0.0, 0.5, 1.0, 1.5)
    for t in [1.0, -1.0, 0.0, *np.random.default_rng(7).uniform(-1.0, 1.0, 3).tolist()]
]


@pytest.mark.parametrize("nu, t", _RANGE_CASES)
def test_tilde_range_equals_scalar_calls(nu, t):
    for cut in (0, 1, 2, 37):
        run = np.array(gegenbauer_tilde(range(cut + 1), nu, t))
        one = np.array([gegenbauer_tilde(k, nu, t) for k in range(cut + 1)])
        np.testing.assert_array_equal(run.view(np.uint64), one.view(np.uint64))


@pytest.mark.parametrize("bad", [range(0), range(1, 5), range(0, 6, 2)])
def test_tilde_range_must_start_at_zero(bad):
    with pytest.raises(DomainError):
        gegenbauer_tilde(bad, 1.0, 0.3)


def _bits(values) -> np.ndarray:
    # complex values read as two int64 words each: real and imaginary bits
    values = np.asarray(values)
    return values.astype(complex if np.iscomplexobj(values) else float).view(np.int64)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5])
def test_tilde_array_equals_scalar_calls_bit_for_bit(nu):
    t = np.concatenate([[1.0, -1.0, 0.0, 1.0 + 5e-13, -1.0 - 5e-13],
                        np.random.default_rng(11).uniform(-1.0, 1.0, 40)]).reshape(5, 9)
    for m in (0, 1, 2, 3, 20):
        got = gegenbauer_tilde(m, nu, t)
        assert got.shape == t.shape
        want = [[gegenbauer_tilde(m, nu, x) for x in row] for row in t.tolist()]
        assert all(type(x) is float for row in want for x in row)
        assert np.array_equal(_bits(got), _bits(want))
        # and entry m of the list form, which runs the recurrence on floats
        listed = [[gegenbauer_tilde(range(m + 1), nu, x)[m] for x in row] for row in t.tolist()]
        assert np.array_equal(_bits(got), _bits(listed))


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5])
def test_tilde_range_over_an_array_stacks_the_degree_rows_bit_for_bit(nu):
    # the poles, their rounding slack and a negative zero, in a 2-D t
    t = np.concatenate([[1.0, -1.0, 1.0 + 5e-13, -1.0 - 5e-13, -0.0],
                        np.random.default_rng(13).uniform(-1.0, 1.0, 7)]).reshape(3, 4)
    for top in (0, 1, 2, 20):
        rows = gegenbauer_tilde(range(top + 1), nu, t)
        assert rows.shape == (top + 1, *t.shape)
        for k, row in enumerate(rows):
            assert np.array_equal(_bits(row), _bits(gegenbauer_tilde(k, nu, t)))
        floats = [[gegenbauer_tilde(range(top + 1), nu, x) for x in line] for line in t.tolist()]
        assert np.array_equal(_bits(rows), _bits(np.moveaxis(np.array(floats), -1, 0)))
    # the poles of the nu = -1/2 table are +0, not a zero of either sign
    if nu == -0.5:
        assert _bits(gegenbauer_tilde(range(4), nu, np.array([1.0, -1.0]))[2:]).tolist() == [[0, 0], [0, 0]]


@pytest.mark.parametrize("t", [[0.2, 1.1], [float("nan")], [-1.0 - 1e-9]])
def test_tilde_array_rejects_arguments_outside_the_interval(t):
    with pytest.raises(DomainError):
        gegenbauer_tilde(2, 0.5, np.array(t))


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.5])
def test_an_integral_float_degree_is_its_integer(nu):
    # the index check admits 2.0, as gegenbauer_tilde_sup does; it was a TypeError in the recurrence
    t = np.array([-1.0, -0.3, 0.3, 1.0])
    assert _bits(gegenbauer_tilde(2.0, nu, 0.3)) == _bits(gegenbauer_tilde(2, nu, 0.3))
    assert np.array_equal(_bits(gegenbauer_tilde(2.0, nu, t)), _bits(gegenbauer_tilde(2, nu, t)))
    with pytest.raises(DomainError):
        gegenbauer_tilde(2.5, nu, 0.3)


def test_tilde_array_checks_the_index():
    with pytest.raises(DomainError):
        gegenbauer_tilde(-1, 0.5, np.zeros(3))
    with pytest.raises(DomainError):
        gegenbauer_tilde(2, -0.7, np.zeros(3))


def _termwise_theta(v, tau, tol):
    """theta and theta_dv at one point by the scalar termwise loop."""
    cut = 4
    while math.exp(-math.pi * tau.imag * cut * cut + 2.0 * math.pi * cut * abs(complex(v).imag)) * (
        1.0 + 2.0 * math.pi * cut
    ) >= tol / 4.0:
        cut += 1
    th, dv = 1.0 + 0.0j, 0.0 + 0.0j
    for m in range(1, cut + 1):
        th += 2.0 * cmath.exp(1j * math.pi * tau * m * m) * cmath.cos(2.0 * math.pi * m * v)
        dv += -4.0 * math.pi * m * cmath.exp(1j * math.pi * tau * m * m) * cmath.sin(2.0 * math.pi * m * v)
    return th, dv


def test_theta_equals_termwise_loop():
    # the loops the cached terms replaced, bit for bit
    for v, tau in [(0.13, 0.3 + 0.4j), (0.2 + 0.05j, 0.1 + 0.15j), (0.0, 1j)]:
        for _ in range(2):  # the second call reads the caches
            th, dv = _termwise_theta(v, tau, 1e-13)
            assert theta(v, tau, 1e-13) == th
            assert theta_dv(v, tau, 1e-13) == dv


def _theta_points(kind: str) -> np.ndarray:
    rng = np.random.default_rng({"real": 1, "complex": 2, "mixed": 3}[kind])
    x = np.concatenate([[0.0, -0.0, 0.5, -0.5, 1.0], rng.uniform(-1.0, 1.0, 395)])
    if kind == "real":
        return x
    if kind == "complex":
        return x + 1j * rng.uniform(-0.2, 0.2, x.size)
    # a few |Im v| values, so entries sum to different cutoffs
    return x + 1j * rng.choice([0.0, -0.0, 0.03, -0.03, 0.25], x.size)


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
@pytest.mark.parametrize("tau, tol", [(0.3 + 0.4j, 1e-13), (1j * (0.5 + 0.2j) / math.pi, 1e-10), (1j, 1e-15)])
def test_theta_arrays_equal_termwise_loop_bit_for_bit(kind, tau, tol):
    v = _theta_points(kind)
    want = [_termwise_theta(p, tau, tol) for p in v.tolist()]
    shaped = v.reshape(20, 20)
    th, dv = theta(shaped, tau, tol), theta_dv(shaped, tau, tol)
    assert th.shape == dv.shape == (20, 20) and th.dtype == dv.dtype == complex
    assert np.array_equal(_bits(th.ravel()), _bits([w[0] for w in want]))
    assert np.array_equal(_bits(dv.ravel()), _bits([w[1] for w in want]))


def test_theta_scalar_is_the_zero_dimensional_case():
    args = (0.3 + 0.01j, 0.2 + 0.5j, 1e-12)
    assert type(theta(*args)) is complex and type(theta_dv(*args)) is complex
    empty = (np.zeros((0, 3)), 0.5j)
    assert theta(*empty).shape == theta_dv(*empty).shape == (0, 3)


def test_theta_divergence_guard():
    for f in (theta, theta_dv):
        with pytest.raises(SeriesDivergenceError):
            f(0.0, 1.0 + 0.0j)
        with pytest.raises(SeriesDivergenceError):
            f(0.0, 0.5 - 0.1j)


@pytest.mark.parametrize("v, tau, tol", [(0.0, 1e-12j, 1e-10), (0.3 + 0.01j, 0.2 + 1e-11j, 1e-300),
                                         (0.1 + 2j, 5e-14j, 1e-20)])
def test_a_refused_theta_cutoff_is_decided_before_the_walk(monkeypatch, v, tau, tol):
    # the log of the term bound is concave in M: at least tol/4 at M = 4 and
    # at M = 1,000,000, it is so between, and the walk of a million bounds
    # (which overflows first at the last two taus) is not made
    calls = []

    def counted(name):
        def bound(*args):
            calls.append(name)
            return getattr(math, name)(*args)
        return bound

    spy = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    spy.exp, spy.log1p = counted("exp"), counted("log1p")
    monkeypatch.setattr(special_functions, "math", spy)
    for f in (theta, theta_dv):
        with pytest.raises(SeriesDivergenceError) as refused:
            f(v, tau, tol)
        assert str(refused.value) == (f"theta truncation did not certify by M=1000001; Im tau = {tau.imag} "
                                      f"too small for tol = {tol}")
    assert len(calls) <= 8


@pytest.mark.parametrize("v, tau", [(0.1 + 0.1j, 1e-6j), (0.4 - 0.2j, 0.3 + 1e-5j)])
def test_a_theta_walk_past_the_float_range_is_refused(v, tau):
    # both ends of the walk pass the pre-check, but its bound leaves the
    # float range between them, where the sum's cosh would overflow too
    for f in (theta, theta_dv):
        with pytest.raises(SeriesDivergenceError, match="^theta terms pass the float range at M="):
            f(v, tau, 1e-10)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-14])
def test_theta_args_need_finite_positive_tol(tol):
    for f in (theta, theta_dv):
        with pytest.raises(DomainError):
            f(0.1, 0.5j, tol)


def test_domain_guards():
    with pytest.raises(DomainError):
        gegenbauer_tilde(2, 1.0, 1.5)
    with pytest.raises(DomainError):
        gegenbauer_tilde(-1, 1.0, 0.0)
    with pytest.raises(DomainError):
        gegenbauer_tilde(2, -1.0, 0.3)
    with pytest.raises(DomainError):
        gegenbauer_tilde_sup(4, -0.25)
    # a hair beyond 1 from rounding is tolerated
    assert gegenbauer_tilde(2, 1.0, 1.0 + 5e-13) == pytest.approx(gegenbauer_tilde(2, 1.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda t: gegenbauer_tilde(3, 0.5, t),
    lambda t: gegenbauer_tilde(range(4), 0.5, t),
    lambda t: gegenbauer_tilde(3, 0.5, np.array([0.2, t])),
    lambda t: gegenbauer_tilde(range(4), 0.5, np.array([0.2, t])),
    lambda t: gegenbauer_tilde(3, 0.0, t),
    lambda t: gegenbauer_tilde(3, 1.0, t),
], ids=["tilde", "tilde-range", "tilde-array", "tilde-range-array", "chebyshev-t", "chebyshev-u"])
def test_nan_argument_is_refused(call):
    # a NaN t used to pass the range check and be clamped to t = -1
    with pytest.raises(DomainError):
        call(math.nan)


def test_check_t_clamps_the_rounding_slack_only():
    assert check_t(1.0 + 1e-13) == 1.0 and check_t(-1.0 - 1e-13) == -1.0
    assert check_t(0.3) == 0.3 and math.copysign(1.0, check_t(-0.0)) == -1.0
    for bad in (math.nan, 1.0 + 2e-12, -1.0 - 2e-12):
        with pytest.raises(DomainError, match="outside"):
            check_t(bad)
