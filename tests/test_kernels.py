"""Kernel evaluation, truncation certificates, and closed theta forms."""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_heat import kernels
from conformal_heat.errors import DomainError, InvalidRegimeError, SeriesDivergenceError
from conformal_heat.kernels import (
    ComplexTime,
    _gauss_factor,
    apply_full_kernel_1d,
    apply_full_kernel_2d,
    apply_radial_kernel,
    as_time,
    closed_form,
    closed_form_1d,
    closed_form_2d,
    closed_form_4d,
    full_kernel_series,
    radial_kernel,
    radial_semigroup_matrix,
    truncation_degree,
)
from conformal_heat.log_radial import LogRadialGrid, RadialSamples, u_inverse, weighted_norm
from conformal_heat.spectral_calculus import G0Exponent, apply_exp_g0_grid
from conformal_heat.spherical import GridField2D
from conformal_heat.special_functions import (
    _chebyshev_run,
    check_t,
    gegenbauer_tilde,
    gegenbauer_tilde_log_sup,
    gegenbauer_tilde_sup,
    theta,
    theta_dv,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_complex_time_principal_branch():
    for z in (1.0, 4j, -1 + 0.1j, 0.3 - 0.2j):
        ct = as_time(z)
        assert ct.sqrt_z**2 == pytest.approx(complex(z), rel=1e-15)
        assert ct.sqrt_z.real >= 0
    assert ComplexTime(4.0).sqrt_z == 2.0


def test_radial_kernel_formula():
    # written out independently of the implementation
    m, dim, r, rp = 2, 3, 1.4, 0.6
    z = 0.5 + 0.2j
    nu = 0.5 * (dim - 2)
    dlog = math.log(r) - math.log(rp)
    want = (
        cmath.exp(-z * (m + nu) ** 2)
        / cmath.sqrt(4 * math.pi * z)
        * cmath.exp(-dlog**2 / (4 * z))
        * (r * rp) ** (-nu)
    )
    assert radial_kernel(m, dim, r, rp, z) == pytest.approx(want, rel=1e-14)


def test_radial_kernel_semigroup_quadrature():
    grid = LogRadialGrid(3, -16.0, 16.0, 2048)
    rho = grid.r
    w = rho ** (grid.dim - 2) * grid.ds
    z1, z2 = 0.3, 0.5
    for r, rp in ((0.7, 1.1), (1.5, 0.8)):
        composed = np.sum(radial_kernel(1, 3, r, rho, z1) * radial_kernel(1, 3, rho, rp, z2) * w)
        direct = radial_kernel(1, 3, r, rp, z1 + z2)
        assert abs(composed - direct) / abs(direct) < 1e-6


def test_truncation_degree_examples():
    assert truncation_degree(2, 1.0, 1e-12) <= 8
    for tol in (math.inf, math.nan, 0.0, -1e-12):
        with pytest.raises(DomainError):
            truncation_degree(3, 0.5, tol)
    assert truncation_degree(1, 0.2, 1e-15) == 1
    assert truncation_degree(4, 0.5, 1e-15) >= truncation_degree(4, 0.5, 1e-9)


def test_truncation_validates_before_its_cache():
    assert truncation_degree(3, 0.45, 1e-11) > 0
    with pytest.raises(DomainError):
        truncation_degree(3, 0.45, math.inf)
    with pytest.raises(InvalidRegimeError):
        truncation_degree(3, -0.45, 1e-11)
    with pytest.raises(InvalidRegimeError):
        truncation_degree(3, 0.45j, 1e-11)


def _log_tail(dim: int, x: float, cut: int) -> float:
    """sum_{m > cut} sup|C~_m| exp(-x (m + nu)^2) over 2000 terms, each from its log."""
    nu = 0.5 * (dim - 2)
    return math.fsum(math.exp(gegenbauer_tilde_log_sup(m, nu) - x * (m + nu) ** 2) for m in range(cut + 1, cut + 2001))


def test_truncation_cuts_match_the_frozen_table():
    # truncation_degree(N, Re z, tol) as the code gave it before any term
    # bound was compared in logs, null where it refused: there every term
    # bound from m = 0 on underflowed to 0.  Every cut it gave stays, and
    # each refusal is now a cut whose tail is below tol.
    table = json.loads((FIXTURES / "truncation_cuts.json").read_text())
    assert len(table["cuts"]) * len(table["re_z"]) * len(table["tol"]) == 900
    refused = 0
    for dim, rows in table["cuts"].items():
        for x, cuts in zip(table["re_z"], rows):
            for tol, frozen in zip(table["tol"], cuts):
                cut = truncation_degree(int(dim), x, tol)
                if frozen is None:
                    refused += 1
                    assert _log_tail(int(dim), x, cut) < tol
                else:
                    assert cut == frozen, (dim, x, tol)
    assert refused == 117


@pytest.mark.parametrize("dim, x", [(5, 335.0), (6, 200.0), (4, 800.0), (3, 3000.0), (12, 1e308)])
def test_an_underflowed_first_bound_certifies_cut_zero(dim, x):
    # e^{-Re z nu^2} underflows at m = 0 already; it was "no certified truncation"
    assert truncation_degree(dim, x, 1e-10) == 0
    assert full_kernel_series(dim, 1.0, 1.0, 0.5, x, 1e-10) == 0.0


def test_a_sup_bound_past_the_float_range_is_compared_in_logs():
    # at N = 1000 the sup bound passes the float range from m = 308 on (an
    # OverflowError before); the terms peak near e^1291 at Re z = 1e-4
    cut = truncation_degree(1000, 1e-4, 1e-10)
    assert gegenbauer_tilde_log_sup(cut, 499.0) > math.log(sys.float_info.max)
    assert _log_tail(1000, 1e-4, cut) < 1e-10
    with pytest.raises(InvalidRegimeError, match="no certified truncation for Re z = 1e-320"):
        truncation_degree(1000, 1e-320 + 1e300j, 1e-10)


@pytest.mark.parametrize("dim, x, tol", [(1000, 1e-320, 1e-10), (60, 1e-6, 1e-300), (3, 1e-9, 1e-12)])
def test_a_refused_truncation_is_decided_before_the_walk(monkeypatch, dim, x, tol):
    # the walk would form 200,000 term bounds before refusing; the two stop
    # tests at its last degree decide the refusal from two of them
    calls = []

    def counted(m, nu):
        calls.append(m)
        return gegenbauer_tilde_log_sup(m, nu)

    monkeypatch.setattr(kernels, "gegenbauer_tilde_log_sup", counted)
    with pytest.raises(InvalidRegimeError) as refused:
        truncation_degree(dim, x, tol)
    assert str(refused.value) == f"no certified truncation for Re z = {x}, tol = {tol}"
    assert len(calls) <= 4


@pytest.mark.parametrize("dim, x, tol", [(40, 8.5e-4, 1e-267), (54, 0.13, 1e-297), (18, 1.25e-3, 1e-292),
                                         (30, 1e-3, 1e-280)])
def test_an_underflowed_gaussian_factor_is_not_taken_as_zero(dim, x, tol):
    # where e^{-x (m + nu)^2} underflows, sup|C~_m| may still be huge: the
    # product taken as 0 certified cuts 917, 49, 764 and 849, whose tails
    # are above tol
    assert _log_tail(dim, x, truncation_degree(dim, x, tol)) < tol


def test_log_sup_is_the_log_of_the_sup():
    for nu in (0.0, 0.5, 1.0, 4.5):
        for m in (0, 1, 2, 7, 40):
            assert gegenbauer_tilde_log_sup(m, nu) == pytest.approx(math.log(gegenbauer_tilde_sup(m, nu)), rel=1e-13,
                                                                    abs=1e-13)


def test_zero_time_is_refused_as_its_regime():
    # z = +-0 has no square root to divide by: refused as Re z = 0, not by a ZeroDivisionError
    for z in (0j, complex(0.0, -0.0), complex(-0.0, 0.0)):
        ct = as_time(z)
        with pytest.raises(InvalidRegimeError, match="need Re z > 0"):
            full_kernel_series(3, 1.0, 1.0, 0.5, ct)
        with pytest.raises(InvalidRegimeError, match="need Re z > 0"):
            closed_form(1, 1.0, 1.0, 1.0, ct)
        with pytest.raises(InvalidRegimeError, match="need Re z > 0"):
            radial_kernel(0, 3, 1.0, 1.0, z)
        assert closed_form_1d(np.empty(0), np.empty(0), np.empty(0), z).shape == (0,)


@pytest.mark.parametrize("dim, z, t", [
    (3, 0.5, 0.3), (3, 0.05 + 0.1j, -0.7), (3, 0.05 + 0.1j, 1.0), (2, 0.2, -0.4),
    (4, 0.4 + 0.2j, 0.999), (5, 0.3, 0.1), (1, 0.3, -1.0),
])
def test_series_equals_per_degree_sum(dim, z, t):
    # the per-degree sum written out: one scalar weight and C~_m per degree
    ct = as_time(z)
    nu = 0.5 * (dim - 2)
    acc = 0.0 + 0.0j
    for m in range(truncation_degree(dim, z, 1e-10) + 1):
        acc += cmath.exp(-ct.z * (m + nu) ** 2) * gegenbauer_tilde(m, nu, t)
    pref = math.gamma(0.5 * dim) / (2.0 * math.pi ** (0.5 * dim))
    want = complex(pref * _gauss_factor(ct, 0.7, 1.6, dim) * acc)
    assert full_kernel_series(dim, 0.7, 1.6, t, z, 1e-10) == want
    assert full_kernel_series(dim, 0.7, 1.6, t, ct, 1e-10) == want  # again, from the caches


def _numpy_series(dim: int, r: float, rp: float, t: float, ct: ComplexTime, tol: float) -> complex:
    """full_kernel_series written out with numpy factors and a plain loop.

    Every factor is computed in full per call, with no cache: the
    weights, the Gegenbauer recurrence with its coefficients and the
    (k + nu)/nu factors, a loop sum, the zonal prefactor, and the
    Gaussian factor from numpy scalar operations (np.exp and a float64
    power included).  The series route must match it bit for bit.
    """
    nu = 0.5 * (dim - 2)
    cut = truncation_degree(dim, ct, tol)
    t = check_t(t)
    if nu == 0.0:
        tildes = [2.0 * x if k else 1.0 for k, x in enumerate(_chebyshev_run(cut, t))]
    elif nu == -0.5 and abs(t) == 1.0:
        tildes = ([1.0, t] + [0.0] * (cut - 1))[: cut + 1]
    else:
        gegen = [1.0, 2.0 * nu * t]
        for k in range(2, cut + 1):
            gegen.append((2.0 * t * (k + nu - 1.0) * gegen[-1] - (k + 2.0 * nu - 2.0) * gegen[-2]) / k)
        tildes = [(k + nu) / nu * x for k, x in enumerate(gegen[: cut + 1])]
    acc = 0.0 + 0.0j
    for w, c in zip([cmath.exp(-ct.z * (m + nu) ** 2) for m in range(cut + 1)], tildes):
        acc += w * c
    pref = math.gamma(0.5 * dim) / (2.0 * math.pi ** (0.5 * dim))
    dlog = np.log(r) - np.log(rp)
    inv_sqrt = 1.0 / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    gauss = (inv_sqrt * np.exp(-dlog * dlog / (4.0 * ct.z))
             * (np.asarray(r) * np.asarray(rp)) ** (-0.5 * (dim - 2)))
    return complex(pref * gauss * acc)


@pytest.mark.parametrize("z", [0.5, complex(0.5, -0.0), 0.05 + 0.1j, 0.4 + 0.2j, 0.01])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_series_has_the_bits_of_the_numpy_formula(dim, z):
    rng = np.random.default_rng(1000 * dim + int(100 * abs(z)))
    near_pole = 1.0 - 1e-6 * rng.random(8)
    ts = np.concatenate([[1.0, -1.0, 0.0, 1.0 + 1e-13, -1.0 - 1e-13], rng.uniform(-1.0, 1.0, 20),
                         near_pole, -near_pole])
    if dim == 1:  # the sphere S^0 has t = +-1 alone
        ts = np.where(ts < 0, -1.0, 1.0)
    r, rp = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (2, ts.size)))
    ct = as_time(z)
    points = list(zip(r.tolist(), rp.tolist(), ts.tolist()))
    got = [full_kernel_series(dim, a, b, c, ct, 1e-10) for a, b, c in points]
    assert all(type(v) is complex for v in got)
    np.testing.assert_array_equal(_bits(got), _bits([_numpy_series(dim, a, b, c, ct, 1e-10) for a, b, c in points]))


@pytest.mark.parametrize("dim,z", [(2, 1.0), (3, 0.4), (4, 0.8 + 0.5j)])
def test_truncation_tail_actually_small(dim, z):
    tol = 1e-12
    cut = truncation_degree(dim, z, tol)
    nu = 0.5 * (dim - 2)
    x = complex(z).real
    tail = sum(
        gegenbauer_tilde_sup(m, nu) * math.exp(-x * (m + nu) ** 2)
        for m in range(cut + 1, cut + 300)
    )
    assert tail < tol


def test_kernel_regime_guards():
    with pytest.raises(InvalidRegimeError):
        radial_kernel(0, 2, 1.0, 1.0, 1j)
    with pytest.raises(InvalidRegimeError):
        radial_kernel(0, 2, 1.0, 1.0, -0.5)
    with pytest.raises(InvalidRegimeError):
        full_kernel_series(2, 1.0, 1.0, 0.5, 0.0 + 1j)
    with pytest.raises(InvalidRegimeError):
        closed_form_2d(1.0, 1.0, 0.5, 2j)
    with pytest.raises(InvalidRegimeError):
        truncation_degree(2, -1.0, 1e-10)


def test_closed_1d_values_and_signs():
    z = 0.6
    r, rp = 1.3, 0.8
    dlog = math.log(r) - math.log(rp)
    want = (
        cmath.exp(-z / 4)
        / cmath.sqrt(4 * math.pi * z)
        * cmath.exp(-dlog**2 / (4 * z))
        * math.sqrt(r * rp)
    )
    assert closed_form_1d(r, rp, 1.0, z) == pytest.approx(want, rel=1e-14)
    assert closed_form_1d(r, rp, -1.0, z) == 0.0  # opposite signs
    for bad in ((0.0, 1.0, 1.0), (-1.3, 0.8, 1.0), (1.3, math.nan, -1.0)):
        with pytest.raises(DomainError, match="radii must be positive"):
            closed_form_1d(*bad, z)


def test_closed_2d_against_partial_sum():
    z = 0.45 + 0.3j
    r, rp, t = 1.2, 0.7, -0.4
    ang = math.acos(t)
    dlog = math.log(r) - math.log(rp)
    series = 1.0 + 2.0 * sum(
        cmath.exp(-z * m * m) * math.cos(m * ang) for m in range(1, 60)
    )
    want = series * cmath.exp(-dlog**2 / (4 * z)) / (2 * math.pi * cmath.sqrt(4 * math.pi * z))
    assert closed_form_2d(r, rp, t, z) == pytest.approx(want, rel=1e-12)


def test_closed_4d_against_partial_sum():
    z = 0.5
    r, rp, t = 0.9, 1.6, 0.3
    ang = math.acos(t)
    dlog = math.log(r) - math.log(rp)
    series = sum(
        (m + 1) * cmath.exp(-z * (m + 1) ** 2) * math.sin((m + 1) * ang) / math.sin(ang)
        for m in range(0, 60)
    )
    want = (
        series
        * cmath.exp(-dlog**2 / (4 * z))
        / (2 * math.pi**2 * cmath.sqrt(4 * math.pi * z))
        / (r * rp)
    )
    assert closed_form_4d(r, rp, t, z) == pytest.approx(want, rel=1e-11)


def test_closed_4d_near_diagonal_fallback():
    z = 0.7
    r, rp = 1.1, 0.9
    # at t = 1 the closed form must not divide by sin(0)
    at_one = closed_form_4d(r, rp, 1.0, z)
    series = full_kernel_series(4, r, rp, 1.0, z, 1e-14)
    assert at_one == pytest.approx(series, rel=1e-13)
    # continuity across the fallback boundary
    t_in = 1.0 - 2e-6   # theta route
    t_out = 1.0 - 5e-7  # series route
    a = closed_form_4d(r, rp, t_in, z)
    b = closed_form_4d(r, rp, t_out, z)
    assert abs(a - b) / abs(a) < 1e-4
    series_in = full_kernel_series(4, r, rp, t_in, z, 1e-14)
    assert abs(a - series_in) / abs(a) < 1e-6


def test_full_series_n3_has_no_closed_form_but_converges():
    tight = full_kernel_series(3, 1.3, 0.9, 0.25, 0.6 + 0.2j, 1e-13)
    loose = full_kernel_series(3, 1.3, 0.9, 0.25, 0.6 + 0.2j, 1e-6)
    assert abs(tight - loose) < 1e-6


def test_query_validation():
    with pytest.raises(DomainError):
        full_kernel_series(2, -1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        full_kernel_series(2, 1.0, 1.0, 1.5, 0.5)
    with pytest.raises(DomainError):
        full_kernel_series(0, 1.0, 1.0, 0.5, 0.5)
    for tol in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError):
            full_kernel_series(2, 1.0, 1.0, 0.5, 0.5, tol)


# Two faults per call; the first in the order the checks run (dim, radii,
# t, tol, then the regime, for the series and the closed forms alike; Im
# tau, then tol, for theta) decides the error.
@pytest.mark.parametrize("call, error, message", [
    (lambda: full_kernel_series(0, -1.0, 1.0, 0.5, 0.5), DomainError, "dim must be"),
    (lambda: full_kernel_series(2, math.nan, 1.0, 1.5, 0.5), DomainError, "radii must be positive"),
    (lambda: full_kernel_series(2, 1.0, 1.0, 1.5, 0.5, 0.0), DomainError, "outside"),
    (lambda: full_kernel_series(2, 1.0, 1.0, 0.5, 1j, math.nan), DomainError, "tol must be finite"),
    (lambda: full_kernel_series(2, 0.0, 1.0, 0.5, -0.5), DomainError, "radii must be positive"),
    (lambda: full_kernel_series(1, 0.0, 1.0, 0.3, 0.5), DomainError, "radii must be positive"),
    (lambda: full_kernel_series(1, 1.0, 1.0, 0.3, 0.5, 0.0), DomainError, "N = 1 admits only"),
    (lambda: full_kernel_series(1, 1.0, 1.0, 1.0 + 1e-13, -0.5), DomainError, "N = 1 admits only"),
    (lambda: closed_form_1d(-1.0, 1.0, 0.3, 0.5), DomainError, "radii must be positive"),
    (lambda: closed_form_1d(1.0, 1.0, 0.3, -0.5), DomainError, "N = 1 admits only"),
    (lambda: theta(0.1, 1.0 + 0.0j, 0.0), SeriesDivergenceError, "Im tau"),
    (lambda: theta(np.zeros(3), -0.5j, math.nan), SeriesDivergenceError, "Im tau"),
    (lambda: theta_dv(0.1, 0.5 - 0.1j, -1e-14), SeriesDivergenceError, "Im tau"),
], ids=["series-dim-radii", "series-radii-t", "series-t-tol", "series-tol-regime", "series-radii-regime",
        "series-n1-radii-t", "series-n1-t-tol", "series-n1-t-regime", "closed-n1-radii-t", "closed-n1-regime-t",
        "theta-tau-tol", "theta-array-tau-tol", "theta_dv-tau-tol"])
def test_two_faults_raise_the_first_in_check_order(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_apply_radial_kernel_mass_conservation_limit():
    # for tiny z the kernel is a narrow Gaussian: the identity to ~1e-4.
    # ds must resolve the width sqrt(2z) or the quadrature itself aliases
    grid = LogRadialGrid(2, -12.0, 12.0, 2048)
    f = u_inverse(grid, np.exp(-grid.s**2 / 2))
    out = apply_radial_kernel(f, 0, 1e-4)
    diff = RadialSamples(grid, out.values - f.values)
    assert weighted_norm(diff) / weighted_norm(f) < 5e-4


def test_apply_full_kernel_2d_matches_spectral_route():
    grid = LogRadialGrid(2, -10.0, 10.0, 256)
    phi = 2 * math.pi * np.arange(16) / 16
    values = np.exp(-grid.s**2 / 2)[None, :] * (1 + 0.5 * np.cos(phi) + 0.3 * np.sin(2 * phi))[:, None]
    field = GridField2D(grid, values)
    z = 0.5
    quad = apply_full_kernel_2d(field, z)
    spec = apply_exp_g0_grid(G0Exponent(z3=z), field)
    err = np.max(np.abs(quad.values - spec.values)) / np.max(np.abs(spec.values))
    assert err < 1e-10


def test_apply_full_kernel_1d_matches_spectral_route():
    grid = LogRadialGrid(1, -10.0, 10.0, 256)
    rows = np.stack([
        np.exp(-grid.s**2 / 2),
        0.4 * np.exp(-((grid.s - 0.5) ** 2) / 2),
    ])
    field = GridField2D(grid, rows)
    z = 0.3 + 0.1j
    quad = apply_full_kernel_1d(field, z)
    spec = apply_exp_g0_grid(G0Exponent(z3=z), field)
    err = np.max(np.abs(quad.values - spec.values)) / np.max(np.abs(spec.values))
    assert err < 1e-10


def _direct_semigroup_matrix(dim, z, grid):
    # all n^2 entries from s_j - s_k, in the operation order of the formula
    ct = as_time(z)
    s = grid.s
    ds2 = (s[:, None] - s[None, :]) ** 2
    base = np.exp(-ds2 / (4.0 * ct.z)) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    half = -0.5 * (dim - 2)
    left = np.exp(half * s)
    right = np.exp(half * s) * grid.r ** (dim - 2) * grid.ds
    return base * np.outer(left, right)


@pytest.mark.parametrize("z", [0.5, 0.3 + 0.4j, 1e-4])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_semigroup_matrix_matches_direct_formula(dim, z):
    # on a dyadic grid s_j - s_k = (j - k) ds exactly, so every entry agrees
    grid = LogRadialGrid(dim, -4.0, 4.0, 256)
    assert np.array_equal(radial_semigroup_matrix(dim, z, grid), _direct_semigroup_matrix(dim, z, grid))
    # elsewhere the two offsets differ by rounding, amplified by 1/z
    grid = LogRadialGrid(dim, -7.3, 2.1, 128)
    np.testing.assert_allclose(radial_semigroup_matrix(dim, z, grid),
                               _direct_semigroup_matrix(dim, z, grid), rtol=1e-10, atol=0)


@pytest.mark.parametrize("n", [8, 32, 64, 128, 512])
@pytest.mark.parametrize("z", [0.5, 0.3 + 0.4j])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_semigroup_matrix_blocks_match_direct_formula(dim, z, n):
    # the rows are written in blocks of 64; a dyadic ds = 1/32 keeps every
    # offset exact, so below, at and above one block all entries agree
    grid = LogRadialGrid(dim, -n / 64, n / 64, n)
    assert np.array_equal(radial_semigroup_matrix(dim, z, grid), _direct_semigroup_matrix(dim, z, grid))


@pytest.mark.parametrize("z", [0.5, 0.3 + 0.4j])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_apply_radial_kernel_range_equals_degree_calls(dim, z):
    grid = LogRadialGrid(dim, -8.0, 8.0, 256)
    f = RadialSamples(grid, np.exp(-(grid.s - 0.3) ** 2) * (1.0 + 0.5j))
    got = apply_radial_kernel(f, range(5), z)
    assert len(got) == 5
    for m, g in enumerate(got):
        assert g.grid == grid
        assert np.array_equal(g.values, apply_radial_kernel(f, m, z).values)
    last = apply_radial_kernel(f, range(2, 5), z)
    assert np.array_equal(last[-1].values, got[-1].values)
    assert apply_radial_kernel(f, range(0), z) == []


@pytest.mark.parametrize("z", [0.5, 0.3 + 0.4j])
@pytest.mark.parametrize("dim", [1, 3])
def test_apply_radial_kernel_is_the_einsum_of_the_quadrature_matrix(dim, z):
    # numpy's own loops, bit for bit: no BLAS product, whose bits could follow its thread count
    grid = LogRadialGrid(dim, -8.0, 8.0, 256)
    f = RadialSamples(grid, np.exp(-(grid.s - 0.3) ** 2) * (1.0 + 0.5j))
    product = np.einsum("jk,k->j", radial_semigroup_matrix(dim, z, grid), f.values, optimize=False)
    nu = 0.5 * (dim - 2)
    for m, got in enumerate(apply_radial_kernel(f, range(3), z)):
        assert np.array_equal(got.values, cmath.exp(-complex(z) * (m + nu) ** 2) * product)


def test_apply_radial_kernel_rejects_a_stack_of_profiles():
    grid = LogRadialGrid(3, -4.0, 4.0, 64)
    with pytest.raises(DomainError):
        apply_radial_kernel(RadialSamples(grid, np.ones((64, 64))), 0, 0.5)


def test_apply_radial_kernel_rejects_negative_degrees():
    f = RadialSamples(LogRadialGrid(3, -4.0, 4.0, 64), np.ones(64))
    with pytest.raises(DomainError):
        apply_radial_kernel(f, -1, 0.5)
    with pytest.raises(DomainError):
        apply_radial_kernel(f, range(-1, 3), 0.5)


@pytest.mark.parametrize("r, rp", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5), (math.nan, 1.0)])
def test_closed_forms_reject_non_positive_radii(r, rp):
    with pytest.raises(DomainError, match="radii"):
        closed_form_2d(r, rp, 0.3, 0.5)
    for t in (0.3, 1.0):  # also inside the near-pole series fallback
        with pytest.raises(DomainError, match="radii"):
            closed_form_4d(r, rp, t, 0.5)
    # the radial kernel too, for one point or inside an array
    with pytest.raises(DomainError, match="radii"):
        radial_kernel(0, 3, r, rp, 0.5)
    with pytest.raises(DomainError, match="radii"):
        radial_kernel(0, 3, np.array([1.0, r]), rp, 0.5)


def test_semigroup_matrix_is_a_fresh_array():
    grid = LogRadialGrid(3, -4.0, 4.0, 64)
    b = radial_semigroup_matrix(3, 0.5, grid)
    assert b.dtype == np.complex128 and b.shape == (64, 64)
    assert b.flags.c_contiguous and b.flags.writeable
    assert b.base is None
    b[0, 0] = 7.0
    assert radial_semigroup_matrix(3, 0.5, grid)[0, 0] != 7.0


@pytest.mark.parametrize("call", [
    lambda t: full_kernel_series(3, 1.0, 1.2, t, 0.5),
    lambda t: closed_form_2d(1.0, 1.2, t, 0.5),
    lambda t: closed_form_4d(1.0, 1.2, t, 0.5),
], ids=["series", "closed-2d", "closed-4d"])
def test_nan_cos_angle_is_refused(call):
    # a NaN t used to pass the range check and be clamped to t = -1
    with pytest.raises(DomainError):
        call(math.nan)


@pytest.mark.parametrize("t", [1.0 + 1e-13, -1.0 - 1e-13])
def test_kernel_query_accepts_the_rounding_slack(t):
    assert full_kernel_series(3, 1.0, 1.2, t, 0.5) == full_kernel_series(3, 1.0, 1.2, round(t), 0.5)


@pytest.mark.parametrize("t", [math.nan, 1.0 + 2e-12, -1.0 - 2e-12])
def test_kernel_query_refuses_t_outside_the_slack(t):
    with pytest.raises(DomainError, match="outside"):
        full_kernel_series(3, 1.0, 1.2, t, 0.5)


def test_apply_radial_kernel_empty_range_builds_no_matrix(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a matrix was built for no degrees")

    monkeypatch.setattr(kernels, "radial_semigroup_matrix", no_build)
    f = RadialSamples(LogRadialGrid(3, -4.0, 4.0, 256), np.ones(256))
    assert apply_radial_kernel(f, range(0), 0.5) == []


# Per-point references: the scalar formulas of each closed form, with one
# scalar theta / theta_dv / series call per point.
def _reference_1d(x, xp, z):
    ct = as_time(z)
    if x * xp < 0:
        return 0.0 + 0.0j
    r, rp = abs(x), abs(xp)
    dlog = math.log(r) - math.log(rp)
    return (cmath.exp(-ct.z / 4.0) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
            * cmath.exp(-dlog * dlog / (4.0 * ct.z)) * math.sqrt(r * rp))


def _reference_2d(r, rp, t, z, tol):
    ct = as_time(z)
    dlog = math.log(r) - math.log(rp)
    pref = 1.0 / (2.0 * math.pi) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    th = theta(math.acos(t) / (2.0 * math.pi), 1j * ct.z / math.pi, tol)
    return pref * cmath.exp(-dlog * dlog / (4.0 * ct.z)) * th


def _reference_4d(r, rp, t, z, tol):
    ct = as_time(z)
    if abs(t) > 1.0 - 1e-6:
        return full_kernel_series(4, r, rp, t, ct, tol)
    dlog = math.log(r) - math.log(rp)
    dv = theta_dv(math.acos(t) / (2.0 * math.pi), 1j * ct.z / math.pi, tol)
    pref = -1.0 / (8.0 * math.pi**3) / (2.0 * math.sqrt(math.pi) * ct.sqrt_z)
    return pref * cmath.exp(-dlog * dlog / (4.0 * ct.z)) / (r * rp) / math.sqrt(1.0 - t * t) * dv


def _table(seed: int, count: int = 2000):
    rng = np.random.default_rng(seed)
    r, rp = np.exp(rng.uniform(math.log(0.3), math.log(3.0), (2, count)))
    return r, rp, rng.uniform(-1.0, 1.0, count), rng


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.int64)


def test_closed_form_1d_table_equals_per_point_reference():
    r, rp, _, rng = _table(21)
    t = rng.choice([-1.0, 1.0], r.size)
    z = 0.3 + 0.1j
    got = closed_form_1d(r, rp, t, z)
    assert got.shape == (2000,)
    # the reference takes the signed points r and t r'
    want = [_reference_1d(a, c * b, z) for a, b, c in zip(r.tolist(), rp.tolist(), t.tolist())]
    assert np.array_equal(_bits(got), _bits(want))
    assert np.sum(got == 0) > 500  # opposite signs vanish
    assert closed_form_1d(float(r[0]), float(rp[0]), float(t[0]), z) == got[0]


@pytest.mark.parametrize("z", [0.5 + 0.2j, 0.5])
def test_closed_form_2d_table_equals_per_point_reference(z):
    r, rp, t, _ = _table(22)
    t[:4] = [1.0, -1.0, 0.0, -0.0]
    got = closed_form_2d(r, rp, t, z, tol=1e-10)
    want = [_reference_2d(a, b, c, z, 1e-10) for a, b, c in zip(r.tolist(), rp.tolist(), t.tolist())]
    assert np.array_equal(_bits(got), _bits(want))
    one = closed_form_2d(float(r[5]), float(rp[5]), float(t[5]), z, tol=1e-10)
    assert type(one) is complex and one == got[5]


@pytest.mark.parametrize("z", [0.4 + 0.2j, 0.7])
def test_closed_form_4d_table_with_pole_rows_equals_per_point_reference(z):
    r, rp, t, rng = _table(24)
    poles = rng.choice(t.size, 60, replace=False)
    t[poles] = rng.choice([1.0, -1.0, 1.0 - 1e-7, -1.0 + 5e-7, 1.0 - 1e-6, -1.0 + 2e-6], poles.size)
    got = closed_form_4d(r, rp, t, z, tol=1e-10)
    want = [_reference_4d(a, b, c, z, 1e-10) for a, b, c in zip(r.tolist(), rp.tolist(), t.tolist())]
    assert np.array_equal(_bits(got), _bits(want))
    grid = closed_form_4d(r[:12].reshape(3, 4), rp[:12].reshape(3, 4), t[poles[:12]].reshape(3, 4), z, tol=1e-10)
    assert grid.shape == (3, 4)
    assert np.array_equal(grid.ravel(), closed_form_4d(r[:12], rp[:12], t[poles[:12]], z, tol=1e-10))


def test_closed_form_tables_raise_what_a_row_loop_raises_first():
    r = np.array([1.0, 1.2, 0.0, 0.9])
    # (closed form, angles with a bad t at row 1, a good t for row 1, the t message)
    cases = (
        (lambda r, t, z: closed_form_1d(r, np.ones_like(r), t, z), [1.0, 0.5, -1.0, 1.0], -1.0, "N = 1"),
        (lambda r, t, z: closed_form_2d(r, np.ones_like(r), t, z), [0.1, 1.5, 0.2, 0.3], 0.4, "outside"),
        (lambda r, t, z: closed_form_4d(r, np.ones_like(r), t, z), [0.1, 1.5, 0.2, 0.3], 0.4, "outside"),
    )
    for call, t, good, message in cases:
        t = np.array(t)
        with pytest.raises(DomainError, match=message):  # row 1 comes before row 2
            call(r, t, 0.5)
        with pytest.raises(DomainError, match="radii"):
            call(r, np.where(np.arange(4) == 1, good, t), 0.5)
        with pytest.raises(InvalidRegimeError):  # the regime fails at row 0
            call(r, t, 1j)
        with pytest.raises(DomainError, match="radii"):  # after row 0's radii
            call(np.concatenate([[-1.0], r[1:]]), t, 1j)
        assert call(np.ones(0), np.ones(0), 1j).shape == (0,)  # no rows, nothing to refuse


@pytest.mark.parametrize("dim, form", [(1, closed_form_1d), (2, closed_form_2d), (4, closed_form_4d)])
@pytest.mark.parametrize("z", [0.5, 0.4 + 0.2j])
def test_closed_form_is_the_form_of_its_dim_bit_for_bit(dim, form, z):
    r, rp, t, rng = _table(26, 300)
    if dim == 1:
        t = rng.choice([-1.0, 1.0], r.size)
    args = (1e-10,) if dim > 1 else ()
    assert np.array_equal(_bits(closed_form(dim, r, rp, t, z, 1e-10)), _bits(form(r, rp, t, z, *args)))
    assert np.array_equal(_bits(closed_form(dim, r, rp, t, z)), _bits(form(r, rp, t, z)))  # tol 1e-14
    one = closed_form(dim, float(r[3]), float(rp[3]), float(t[3]), z)
    assert type(one) is complex and one == form(float(r[3]), float(rp[3]), float(t[3]), z)


# N = 1 points (r, r', t, z) and the error a bad tol meets there: a good
# point, then one fault each that the series checks before tol (radii, t)
# or after it (the regime)
_TOL = "tol must be finite and positive"
_N1_TOL_POINTS = {
    "good": ((1.0, 1.0, 1.0, 0.5), _TOL),
    "radius": ((0.0, 1.0, 1.0, 0.5), "radii must be positive"),
    "t": ((1.0, 1.0, 0.5, 0.5), "N = 1 admits only t = +1 or t = -1"),
    "regime": ((1.0, 1.0, -1.0, 1j), _TOL),
}


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
@pytest.mark.parametrize("name", list(_N1_TOL_POINTS))
def test_n1_closed_form_checks_tol_in_the_series_order(name, tol):
    (r, rp, t, z), message = _N1_TOL_POINTS[name]
    raised = []
    for route in (lambda: full_kernel_series(1, r, rp, t, z, tol), lambda: closed_form(1, r, rp, t, z, tol),
                  lambda: closed_form(1, np.array([r]), np.array([rp]), np.array([t]), z, tol)):
        with pytest.raises(DomainError) as info:
            route()
        raised.append(str(info.value))
    assert raised == [message] * 3


@pytest.mark.parametrize("dim", [0, 3, 5])
def test_closed_form_refuses_a_dim_without_one(dim):
    with pytest.raises(DomainError, match=f"not N = {dim}$"):
        closed_form(dim, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError, match=f"not N = {dim}$"):  # before any row check
        closed_form(dim, np.array([-1.0]), np.ones(1), np.array([2.0]), -0.5)


# (dim, r, r') points whose (r r')^{-(N-2)/2} is 0 or not finite in floating point
_OUT_OF_RANGE = {
    "n1-product-underflows": (1, 1e-200, 1e-200),  # sqrt(0) = 0
    "n3-product-underflows": (3, 1e-200, 1e-200),  # 0 to the power -1/2
    "n4-product-underflows": (4, 1e-200, 1e-200),
    "n4-product-overflows": (4, 1e200, 1e200),  # 1e-200 * 1e-200, the radii's own powers
    "n10-product-overflows": (10, 1e200, 1e200),
    "n4-power-overflows": (4, 1e-160, 1e-150),  # 1/1e-310
    "n10-power-overflows": (10, 1e-100, 1e-100),  # (1e-200)^-4
    "n10-power-underflows": (10, 1e100, 1e100),
}


@pytest.mark.parametrize("dim, r, rp", list(_OUT_OF_RANGE.values()), ids=list(_OUT_OF_RANGE))
def test_points_out_of_the_float_range_are_refused_on_both_routes(dim, r, rp):
    t = 1.0 if dim == 1 else 0.5
    with pytest.raises(DomainError, match=r"^radii out of the float range") as series:
        full_kernel_series(dim, r, rp, t, 0.5)
    assert str(series.value).endswith(f"at r = {r!r}, r' = {rp!r}")
    # the row check of the closed forms, which serves any N, at the middle row of three
    rows = np.array([1.0, r, 1.2]), np.array([1.1, rp, 0.9]), np.full(3, t)
    with pytest.raises(DomainError) as table:
        kernels._check_table(dim, *rows, as_time(0.5), 1e-12)
    assert str(table.value) == str(series.value)
    if dim in (1, 4):
        with pytest.raises(DomainError) as closed:
            closed_form(dim, *rows, 0.5)
        assert str(closed.value) == str(series.value)


@pytest.mark.parametrize("t", [0.5, -0.3, 1.0])
def test_a_point_whose_product_alone_passes_the_float_range_is_answered(t):
    # r r' = 1e400 passes the largest float, but (r r')^(-1/2) = 1e-200 does not
    big, one = full_kernel_series(3, 1e200, 1e200, t, 0.5), full_kernel_series(3, 1.0, 1.0, t, 0.5)
    assert abs(big - 1e-200 * one) <= 1e-15 * abs(1e-200 * one)
    kernels._check_table(3, np.array([1.0, 1e200]), np.array([1.0, 1e200]), np.array([t, t]), as_time(0.5), 1e-12)


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_n1_routes_agree_where_the_product_alone_passes_the_float_range(t):
    # (r r')^(1/2) = 1e200 at r = r' = 1e200; at t = -1 the kernel vanishes
    series, closed = full_kernel_series(1, 1e200, 1e200, t, 0.5), closed_form(1, 1e200, 1e200, t, 0.5)
    table = closed_form(1, np.array([1.0, 1e200]), np.array([1.0, 1e200]), np.array([t, t]), 0.5)
    assert cmath.isfinite(series) and cmath.isfinite(closed) and table[1] == closed
    assert abs(series - closed) <= 1e-14 * abs(full_kernel_series(1, 1e200, 1e200, 1.0, 0.5))


@pytest.mark.parametrize("t", [0.3, -0.8, 1.0])
def test_n4_routes_agree_where_the_product_alone_passes_the_float_range(t):
    # r r' = 2.25e308 passes the largest float; (r r')^-1 = 4.4e-309 is a subnormal float
    r = 1.5e154
    series, closed = full_kernel_series(4, r, r, t, 0.5), closed_form(4, r, r, t, 0.5)
    assert series != 0 and abs(closed - series) <= 1e-8 * abs(series)


def test_range_check_comes_after_the_regime():
    with pytest.raises(InvalidRegimeError):
        full_kernel_series(3, 1e-200, 1e-200, 0.5, 1j)
    with pytest.raises(InvalidRegimeError):
        closed_form(4, np.array([1e-200]), np.array([1e-200]), np.array([0.5]), -0.5)


@pytest.mark.parametrize("r", [1e-200, 1e200])
def test_n2_points_are_never_out_of_the_float_range(r):
    values = [full_kernel_series(2, r, r, 0.5, 0.5), closed_form(2, r, r, 0.5, 0.5)]
    assert all(map(cmath.isfinite, values))


def test_table_rows_near_the_ends_of_the_float_range_are_decided_per_point():
    # N = 4 at r = r' = 2^-505: 1/(r r') = 2^1010 is finite, though past the
    # margin of the table's numpy mask; a bad row after it is still reported
    r = np.array([1.0, 2.0**-505, 1.2])
    t = np.array([0.3, 0.5, 0.7])
    table = closed_form(4, r, r, t, 0.5)
    assert np.isfinite(table).all()
    assert table[1] == closed_form(4, float(r[1]), float(r[1]), 0.5, 0.5)
    r[2] = 1e-200
    with pytest.raises(DomainError, match="at r = 1e-200, r' = 1e-200$"):
        closed_form(4, r, r, t, 0.5)
