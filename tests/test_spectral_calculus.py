"""Multiplier calculus, boundedness classification, scaling, generator limit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conformal_heat.errors import DomainError, GridAlignmentError, UnboundedExponentError
from conformal_heat.log_radial import (
    LogRadialGrid,
    RadialSamples,
    u_forward,
    u_inverse,
    weighted_norm,
)
from conformal_heat.spectral_calculus import (
    Boundedness,
    G0Exponent,
    apply_exp_g0,
    apply_scaling_direct,
    is_bounded,
    multiplier,
)
from conformal_heat.spherical import FactoredField
from conformal_heat.verify import suite_scaling, suite_spectral


def _component(grid, degree, values):
    return FactoredField([degree], RadialSamples(grid, [values]))


def test_multiplier_values():
    sigma = np.linspace(-5, 5, 11)
    z = 0.4 + 0.3j
    got = multiplier(G0Exponent(z3=z), 2, sigma, 3)
    want = np.exp(-z * (sigma**2 + (2 + 0.5) ** 2))
    np.testing.assert_allclose(got, want, rtol=1e-14)
    got = multiplier(G0Exponent(z1=0.7j), 0, sigma, 2)
    np.testing.assert_allclose(got, np.exp(2j * 0.7 * sigma), rtol=1e-14)
    assert multiplier(G0Exponent(z2=1.5), 0, 0.0, 2) == pytest.approx(np.exp(1.5))


def test_renormalized_scalar_identity():
    # exp(z(X - 1)) = e^{-z} exp(z X) at the multiplier level
    sigma = np.linspace(-3, 3, 7)
    z = 0.8 + 0.2j
    lhs = multiplier(G0Exponent(z2=-z, z3=z), 1, sigma, 4)
    rhs = np.exp(-z) * multiplier(G0Exponent(z3=z), 1, sigma, 4)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


@pytest.mark.parametrize(
    "exponent,expected",
    [
        (G0Exponent(z1=0.3j), Boundedness.BOUNDED_UNITARY),
        (G0Exponent(z1=0.4j, z2=0.9j, z3=-1.3j), Boundedness.BOUNDED_UNITARY),
        (G0Exponent(z3=1.0), Boundedness.BOUNDED),
        (G0Exponent(z2=0.3), Boundedness.BOUNDED),
        (G0Exponent(z1=1.0), Boundedness.UNBOUNDED),
        (G0Exponent(z3=-0.1), Boundedness.UNBOUNDED),
        (G0Exponent(), Boundedness.BOUNDED_UNITARY),
    ],
)
def test_is_bounded_classification(exponent, expected):
    assert is_bounded(exponent) is expected


def test_apply_identity_is_exact_copy():
    grid = LogRadialGrid(3, -8.0, 8.0, 128)
    field = _component(grid, 1, np.exp(-grid.s**2))
    out = apply_exp_g0(G0Exponent(), field)
    assert np.array_equal(out.radial.values, field.radial.values)
    assert out.radial.values is not field.radial.values


def test_apply_refuses_unbounded():
    grid = LogRadialGrid(2, -8.0, 8.0, 128)
    field = _component(grid, 0, np.exp(-grid.s**2))
    with pytest.raises(UnboundedExponentError):
        apply_exp_g0(G0Exponent(z3=-0.2), field)
    with pytest.raises(UnboundedExponentError):
        apply_exp_g0(G0Exponent(z1=0.1), field)


def test_group_law_on_components():
    grid = LogRadialGrid(3, -16.0, 16.0, 1024)
    field = _component(grid, 2, u_inverse(grid, np.exp(-grid.s**2 / 2)).values)
    for e1, e2 in [
        (G0Exponent(z3=0.3), G0Exponent(z3=0.6 + 0.4j)),
        (G0Exponent(z1=0.2j, z2=0.1j), G0Exponent(z3=0.5)),
    ]:
        stepwise = apply_exp_g0(e2, apply_exp_g0(e1, field))
        merged = apply_exp_g0(
            G0Exponent(e1.z1 + e2.z1, e1.z2 + e2.z2, e1.z3 + e2.z3), field
        )
        num = weighted_norm(RadialSamples(grid, stepwise.radial.values - merged.radial.values))
        assert num / weighted_norm(merged.radial) < 1e-12


def test_unitary_exponent_preserves_norm():
    grid = LogRadialGrid(4, -16.0, 16.0, 512)
    field = _component(grid, 1, u_inverse(grid, np.exp(-grid.s**2 / 2)).values)
    out = apply_exp_g0(G0Exponent(z1=0.4j, z2=0.2j, z3=0.7j), field)
    assert weighted_norm(out.radial) == pytest.approx(weighted_norm(field.radial), rel=1e-13)


def test_scaling_direct_matches_pointwise_formula():
    grid = LogRadialGrid(3, -12.0, 12.0, 512)
    k = 20
    t = 0.5 * k * grid.ds
    f = u_inverse(grid, np.exp(-grid.s**2 / 2)).values
    field = _component(grid, 0, f)
    out = apply_scaling_direct(t, field)
    # e^{(N-2)t} f(e^{2t} r_j) sampled exactly on the shifted grid
    want = np.exp((grid.dim - 2) * t) * np.roll(f, -k)
    np.testing.assert_allclose(out.radial.values[0], want, rtol=1e-14)


def test_scaling_alignment_guard():
    grid = LogRadialGrid(2, -8.0, 8.0, 128)
    field = _component(grid, 0, np.exp(-grid.s**2))
    with pytest.raises(GridAlignmentError):
        apply_scaling_direct(0.3 * grid.ds, field)
    for t in (math.nan, math.inf, -math.inf):  # no shift at all: refused as misaligned
        with pytest.raises(GridAlignmentError):
            apply_scaling_direct(t, field)


def test_scaling_spectral_vs_direct():
    grid = LogRadialGrid(2, -16.0, 16.0, 1024)
    k = 64
    t = 0.5 * k * grid.ds
    field = _component(grid, 1, u_inverse(grid, np.exp(-grid.s**2 / 2)).values)
    spectral = apply_exp_g0(G0Exponent(z1=1j * t), field)
    direct = apply_scaling_direct(t, field)
    diff = weighted_norm(RadialSamples(grid, spectral.radial.values - direct.radial.values))
    assert diff / weighted_norm(direct.radial) < 1e-10


@pytest.mark.parametrize("shape,steps", [((-12.0, 12.0, 256), (5, -16)), ((-16.0, 16.0, 256), (4, -12)),
                                         ((-10.0, 10.0, 128), (3, -10)), ((-8.0, 8.0, 256), (8, -24))])
def test_scaling_suite_passes_on_coarse_grids(shape, steps):
    # the dilations move log-radius by 0.5 and -1.5, rounded to whole samples;
    # fixed shifts of 32 and -96 samples pushed the Gaussian to the grid end
    results = suite_scaling(shape)
    assert all(r.passed for r in results), [(r.name, r.defect) for r in results]
    assert [r.name for r in results] == [f"shift by {k} samples" for k in steps]


@pytest.mark.parametrize("shape", [(-8.0, 8.0, 256), (-8.0, 8.0, 1024), (-9.0, 8.0, 256)])
def test_spectral_suite_passes_on_narrow_grids(shape):
    # the test Gaussian is 1/32 of the grid wide; at width 1 the evolved
    # tail wrapped around these periodic grids: 9.3e-8 against the 1e-8 gate
    results = suite_spectral(shape)
    assert len(results) == 6
    assert all(r.passed for r in results), [(r.name, r.defect) for r in results]


def test_scaling_suite_names_on_the_default_grid():
    assert [r.name for r in suite_scaling()] == ["shift by 32 samples", "shift by -96 samples"]


def _five_point_second_derivative(g: np.ndarray, ds: float) -> np.ndarray:
    return (
        -np.roll(g, -2) + 16 * np.roll(g, -1) - 30 * g + 16 * np.roll(g, 1) - np.roll(g, 2)
    ) / (12 * ds * ds)


@pytest.mark.parametrize("dim,m", [(2, 0), (3, 1), (4, 2)])
def test_generator_limit_matches_finite_differences(dim, m):
    # (exp(h X) - 1)/h -> X f, Richardson in h against an independent
    # five-point stencil for (theta - m)(theta + m + N - 2)
    grid = LogRadialGrid(dim, -16.0, 16.0, 2048)
    g = np.exp(-((grid.s - 0.2) ** 2) / 2)
    field = _component(grid, m, u_inverse(grid, g).values)

    def quotient(h: float) -> np.ndarray:
        out = apply_exp_g0(G0Exponent(z3=h), field)
        return (out.radial.values - field.radial.values) / h

    hs = (1e-2, 1e-3, 1e-4)
    d1, d2, d3 = (quotient(h) for h in hs)
    r12 = (hs[0] * d2 - hs[1] * d1) / (hs[0] - hs[1])
    r23 = (hs[1] * d3 - hs[2] * d2) / (hs[1] - hs[2])
    extrap = (hs[0] * r23 - hs[2] * r12) / (hs[0] - hs[2])

    nu = 0.5 * (dim - 2)
    lg = _five_point_second_derivative(g, grid.ds) - (m + nu) ** 2 * g
    expected = u_inverse(grid, lg)
    err = weighted_norm(RadialSamples(grid, extrap - expected.values))
    assert err / weighted_norm(expected) < 1e-4


def test_imaginary_exponent_is_bounded_unitary():
    assert is_bounded(G0Exponent(0.3j, -0.2j, 1.1j)) is Boundedness.BOUNDED_UNITARY


@pytest.mark.parametrize("dim, keys", [(1, [1, 0]), (2, [-3, 0, 2, 5]), (3, [0, 1, 4]), (4, [2, 0, 7])])
def test_stacked_apply_equals_one_row_calls_bit_for_bit(dim, keys):
    grid = LogRadialGrid(dim, -12.0, 12.0, 256)
    rng = np.random.default_rng(dim)
    rows = (rng.standard_normal((len(keys), 1)) + 1j * rng.standard_normal((len(keys), 1))) * np.exp(
        -((grid.s[None, :] - rng.uniform(-1, 1, (len(keys), 1))) ** 2))
    exponent = G0Exponent(z1=0.3j, z2=0.1 + 0.2j, z3=0.5 + 0.2j)
    stacked = apply_exp_g0(exponent, FactoredField(keys, RadialSamples(grid, rows)))
    assert stacked.m.tolist() == keys
    for key, row, got in zip(keys, rows, stacked.radial.values):
        (want,) = apply_exp_g0(exponent, _component(grid, key, row)).radial.values
        assert np.array_equal(got.view(float), want.view(float))


def test_multiplier_broadcasts_over_a_column_of_degrees():
    sigma = np.linspace(-4, 4, 9)
    exponent = G0Exponent(z1=0.2j, z3=0.4 + 0.3j)
    column = multiplier(exponent, np.array([[0], [3]]), sigma, 3)
    assert column.shape == (2, 9)
    for row, m in zip(column, (0, 3)):
        assert np.array_equal(row, multiplier(exponent, m, sigma, 3))
    with pytest.raises(DomainError):
        multiplier(exponent, np.array([[1], [-1]]), sigma, 3)
