"""Unitarity and convention checks for the log-radial transform."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conformal_heat.errors import DomainError
from conformal_heat.log_radial import (
    LogRadialGrid,
    RadialSamples,
    fourier_forward,
    fourier_inverse,
    frequency_norm,
    u_forward,
    u_inverse,
    weighted_norm,
)


def test_grid_validation():
    with pytest.raises(DomainError):
        LogRadialGrid(0)
    with pytest.raises(DomainError):
        LogRadialGrid(2, 1.0, -1.0)
    with pytest.raises(DomainError):
        LogRadialGrid(2, -4.0, 4.0, 100)  # not a power of two
    with pytest.raises(DomainError):
        LogRadialGrid(2, -4.0, 4.0, 4)  # too small


@pytest.mark.parametrize("s_min, s_max", [
    (-16.0, math.inf), (-math.inf, 16.0), (math.nan, 16.0), (-16.0, math.nan), (-1e308, 1e308),
], ids=["inf-max", "inf-min", "nan-min", "nan-max", "ds-overflows"])
def test_grid_refuses_non_finite_geometry(s_min, s_max):
    with pytest.raises(DomainError, match="finite"):
        LogRadialGrid(3, s_min, s_max, 8)


@pytest.mark.parametrize("dim, s_min, s_max, n", [
    (2, -746.0, 0.0, 8), (2, 0.0, 710.0, 8), (1, -710.0, 0.0, 8), (4, -400.0, 400.0, 2048), (4, -373.0, 0.0, 8),
    (60, -16.0, 16.0, 2048), (3, 0.0, 1e-300, 8), (3, 1e-320, 2e-320, 8), (10**400, -1.0, 1.0, 8),
], ids=["radius-underflows", "radius-overflows", "n1-weight-overflows", "n4-weight-overflows",
        "n4-weight-underflows", "n60-weight-underflows", "frequency-squared-overflows", "subnormal-step",
        "n-past-the-float-range"])
def test_grid_refuses_radii_weights_and_frequencies_past_the_float_range(dim, s_min, s_max, n):
    with pytest.raises(DomainError, match="float range"):
        LogRadialGrid(dim, s_min, s_max, n)


@pytest.mark.parametrize("dim, s_min, s_max, n", [
    (2, -745.0, 709.0, 8), (1, -709.0, 709.0, 8), (4, -372.0, 354.0, 8), (60, -12.0, 12.0, 2048),
    (3, 0.0, 1e-152, 8), (10**300, -1e-17, 1e-17, 8),
])
def test_grid_accepts_radii_weights_and_frequencies_just_inside_the_float_range(dim, s_min, s_max, n):
    with np.errstate(all="raise"):
        LogRadialGrid(dim, s_min, s_max, n)


def test_sigma_layout():
    grid = LogRadialGrid(2, -8.0, 8.0, 64)
    assert grid.sigma.shape == (64,)
    assert grid.sigma[32] == 0.0
    assert np.all(np.diff(grid.sigma) > 0)
    assert grid.sigma[0] == pytest.approx(-math.pi / grid.ds)


def test_u_roundtrip_and_weight():
    grid = LogRadialGrid(4, -6.0, 6.0, 128)
    f = RadialSamples(grid, np.exp(-grid.s**2))
    g = u_forward(f)
    assert_allclose(g, np.exp(grid.s) * f.values, rtol=1e-14)  # (N-2)/2 = 1
    back = u_inverse(grid, g)
    assert_allclose(back.values, f.values, rtol=1e-13)


def test_fourier_roundtrip():
    grid = LogRadialGrid(3, -10.0, 10.0, 256)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    back = fourier_inverse(grid, fourier_forward(grid, g))
    assert np.max(np.abs(back - g)) < 1e-13 * np.max(np.abs(g))


def test_gaussian_self_dual():
    grid = LogRadialGrid(3, -20.0, 20.0, 1024)
    g = np.exp(-grid.s**2 / 2.0)
    gh = fourier_forward(grid, g)
    expected = np.exp(-grid.sigma**2 / 2.0)
    assert np.max(np.abs(gh - expected)) < 1e-10


def test_parseval():
    grid = LogRadialGrid(2, -12.0, 12.0, 512)
    rng = np.random.default_rng(11)
    f = RadialSamples(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    gh = fourier_forward(grid, u_forward(f))
    assert frequency_norm(grid, gh) == pytest.approx(weighted_norm(f), rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_weighted_norm_gaussian(dim):
    # f(r) = r^{-(N-2)/2} exp(-(log r)^2 / 2) has norm pi^{1/4}
    grid = LogRadialGrid(dim)
    f = u_inverse(grid, np.exp(-grid.s**2 / 2.0))
    assert weighted_norm(f) == pytest.approx(math.pi**0.25, abs=1e-8)


def test_frequency_multiplier_is_shift():
    grid = LogRadialGrid(2, -8.0, 8.0, 256)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    k = 12
    t = 0.5 * k * grid.ds  # 2t = k ds
    gh = fourier_forward(grid, g)
    shifted = fourier_inverse(grid, gh * np.exp(2j * t * grid.sigma))
    assert np.max(np.abs(shifted - np.roll(g, -k))) < 1e-12 * np.max(np.abs(g))


def test_sample_length_guard():
    grid = LogRadialGrid(2, -8.0, 8.0, 64)
    with pytest.raises(DomainError):
        RadialSamples(grid, np.zeros(63))
    for transform in (fourier_forward, fourier_inverse, frequency_norm):
        with pytest.raises(DomainError):
            transform(grid, np.zeros(65))
