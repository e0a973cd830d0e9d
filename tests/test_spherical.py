"""Spherical projections and factored-field bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conformal_heat.errors import DomainError
from conformal_heat.log_radial import LogRadialGrid, RadialSamples
from conformal_heat.spherical import (
    FactoredField,
    GridField2D,
    decompose_1d,
    decompose_2d,
    project_pm,
    projection_kernel,
    recompose_1d,
    recompose_2d,
)


def test_projection_kernel_circle_projects_cos2():
    # (1/2pi) integral of C~_2^0(cos(phi - phi')) cos(2 phi') dphi' = cos(2 phi)
    n = 128
    phi = 2 * math.pi * np.arange(n) / n
    dphi = 2 * math.pi / n
    for target in (0.0, 0.9):
        kern = np.array([projection_kernel(2, 2, math.cos(target - p)) for p in phi])
        val = float(np.sum(kern * np.cos(2 * phi)) * dphi)
        assert val == pytest.approx(math.cos(2 * target), abs=1e-12)
        kern1 = np.array([projection_kernel(1, 2, math.cos(target - p)) for p in phi])
        assert float(np.sum(kern1 * np.cos(2 * phi)) * dphi) == pytest.approx(0.0, abs=1e-12)


def test_projection_kernel_sphere_addition_theorem():
    # degree-1 projection reproduces Y(w) = w_z on S^2; Gauss-Legendre in
    # cos(theta'), trapezoid in phi', is the quadrature oracle.
    nodes, weights = np.polynomial.legendre.leggauss(40)
    nphi = 80
    phip = 2 * math.pi * np.arange(nphi) / nphi
    dphi = 2 * math.pi / nphi
    for big_theta in (0.4, 1.3):
        wz = math.cos(big_theta)
        acc = 0.0
        for x, w in zip(nodes, weights):
            cos_angle = wz * x + math.sin(big_theta) * math.sqrt(1 - x * x) * np.cos(phip)
            kern = np.array([projection_kernel(1, 3, c) for c in cos_angle])
            acc += w * float(np.sum(kern * x)) * dphi
        assert acc == pytest.approx(wz, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_projection_kernel_row_equals_scalar_calls(dim):
    t = np.cos(np.linspace(0.0, math.pi, 33)) if dim > 1 else np.array([1.0, -1.0])
    for m in (0, 1, 4, 20):
        row = projection_kernel(m, dim, t)
        assert row.tolist() == [projection_kernel(m, dim, x) for x in t.tolist()]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projection_kernel_range_equals_the_degree_calls(dim):
    # the 21 rows verify's projection suite reads, from one recurrence pass
    t = np.cos(2.0 * math.pi * np.arange(256) / 256) if dim > 1 else np.array([1.0, -1.0])
    rows = projection_kernel(range(21), dim, t)
    assert rows.shape == (21, t.size)
    for m, row in enumerate(rows):
        assert np.array_equal(row.view(np.int64), projection_kernel(m, dim, t).view(np.int64))
    # at a number t the range gives one value per degree
    assert projection_kernel(range(21), dim, float(t[1])).tolist() == rows[:, 1].tolist()


def test_projection_kernel_two_point_sphere():
    # N = 1: kernel values (1 + t)/2 resp. (1 - t)/2 times the point masses
    assert projection_kernel(0, 1, 1.0) == pytest.approx(0.5)
    assert projection_kernel(0, 1, -1.0) == pytest.approx(0.5)
    assert projection_kernel(1, 1, 1.0) == pytest.approx(0.5)
    assert projection_kernel(1, 1, -1.0) == pytest.approx(-0.5)


def test_project_pm_values():
    even, odd = project_pm(np.array([1.0, 1.0]))
    assert_allclose(even, [1.0, 1.0])
    assert_allclose(odd, [0.0, 0.0])
    even, odd = project_pm(np.array([2.0, 0.0]))
    assert_allclose(even, [1.0, 1.0])
    assert_allclose(odd, [1.0, -1.0])


def _grid(dim, n=64):
    return LogRadialGrid(dim, -6.0, 6.0, n)


def test_decompose_recompose_roundtrip():
    grid = _grid(2)
    rng = np.random.default_rng(17)
    field = GridField2D(grid, rng.standard_normal((16, grid.n)) + 1j * rng.standard_normal((16, grid.n)))
    parts = decompose_2d(field)
    back = recompose_2d(parts, n_phi=16)
    assert np.max(np.abs(back.values - field.values)) < 1e-12 * np.max(np.abs(field.values))
    # Parseval across components
    total = parts.norm() ** 2
    assert total == pytest.approx(field.norm() ** 2, rel=1e-12)


def test_decompose_pure_profile_single_mode():
    grid = _grid(2)
    profile = np.exp(-grid.s**2)
    field = GridField2D(grid, np.tile(profile, (8, 1)))
    parts = decompose_2d(field)
    assert len(parts) == 1
    assert parts.m[0] == 0 and parts.degrees[0] == 0


def test_decompose_cos2_gives_degree_two():
    grid = _grid(2)
    phi = 2 * math.pi * np.arange(16) / 16
    field = GridField2D(grid, np.cos(2 * phi)[:, None] * np.exp(-grid.s**2)[None, :])
    parts = decompose_2d(field)
    assert sorted(parts.m.tolist()) == [-2, 2]
    assert all(parts.degrees == 2)


def test_decompose_1d_roundtrip():
    grid = _grid(1)
    rng = np.random.default_rng(2)
    field = GridField2D(grid, rng.standard_normal((2, grid.n)))
    parts = decompose_1d(field)
    assert parts.degrees.tolist() == [0, 1]
    back = recompose_1d(parts)
    assert_allclose(back.values, field.values, atol=1e-14)
    total = parts.norm() ** 2
    assert total == pytest.approx(field.norm() ** 2, rel=1e-12)


def test_factored_field_validation():
    grid3 = _grid(3)
    samples = RadialSamples(grid3, np.zeros((1, grid3.n)))
    FactoredField([2], samples)  # fine
    grid1 = _grid(1)
    s1 = RadialSamples(grid1, np.zeros((1, grid1.n)))
    with pytest.raises(DomainError):
        FactoredField([2], s1)


def test_grid_field_validation():
    grid1 = _grid(1)
    with pytest.raises(DomainError):
        GridField2D(grid1, np.zeros((3, grid1.n)))
    grid2 = _grid(2)
    with pytest.raises(DomainError):
        GridField2D(grid2, np.zeros((4, grid2.n)))  # n_phi below 8
    with pytest.raises(DomainError):
        GridField2D(_grid(3), np.zeros((8, 64)))


@pytest.mark.parametrize("dim, keys, rows", [
    (3, [0, 1], 3),      # fewer keys than rows
    (3, [0, 1, 2], 2),   # more keys than rows
    (3, np.zeros(0, dtype=int), 0),  # no sector at all
    (3, [2, -1], 2),     # N >= 3 keys are degrees
    (1, [0, 2], 2),      # N = 1 keys are parities
    (1, [-1], 1),
    (2, [0.0, 1.0], 2),  # keys are integers
    (1, [0, 1, 1], 3),   # one row per key
    (2, [-3, 2, -3], 3),
], ids=["few-keys", "many-keys", "empty", "negative-degree", "parity-2", "parity-minus-1", "float-keys",
        "repeated-parity", "repeated-mode"])
def test_factored_field_rejects_bad_keys(dim, keys, rows):
    grid = _grid(dim)
    with pytest.raises(DomainError):
        FactoredField(np.array(keys), RadialSamples(grid, np.ones((rows, grid.n))))


def test_factored_field_keys_match_the_file_column():
    grid = _grid(2)
    field = FactoredField([-3, 0, 2], RadialSamples(grid, np.ones((3, grid.n))))
    assert len(field) == 3
    assert field.degrees.tolist() == [3, 0, 2]


def test_decompose_2d_keeps_the_modes_above_the_drop_threshold():
    grid = _grid(2)
    phi = 2 * math.pi * np.arange(32) / 32
    profile = np.exp(-grid.s**2)
    # modes -5, 0, 3 and 9 carry weight; mode 7 sits far below 1e-14 of the total
    amplitudes = {-5: 1.0, 0: 0.5, 3: 2.0 + 1.0j, 9: 1e-6, 7: 1e-18}
    values = sum(a * np.exp(1j * k * phi)[:, None] * profile[None, :] for k, a in amplitudes.items())
    parts = decompose_2d(GridField2D(grid, values))
    assert len(parts) == 4
    assert parts.m.tolist() == [-5, 0, 3, 9]


def test_recompose_2d_adds_aliased_modes():
    grid = _grid(2)
    rows = np.stack([np.exp(-grid.s**2), 2.0 * np.exp(-grid.s**2)])
    back = recompose_2d(FactoredField([-1, 7], RadialSamples(grid, rows)), n_phi=8)
    summed = recompose_2d(FactoredField([-1], RadialSamples(grid, 3.0 * rows[:1])), n_phi=8)
    assert_allclose(back.values, summed.values)


def test_an_n_whose_gamma_is_past_the_float_range_is_refused():
    # Gamma(N/2) is a float up to N = 343, Gamma(171.5) = 9.5e307, and past the float range from N = 344 on
    assert math.isfinite(projection_kernel(0, 343, 0.5))
    for dim in (344, 1000):
        with pytest.raises(DomainError, match=rf"N = {dim} is too large: Gamma\(N/2\) is past the float range"):
            projection_kernel(0, dim, 0.5)
