"""The decimal reference of the angular sum (tests/reference.py), checked, and the series checked against it."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import pytest

from conformal_heat.kernels import as_time, closed_form, full_kernel_series
from conformal_heat.spherical import _zonal_prefactor
from reference import angular_sum, digits

_EPS = 2.0**-53


def _cancellation(t: float, z: float) -> float:
    """e^{theta^2/(4z)}, theta = arccos t: how far the angular sum's terms cancel at real z."""
    theta = math.acos(t)
    return math.exp(theta * theta / (4.0 * z))


def _relative(got: complex, want: Decimal) -> float:
    return abs(got - float(want)) / abs(float(want))


def _sum_of(kernel: complex, dim: int, z: float) -> complex:
    """The angular sum in a kernel value at r = r' = 1: the kernel over its prefactor."""
    return kernel / (_zonal_prefactor(dim) * as_time(z).inv_sqrt_4pi_z)


# The decimal module's recipes (Python documentation, decimal, Recipes), at the context's precision.

def _pi() -> Decimal:
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    with localcontext() as ctx:
        ctx.prec += 2
        out = []
        for i, s, num, fact in ((0, Decimal(1), Decimal(1), 1), (1, x, x, 1)):
            lasts, sign = 0, 1
            while s != lasts:
                lasts = s
                i += 2
                fact *= i * (i - 1)
                num *= x * x
                sign *= -1
                s += num / fact * sign
            out.append(s)
    return +out[0], +out[1]


def _image_sum_2d(t: float, z: float) -> Decimal:
    """(pi/z)^{1/2} sum_j e^{-(theta - 2 pi j)^2/(4z)}, theta = arccos t: the N = 2 angular sum by Poisson summation."""
    with localcontext() as ctx:
        ctx.prec = digits(t, z) + 10
        theta, t = Decimal(math.acos(t)), Decimal(t)
        for _ in range(3):  # Newton on cos theta = t, from the float's 16 digits
            cos, sin = _cos_sin(theta)
            theta += (cos - t) / sin
        pi, z = _pi(), Decimal(z)
        images = sum((-(theta - 2 * pi * j) ** 2 / (4 * z)).exp() for j in range(-2, 3))
        return (pi / z).sqrt() * images


@pytest.mark.parametrize("dim", [2, 4])
def test_the_reference_is_the_closed_form_where_the_closed_form_keeps_its_digits(dim):
    gate, checked = 1e-14, 0
    for z in (0.5, 0.3, 0.1):
        for theta in (0.3, 1.0, 2.0, 2.9):
            t = math.cos(theta)
            if _EPS * _cancellation(t, z) < gate:
                closed = complex(closed_form(dim, 1.0, 1.0, t, z, 1e-15))
                assert _relative(_sum_of(closed, dim, z), angular_sum(dim, t, z)) < gate, (z, theta)
                checked += 1
    assert checked == 9


@pytest.mark.parametrize("theta", [0.6, 1.2, 2.0])
def test_the_reference_is_the_image_sum_at_n2(theta):
    t, z = math.cos(theta), 0.01
    want = _image_sum_2d(t, z)
    assert abs(angular_sum(2, t, z) - want) < Decimal("1e-22") * want


@pytest.mark.parametrize("dim, theta, z", [(3, 1.2, 0.01), (5, 2.0, 0.005), (8, 0.6, 0.05)])
def test_the_reference_agrees_with_itself_at_twenty_more_digits(dim, theta, z):
    t = math.cos(theta)
    more = angular_sum(dim, t, z, extra=20)
    assert abs(angular_sum(dim, t, z) - more) < Decimal("1e-22") * abs(more)


def test_the_reference_has_the_kernel_value_of_the_known_defect():
    # kernel --dim 3 --z 0.01,0 --r 1 --rp 1 --t cos(1.2): 5.9137e-15, where the default tol prints -6.4e-13
    t = 0.36235775447667362
    kernel = float(angular_sum(3, t, 0.01)) * _zonal_prefactor(3) * as_time(0.01).inv_sqrt_4pi_z.real
    assert math.isclose(kernel, 5.9137e-15, rel_tol=1e-4)


@pytest.mark.parametrize("z", [0.05, 0.01])
@pytest.mark.parametrize("theta", [0.6, 1.2])
@pytest.mark.parametrize("dim", [3, 5, 8])
def test_the_series_at_tol_1e_14_is_off_by_its_cancellation_alone(dim, theta, z):
    # measured: at most 0.89 eps e^{theta^2/(4z)} (N = 5, theta = 0.6, z = 0.05); 1.4e-4 at N = 3, theta = 1.2,
    # z = 0.01, where the bound is 0.48
    t = math.cos(theta)
    series = _sum_of(full_kernel_series(dim, 1.0, 1.0, t, z, 1e-14), dim, z)
    assert _relative(series, angular_sum(dim, t, z)) <= 4 * _EPS * _cancellation(t, z)
