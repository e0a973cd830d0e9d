"""A high-precision reference for the kernel's angular sum, from the standard library alone.

    angular_sum(dim, t, z)    sum_m exp(-z (m + nu)^2) C~_m^nu(t),  nu = (N - 2)/2

for N >= 2, |t| <= 1 and real z > 0.  C~_m^nu = ((m + nu)/nu) C_m^nu is
the renormalised Gegenbauer polynomial of the kernel series (2 T_m for
m >= 1 at nu = 0), so the full kernel at r = r' = 1 is the sum times
Gamma(N/2)/(2 pi^{N/2}) (4 pi z)^{-1/2}.

The sum runs in `decimal`, from t and z taken exactly from their floats.
For real z its terms cancel by about e^{theta^2/(4z)}, theta = arccos t,
so it is summed to 25 + theta^2/(4z)/ln 10 significant digits (more with
`extra`), which leaves about 25 digits of the result.  It stops once a
term's bound, exp(-z (m + nu)^2) C~_m^nu(1), is below 10^-digits of the
partial sum; C~_m^nu(1) is the sup of |C~_m^nu| on [-1, 1] for nu >= 0.

No route of the package computes the sum this way, and no package module
imports this one: it is the tests' fourth route.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext


def digits(t: float, z: float) -> int:
    """The significant digits that angular_sum(dim, t, z) carries: 25 past the cancellation."""
    theta = math.acos(t)
    return 25 + math.ceil(theta * theta / (4.0 * z) / math.log(10.0))


def angular_sum(dim: int, t: float, z: float, extra: int = 0) -> Decimal:
    """sum_m exp(-z (m + nu)^2) C~_m^nu(t) to digits(t, z) + extra significant digits."""
    if not (dim >= 2 and -1.0 <= t <= 1.0 and z > 0.0):
        raise ValueError(f"need N >= 2, |t| <= 1 and real z > 0, got N = {dim}, t = {t}, z = {z}")
    with localcontext() as ctx:
        ctx.prec = digits(t, z) + extra
        t, z, nu = Decimal(t), Decimal(z), Decimal(dim - 2) / 2
        below = Decimal(10) ** -ctx.prec
        # C~_{m+1} = (m+1+nu)/(m+1) (2 t C~_m - (m+2nu-1)/(m+nu-1) C~_{m-1}), the quotient 2 at m = 1
        before, tilde, sup = Decimal(0), Decimal(1), Decimal(1)
        total, m = Decimal(0), 0
        while True:
            weight = (-z * (m + nu) ** 2).exp()
            total += weight * tilde
            if m and weight * sup < below * abs(total):
                return +total
            quotient = (m + 2 * nu - 1) / (m + nu - 1) if m > 1 else 2 * m  # C~_{-1} = 0
            grow = (m + 1 + nu) / (m + 1)
            before, tilde = tilde, grow * (2 * t * tilde - quotient * before)
            sup = 2 * (1 + nu) if m == 0 else sup * grow * (m + 2 * nu) / (m + nu)
            m += 1
