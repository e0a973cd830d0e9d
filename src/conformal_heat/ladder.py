"""Exact ladder-operator actions on power functions r^lambda.

With theta = r d/dr the three radial generators at parameter a != 0 map
each power function to one power function:

    H  : r^lambda -> ((2 lambda + a + N - 2)/a) r^lambda
    E+ : r^lambda -> (i/a) r^{lambda + a}
    E- : r^lambda -> (i/a) (lambda - m)(lambda + m + N - 2) r^{lambda - a}

and their a -> 0 limits (after rescaling by a) become the commuting family

    H  : r^lambda -> (2 lambda + N - 2) r^lambda
    E+ : r^lambda -> i r^lambda
    E- : r^lambda -> i (lambda - m)(lambda + m + N - 2) r^lambda.

So each generator is a monomial map: a coefficient and a step, the shift
of the exponent (0 for H and the limit family, +a for E+, -a for E-).  The
contraction a -> 0 is the limit where the steps shrink to zero.  A linear
combination with one common step is again a monomial map, and a bracket
[X, Y] applied to r^lambda is one coefficient at lambda + step X + step Y,
so commutator identities are checked to roundoff with no discretization
error and no bookkeeping of sums of powers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class LadderOperatorSpec:
    """One generator: kind in {"H", "E+", "E-"}, a = None for the limit family."""

    kind: str
    a: complex | None
    degree: int
    dim: int

    def __post_init__(self):
        if self.kind not in ("H", "E+", "E-"):
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if self.a is not None and self.a == 0:
            raise DomainError("a must be nonzero; use a=None for the limit family")
        if self.degree < 0 or self.dim < 1:
            raise DomainError("need degree >= 0 and dim >= 1")

    @property
    def step(self) -> complex:
        """Exponent shift: 0 for H and the limit family, +a for E+, -a for E-."""
        if self.a is None or self.kind == "H":
            return 0.0
        return self.a if self.kind == "E+" else -self.a


# a linear combination sum_k c_k X_k of generators
OperatorCombination = Sequence[tuple[complex, LadderOperatorSpec]]


def _coefficient(op: LadderOperatorSpec, lam: complex, coeff: complex) -> complex:
    # the coefficient of op (coeff r^lam); the exponent moves by op.step
    c = op.dim - 2
    m = op.degree
    a = op.a
    if a is None:
        if op.kind == "H":
            return coeff * (2.0 * lam + c)
        if op.kind == "E+":
            return coeff * 1j
        return coeff * 1j * (lam - m) * (lam + m + c)
    if op.kind == "H":
        return coeff * (2.0 * lam + a + c) / a
    if op.kind == "E+":
        return coeff * 1j / a
    return coeff * (1j / a) * (lam - m) * (lam + m + c)


def _combination(op) -> tuple[OperatorCombination, complex]:
    """op as a combination, with the one step all of its terms share."""
    combo = [(1.0, op)] if isinstance(op, LadderOperatorSpec) else list(op)
    steps = {spec.step for _, spec in combo}
    if len(steps) != 1:
        raise DomainError(f"a combination must shift every exponent by one step, got {steps}")
    return combo, steps.pop()


def _act(combo: OperatorCombination, step: complex, lam: complex, coeff: complex):
    # the terms are summed in order, starting from the first
    total = reduce(operator.add, (w * _coefficient(spec, lam, coeff) for w, spec in combo))
    return lam + step, total


def act(op, lam: complex, coeff: complex = 1.0) -> tuple[complex, complex]:
    """(exponent, coefficient) of op applied to coeff * r^lam, exactly.

    op is a LadderOperatorSpec or a combination [(w, spec), ...] whose
    terms share one step; unequal steps raise DomainError.
    """
    lam, coeff = complex(lam), complex(coeff)
    if isinstance(op, LadderOperatorSpec):
        return lam + op.step, _coefficient(op, lam, coeff)
    return _act(*_combination(op), lam, coeff)


def commutator_defect(x, y, expected, basis: Iterable[complex]) -> float:
    """Max coefficient of ([X, Y] - expected) r^lambda over the basis.

    x, y, expected may each be a LadderOperatorSpec or a linear combination;
    expected may also be None for the zero operator.  When the expected
    step differs from step X + step Y, its term sits at another exponent,
    so it cannot cancel and the two coefficients count separately.
    """
    x, y = _combination(x), _combination(y)
    if expected is not None:
        expected = _combination(expected)
        apart = expected[1] != x[1] + y[1]
    worst = 0.0
    for lam in basis:
        # X Y r^lam and Y X r^lam: one coefficient each, at one exponent
        lam = complex(lam)
        c_xy = _act(*x, *_act(*y, lam, 1.0 + 0.0j))[1]
        c_yx = _act(*y, *_act(*x, lam, 1.0 + 0.0j))[1]
        if expected is None:
            defect = abs(c_xy - c_yx)
        else:
            c_expected = _act(*expected, lam, 1.0 + 0.0j)[1]
            if apart:
                defect = max(abs(c_xy - c_yx), abs(c_expected))
            else:
                defect = abs(c_xy - c_yx - c_expected)
        worst = max(worst, defect)
    return worst


def rescaled_pair(kind: str, a: complex, degree: int, dim: int) -> OperatorCombination:
    """The contraction-scaled generator a * X_a as a combination."""
    return [(a, LadderOperatorSpec(kind, a, degree, dim))]


def degeneration_trace(
    a_sequence: Sequence[complex],
    pair: tuple[str, str],
    basis: Iterable[complex],
    degree: int,
    dim: int,
) -> list[float]:
    """Commutator defects of the rescaled pair against zero, per value of a.

    The rescaled brackets contract like [a X_a, a Y_a] = a * (linear in the
    rescaled family), so the defects must drop linearly with a.
    """
    basis = list(basis)
    out = []
    for a in a_sequence:
        x = rescaled_pair(pair[0], a, degree, dim)
        y = rescaled_pair(pair[1], a, degree, dim)
        out.append(commutator_defect(x, y, None, basis))
    return out


def standard_basis() -> list[complex]:
    """The 18-point exponent basis {-2..3} + i{-1, 0, 1} used by the checks."""
    return [complex(p, q) for p in range(-2, 4) for q in (-1, 0, 1)]
