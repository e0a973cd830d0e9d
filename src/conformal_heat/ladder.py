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

Each operator, generator or combination, is compiled once per bracket
into its step and one coefficient function, so the 18 basis exponents
of a bracket pay only the arithmetic.  The function bodies are the
coefficient formulas as written above, operand for operand and in the
same grouping, and a combination adds its weighted terms left to right
from the first: the coefficients keep their bits on every interpreter,
including the mixed real/complex rules of CPython 3.14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def _coefficient_map(op: LadderOperatorSpec) -> Callable[[complex, complex], complex]:
    """op's coefficient map (lam, coeff) -> coefficient of op (coeff r^lam)."""
    c = op.dim - 2
    m = op.degree
    a = op.a
    if a is None:
        if op.kind == "H":
            return lambda lam, coeff: coeff * (2.0 * lam + c)
        if op.kind == "E+":
            return lambda lam, coeff: coeff * 1j
        return lambda lam, coeff: coeff * 1j * (lam - m) * (lam + m + c)
    if op.kind == "H":
        return lambda lam, coeff: coeff * (2.0 * lam + a + c) / a
    if op.kind == "E+":
        return lambda lam, coeff: coeff * 1j / a
    i_over_a = 1j / a
    return lambda lam, coeff: coeff * i_over_a * (lam - m) * (lam + m + c)


def _compile(op) -> tuple[complex, Callable[[complex, complex], complex]]:
    """op as (step, coefficient map); a bare spec is the combination [(1.0, op)].

    Every term shares the one step; the weighted terms are summed in
    order, starting from the first.
    """
    combo = [(1.0, op)] if isinstance(op, LadderOperatorSpec) else list(op)
    steps = {spec.step for _, spec in combo}
    if len(steps) != 1:
        raise DomainError(f"a combination must shift every exponent by one step, got {steps}")
    (w0, f0), *rest = [(w, _coefficient_map(spec)) for w, spec in combo]
    if not rest:
        return steps.pop(), lambda lam, coeff: w0 * f0(lam, coeff)

    def combined(lam, coeff):
        total = w0 * f0(lam, coeff)
        for w, f in rest:
            total = total + w * f(lam, coeff)
        return total

    return steps.pop(), combined


def act(op, lam: complex, coeff: complex = 1.0) -> tuple[complex, complex]:
    """(exponent, coefficient) of op applied to coeff * r^lam, exactly.

    op is a LadderOperatorSpec or a combination [(w, spec), ...] whose
    terms share one step; unequal steps raise DomainError.
    """
    lam, coeff = complex(lam), complex(coeff)
    if isinstance(op, LadderOperatorSpec):
        return lam + op.step, _coefficient_map(op)(lam, coeff)
    step, coefficient = _compile(op)
    return lam + step, coefficient(lam, coeff)


def commutator_defect(x, y, expected, basis: Iterable[complex]) -> float:
    """Max coefficient of ([X, Y] - expected) r^lambda over the basis.

    x, y, expected may each be a LadderOperatorSpec or a linear combination;
    expected may also be None for the zero operator.  When the expected
    step differs from step X + step Y, its term sits at another exponent,
    so it cannot cancel and the two coefficients count separately.
    """
    (sx, fx), (sy, fy) = _compile(x), _compile(y)
    if expected is not None:
        s_expected, f_expected = _compile(expected)
        apart = s_expected != sx + sy
    one = 1.0 + 0.0j
    worst = 0.0
    for lam in basis:
        # X Y r^lam and Y X r^lam: one coefficient each, at one exponent
        lam = complex(lam)
        c_xy = fx(lam + sy, fy(lam, one))
        c_yx = fy(lam + sx, fx(lam, one))
        if expected is None:
            defect = abs(c_xy - c_yx)
        else:
            c_expected = f_expected(lam, one)
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
