"""Exact ladder-operator actions on power functions r^lambda.

With theta = r d/dr the three radial generators at parameter a != 0 act on
r^lambda as

    H  : r^lambda -> ((2 lambda + a + N - 2)/a) r^lambda
    E+ : r^lambda -> (i/a) r^{lambda + a}
    E- : r^lambda -> (i/a) (lambda - m)(lambda + m + N - 2) r^{lambda - a}

and their a -> 0 limits (after rescaling by a) become the commuting family

    H  : r^lambda -> (2 lambda + N - 2) r^lambda
    E+ : r^lambda -> i r^lambda
    E- : r^lambda -> i (lambda - m)(lambda + m + N - 2) r^lambda.

These actions are exact on finite power sums, so commutator identities can
be checked to roundoff with no discretization error.  Exponents produced by
chains like (lambda + a) - a may differ from lambda by an ulp, so PowerSum
coalesces exponents closer than a tight tolerance before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError

_EXP_MERGE = 1e-12  # exponents closer than this collapse to one term


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


# a linear combination sum_k c_k X_k of generators
OperatorCombination = Sequence[tuple[complex, LadderOperatorSpec]]

# The algebra works on merged term lists [(lambda, c), ...]: complex
# entries, no two exponents within the merge tolerance of each other.
# Scaling a merged list or keeping its exponents keeps it merged, so only
# terms with new exponents go through the merge.
Terms = list[tuple[complex, complex]]


def _merge_into(terms: Terms, lam: complex, coeff: complex) -> None:
    for i, (lam0, c0) in enumerate(terms):
        if abs(lam - lam0) <= _EXP_MERGE * (1.0 + abs(lam0)):
            terms[i] = (lam0, c0 + coeff)
            return
    terms.append((lam, coeff))


def _add_scaled(terms: Terms, other: Terms, factor: complex) -> None:
    # terms += factor * other, in place; other is merged, so into an empty
    # list its terms go as they are
    if not terms:
        terms.extend([(lam, complex(factor * c)) for lam, c in other])
        return
    for lam, c in other:
        _merge_into(terms, lam, complex(factor * c))


def _act_terms(op: LadderOperatorSpec, terms: Terms) -> Terms:
    c = op.dim - 2
    m = op.degree
    a = op.a
    # H and the limit family keep the exponents, so the result stays merged
    if a is None:
        if op.kind == "H":
            return [(lam, coeff * (2.0 * lam + c)) for lam, coeff in terms]
        if op.kind == "E+":
            return [(lam, coeff * 1j) for lam, coeff in terms]
        return [(lam, coeff * 1j * (lam - m) * (lam + m + c)) for lam, coeff in terms]
    if op.kind == "H":
        return [(lam, complex(coeff * (2.0 * lam + a + c) / a)) for lam, coeff in terms]
    if op.kind == "E+":
        shifted = [(lam + a, coeff * 1j / a) for lam, coeff in terms]
    else:
        shifted = [(lam - a, coeff * (1j / a) * (lam - m) * (lam + m + c)) for lam, coeff in terms]
    out: Terms = []
    for lam, coeff in shifted:
        _merge_into(out, complex(lam), complex(coeff))
    return out


def _act_combination_terms(combo: OperatorCombination, terms: Terms) -> Terms:
    out: Terms = []
    for coeff, spec in combo:
        _add_scaled(out, _act_terms(spec, terms), coeff)
    return out


class PowerSum:
    """Finite sum of terms c * r^lambda with complex c and lambda."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[complex, complex]] = ()):
        self.terms: Terms = []
        for lam, coeff in terms:
            _merge_into(self.terms, complex(lam), complex(coeff))

    @classmethod
    def power(cls, lam: complex, coeff: complex = 1.0) -> "PowerSum":
        return cls([(lam, coeff)])

    @classmethod
    def _merged(cls, terms: Terms) -> "PowerSum":
        # wrap a merged term list as it is
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other: "PowerSum") -> "PowerSum":
        out = list(self.terms)
        for lam, c in other.terms:
            _merge_into(out, lam, c)
        return PowerSum._merged(out)

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        out = list(self.terms)
        _add_scaled(out, other.terms, -1.0)
        return PowerSum._merged(out)

    def scale(self, factor: complex) -> "PowerSum":
        return PowerSum._merged([(lam, complex(factor * c)) for lam, c in self.terms])

    def max_coeff(self) -> float:
        return max((abs(c) for _, c in self.terms), default=0.0)


def act(op: LadderOperatorSpec, f: PowerSum) -> PowerSum:
    """Apply one generator to a power sum, exactly termwise."""
    return PowerSum._merged(_act_terms(op, f.terms))


def _as_combination(op) -> OperatorCombination:
    if isinstance(op, LadderOperatorSpec):
        return [(1.0, op)]
    return list(op)


def act_combination(op, f: PowerSum) -> PowerSum:
    return PowerSum._merged(_act_combination_terms(_as_combination(op), f.terms))


def commutator_defect(x, y, expected, basis: Iterable[complex]) -> float:
    """Max coefficient of ([X, Y] - expected) r^lambda over the basis.

    x, y, expected may each be a LadderOperatorSpec or a linear combination;
    expected may also be None for the zero operator.
    """
    x, y = _as_combination(x), _as_combination(y)
    if expected is not None:
        expected = _as_combination(expected)
    worst = 0.0
    for lam in basis:
        f = PowerSum.power(lam).terms
        bracket = _act_combination_terms(x, _act_combination_terms(y, f))
        _add_scaled(bracket, _act_combination_terms(y, _act_combination_terms(x, f)), -1.0)
        if expected is not None:
            _add_scaled(bracket, _act_combination_terms(expected, f), -1.0)
        worst = max(worst, PowerSum._merged(bracket).max_coeff())
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
