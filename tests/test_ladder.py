"""Exact commutator checks for the ladder operators on power functions."""

from __future__ import annotations

import itertools
import random

import pytest

from conformal_heat.errors import DomainError
from conformal_heat.ladder import (
    LadderOperatorSpec,
    act,
    commutator_defect,
    degeneration_trace,
    rescaled_pair,
    standard_basis,
)


def test_action_coefficients_at_finite_a():
    h = act(LadderOperatorSpec("H", 2.0, 0, 3), 1.0)
    assert h == (1.0, pytest.approx(2.5))  # (2*1 + 2 + 1)/2
    ep = act(LadderOperatorSpec("E+", 1.0, 0, 2), 1.0)
    assert ep[0] == pytest.approx(2.0)
    assert ep[1] == pytest.approx(1j)
    em = act(LadderOperatorSpec("E-", 1.0, 1, 4), 2.0)
    # i (2 - 1)(2 + 1 + 2) r^1
    assert em[0] == pytest.approx(1.0)
    assert em[1] == pytest.approx(5j)


def test_action_coefficients_in_the_limit():
    f = 0.5 + 1j
    h = act(LadderOperatorSpec("H", None, 0, 3), f)
    assert h[0] == 0.5 + 1j
    assert h[1] == pytest.approx(2 * (0.5 + 1j) + 1)
    em = act(LadderOperatorSpec("E-", None, 2, 3), f)
    lam = 0.5 + 1j
    assert em[1] == pytest.approx(1j * (lam - 2) * (lam + 2 + 1))
    # frozen: m=1, N=2 on r^3 gives i(3-1)(3+1) = 8i
    em2 = act(LadderOperatorSpec("E-", None, 1, 2), 3.0)
    assert em2 == (3.0, pytest.approx(8j))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 0.3 + 0.1j])
@pytest.mark.parametrize("dim,m", [(1, 0), (1, 1), (2, 0), (3, 2), (4, 1)])
def test_sl2_relations(a, dim, m):
    basis = standard_basis()
    H = LadderOperatorSpec("H", a, m, dim)
    Ep = LadderOperatorSpec("E+", a, m, dim)
    Em = LadderOperatorSpec("E-", a, m, dim)
    assert commutator_defect(H, Ep, [(2.0, Ep)], basis) < 1e-12
    assert commutator_defect(H, Em, [(-2.0, Em)], basis) < 1e-12
    assert commutator_defect(Ep, Em, H, basis) < 1e-12


@pytest.mark.parametrize("a", [0.5, 0.05])
@pytest.mark.parametrize("dim,m", [(2, 0), (3, 1)])
def test_rescaled_relations_contract_linearly(a, dim, m):
    # [aH, aE+] = 2a (aE+), [aH, aE-] = -2a (aE-), [aE+, aE-] = a (aH)
    basis = standard_basis()
    h = rescaled_pair("H", a, m, dim)
    ep = rescaled_pair("E+", a, m, dim)
    em = rescaled_pair("E-", a, m, dim)
    scale = lambda combo, c: [(c * w, s) for w, s in combo]
    assert commutator_defect(h, ep, scale(ep, 2 * a), basis) < 1e-12
    assert commutator_defect(h, em, scale(em, -2 * a), basis) < 1e-12
    assert commutator_defect(ep, em, scale(h, a), basis) < 1e-12


@pytest.mark.parametrize("pair", [("H", "E+"), ("H", "E-"), ("E+", "E-")])
def test_degeneration_defect_drops_by_decades(pair):
    defects = degeneration_trace([1e-1, 1e-2, 1e-3], pair, standard_basis(), 1, 3)
    assert defects[0] > defects[1] > defects[2] > 0
    for bigger, smaller in zip(defects, defects[1:]):
        assert abs(bigger / smaller - 10.0) < 0.5


@pytest.mark.parametrize("x,y", [("H", "E+"), ("H", "E-"), ("E+", "E-")])
def test_limit_family_commutes(x, y):
    basis = standard_basis()
    for dim, m in [(1, 1), (2, 0), (3, 2), (4, 3)]:
        X = LadderOperatorSpec(x, None, m, dim)
        Y = LadderOperatorSpec(y, None, m, dim)
        assert commutator_defect(X, Y, None, basis) < 1e-12


@pytest.mark.parametrize("dim,m", [(2, 0), (3, 1), (4, 2)])
def test_rescaled_family_approaches_limit(dim, m):
    # at a = 1e-6: aH_a = H_limit + a, and aE+- match the limit coefficients
    # exactly with exponents shifted by +-a
    a = 1e-6
    c = dim - 2
    for lam in (0.7, -1.5 + 0.5j, 2.0 + 1j):
        h = act(rescaled_pair("H", a, m, dim), lam)
        h_lim = act(LadderOperatorSpec("H", None, m, dim), lam)
        assert h[0] == h_lim[0] == lam
        assert abs(h[1] - h_lim[1] - a) < 1e-10

        ep = act(rescaled_pair("E+", a, m, dim), lam)
        assert abs(ep[1] - 1j) < 1e-10
        assert abs(ep[0] - lam) <= 2 * a

        em = act(rescaled_pair("E-", a, m, dim), lam)
        lim = 1j * (lam - m) * (lam + m + c)
        assert abs(em[1] - lim) < 1e-10
        assert abs(em[0] - lam) <= 2 * a


def test_spec_validation():
    with pytest.raises(DomainError):
        LadderOperatorSpec("X", 1.0, 0, 3)
    with pytest.raises(DomainError):
        LadderOperatorSpec("H", 0.0, 0, 3)
    with pytest.raises(DomainError):
        LadderOperatorSpec("H", 1.0, -1, 3)


# The oracle: a general power-sum algebra, in which every sum, scaling and
# action builds a fresh power sum and merges exponents closer than 1e-12.
# The library's monomial maps must reproduce its actions and defects
# exactly.
class _ReferencePowerSum:
    def __init__(self, terms=()):
        self.terms = []
        for lam, coeff in terms:
            self._accumulate(complex(lam), complex(coeff))

    def _accumulate(self, lam, coeff):
        for i, (lam0, c0) in enumerate(self.terms):
            if abs(lam - lam0) <= 1e-12 * (1.0 + abs(lam0)):
                self.terms[i] = (lam0, c0 + coeff)
                return
        self.terms.append((lam, coeff))

    def __add__(self, other):
        out = _ReferencePowerSum(self.terms)
        for lam, c in other.terms:
            out._accumulate(lam, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return _ReferencePowerSum([(lam, factor * c) for lam, c in self.terms])

    def max_coeff(self):
        return max((abs(c) for _, c in self.terms), default=0.0)


def _reference_act(op, f):
    c = op.dim - 2
    m = op.degree
    out = []
    for lam, coeff in f.terms:
        if op.a is None:
            if op.kind == "H":
                out.append((lam, coeff * (2.0 * lam + c)))
            elif op.kind == "E+":
                out.append((lam, coeff * 1j))
            else:
                out.append((lam, coeff * 1j * (lam - m) * (lam + m + c)))
        else:
            a = op.a
            if op.kind == "H":
                out.append((lam, coeff * (2.0 * lam + a + c) / a))
            elif op.kind == "E+":
                out.append((lam + a, coeff * 1j / a))
            else:
                out.append((lam - a, coeff * (1j / a) * (lam - m) * (lam + m + c)))
    return _ReferencePowerSum(out)


def _reference_act_combination(op, f):
    combo = [(1.0, op)] if isinstance(op, LadderOperatorSpec) else list(op)
    out = _ReferencePowerSum()
    for coeff, spec in combo:
        out = out + _reference_act(spec, f).scale(coeff)
    return out


def _reference_commutator_defect(x, y, expected, basis):
    worst = 0.0
    for lam in basis:
        f = _ReferencePowerSum([(lam, 1.0)])
        bracket = _reference_act_combination(x, _reference_act_combination(y, f)) - \
            _reference_act_combination(y, _reference_act_combination(x, f))
        if expected is not None:
            bracket = bracket - _reference_act_combination(expected, f)
        worst = max(worst, bracket.max_coeff())
    return worst


@pytest.mark.parametrize("suite", ["sl2", "degeneration"])
def test_commutator_defects_equal_the_reference_algebra(monkeypatch, suite):
    import conformal_heat.ladder as ladder
    import conformal_heat.verify as verify

    calls = []

    def recording(x, y, expected, basis):
        basis = list(basis)
        defect = commutator_defect(x, y, expected, basis)
        calls.append((x, y, expected, basis, defect))
        return defect

    monkeypatch.setattr(verify, "commutator_defect", recording)
    monkeypatch.setattr(ladder, "commutator_defect", recording)
    verify.SUITES[suite]()
    assert len(calls) == {"sl2": 378, "degeneration": 168}[suite]
    for x, y, expected, basis, defect in calls:
        assert defect == _reference_commutator_defect(x, y, expected, basis)


def _bits(pair):
    # exponent and coefficient as hex floats: equal only if bit for bit equal
    return [(z.real.hex(), z.imag.hex()) for z in pair]


def test_power_sum_operations_equal_the_reference_algebra():
    lams = [complex(p, q) for p, q in ((0.5, 1.0), (0.5 + 1e-13, 1.0), (-2.0, 0.0), (3.0, -1.0))]
    terms = [(lam, complex(k + 1, -k)) for k, lam in enumerate(lams)]
    for spec in (LadderOperatorSpec("H", 0.7, 1, 3), LadderOperatorSpec("E+", 1e-13, 0, 2),
                 LadderOperatorSpec("E-", None, 2, 4)):
        combo = [(2.0, spec), (-0.5j, spec)]
        for term in terms:
            ref = _ReferencePowerSum([term])
            assert [act(spec, *term)] == _reference_act(spec, ref).terms
            assert [act(combo, *term)] == _reference_act_combination(combo, ref).terms


_KINDS_AND_A = [(kind, a) for kind in ("H", "E+", "E-") for a in (0.7, 0.3 + 0.1j, -2.0, None)]


@pytest.mark.parametrize("kind,a", _KINDS_AND_A)
def test_act_equals_the_reference_bit_for_bit(kind, a):
    for dim, m in [(1, 1), (2, 0), (3, 2), (4, 1)]:
        spec = LadderOperatorSpec(kind, a, m, dim)
        assert spec.step == (0 if a is None or kind == "H" else a if kind == "E+" else -a)
        for lam in (0.7, -1.5 + 0.5j, 2.0 - 1j, complex(3, 0)):
            for coeff in (1.0, 0.25 - 2j):
                got = act(spec, lam, coeff)
                want = _reference_act(spec, _ReferencePowerSum([(lam, coeff)])).terms
                assert len(want) == 1 and _bits(got) == _bits(want[0])


@pytest.mark.parametrize("kind,a", _KINDS_AND_A)
def test_same_step_combination_equals_the_reference(kind, a):
    combo = [(2.0, LadderOperatorSpec(kind, a, 1, 3)), (-0.5j, LadderOperatorSpec(kind, a, 0, 2)),
             (0.25 + 1j, LadderOperatorSpec(kind, a, 2, 4))]
    if kind == "H" and a is not None:  # H_a and the limit family share step 0
        combo.append((1.5, LadderOperatorSpec("E-", None, 1, 3)))
    for lam in standard_basis():
        want = _reference_act_combination(combo, _ReferencePowerSum([(lam, 1.0)])).terms
        assert len(want) == 1 and _bits(act(combo, lam)) == _bits(want[0])


def test_combination_with_unequal_steps_is_refused():
    ep = LadderOperatorSpec("E+", 0.5, 1, 3)
    em = LadderOperatorSpec("E-", 0.5, 1, 3)
    h = LadderOperatorSpec("H", 0.5, 1, 3)
    for combo in ([(1.0, ep), (1.0, em)], [(1.0, h), (2.0, ep)],
                  [(1.0, ep), (1.0, LadderOperatorSpec("E+", 0.5 + 1e-13, 1, 3))]):
        with pytest.raises(DomainError):
            act(combo, 1.0)
        with pytest.raises(DomainError):
            commutator_defect(combo, h, None, standard_basis())
    with pytest.raises(DomainError):
        commutator_defect(h, ep, [(1.0, ep), (1.0, h)], standard_basis())


@pytest.mark.parametrize("a", [0.5, 2.0, 0.3 + 0.1j])
def test_mismatched_expected_step_equals_the_reference(a):
    # [H, E+] sits at lambda + a, the expected H at lambda: nothing cancels
    basis = standard_basis()
    for dim, m in [(1, 0), (3, 2)]:
        H = LadderOperatorSpec("H", a, m, dim)
        Ep = LadderOperatorSpec("E+", a, m, dim)
        got = commutator_defect(H, Ep, H, basis)
        assert got == _reference_commutator_defect(H, Ep, H, basis)
        assert got > 1.0


# Seeded random brackets that the suites never build: complex, negative and
# tiny a, combinations of up to three terms with complex weights, degrees
# 0-4 in dimensions 1-6, random complex exponents, and an expected operator
# that is absent, at the bracket's step or at another step.  The reference
# merges exponents closer than 1e-12, so it cannot tell a step of 1e-13 from
# none: an expected operator at another step comes only with |a| >= 0.3.
_RANDOM_A = (0.3 + 0.1j, -2.0, 1e-13, None)


def _random_operator(rnd, a, sign, terms):
    """A generator (terms = 0) or a combination of terms generators of step sign * a."""
    def generator():
        if sign:
            kind, at = ("E+" if sign > 0 else "E-"), a
        else:  # step 0: H_a or any member of the limit family
            kind, at = rnd.choice([("H", a), ("H", None), ("E+", None), ("E-", None)])
        return LadderOperatorSpec(kind, at, rnd.randrange(5), rnd.randrange(1, 7))

    if terms == 0:
        return generator()
    return [(complex(rnd.gauss(0, 1), rnd.gauss(0, 1)), generator()) for _ in range(terms)]


@pytest.mark.parametrize("a", _RANDOM_A)
def test_random_brackets_equal_the_reference_bit_for_bit(a):
    rnd = random.Random(f"brackets {a}")
    signs = (-1, 0, 1) if a is not None else (0,)
    seen = set()
    for terms_x, terms_y, mode in itertools.product(range(4), range(4), ("none", "same", "apart")):
        sx, sy = rnd.choice(signs), rnd.choice(signs)
        bracket = sx + sy
        if mode == "none":
            expected = None
        elif mode == "same":
            if bracket not in signs:  # no generator moves the exponent by 2a
                continue
            expected = _random_operator(rnd, a, bracket, rnd.randrange(4))
        else:
            if a is None or abs(a) < 0.3:
                continue
            expected = _random_operator(rnd, a, rnd.choice([s for s in signs if s != bracket]),
                                        rnd.randrange(4))
        x = _random_operator(rnd, a, sx, terms_x)
        y = _random_operator(rnd, a, sy, terms_y)
        basis = [complex(rnd.uniform(-3, 4), rnd.uniform(-2, 2)) for _ in range(6)]
        got = commutator_defect(x, y, expected, basis)
        assert got.hex() == _reference_commutator_defect(x, y, expected, basis).hex(), (x, y, expected)
        seen.add(mode)
    assert seen == ({"none", "same"} if a is None or abs(a) < 0.3 else {"none", "same", "apart"})
