"""Exact commutator checks for the ladder operators on power sums."""

from __future__ import annotations

import pytest

from conformal_heat.errors import DomainError
from conformal_heat.ladder import (
    LadderOperatorSpec,
    PowerSum,
    act,
    act_combination,
    commutator_defect,
    degeneration_trace,
    rescaled_pair,
    standard_basis,
)


def test_power_sum_coalesces_nearby_exponents():
    p = PowerSum([(1.0, 2.0), (1.0 + 1e-13, 3.0)])
    assert len(p.terms) == 1
    assert p.terms[0][1] == pytest.approx(5.0)
    # distinct exponents stay distinct
    q = PowerSum([(1.0, 2.0), (1.0 + 1e-6, 3.0)])
    assert len(q.terms) == 2


def test_power_sum_arithmetic():
    p = PowerSum.power(2.0, 3.0) + PowerSum.power(1.0, 1.0)
    diff = p - p
    assert diff.max_coeff() == 0.0
    assert p.scale(2j).max_coeff() == pytest.approx(6.0)


def test_action_coefficients_at_finite_a():
    f = PowerSum.power(1.0)
    h = act(LadderOperatorSpec("H", 2.0, 0, 3), f)
    assert h.terms == [(1.0, pytest.approx(2.5))]  # (2*1 + 2 + 1)/2
    ep = act(LadderOperatorSpec("E+", 1.0, 0, 2), f)
    assert ep.terms[0][0] == pytest.approx(2.0)
    assert ep.terms[0][1] == pytest.approx(1j)
    em = act(LadderOperatorSpec("E-", 1.0, 1, 4), PowerSum.power(2.0))
    # i (2 - 1)(2 + 1 + 2) r^1
    assert em.terms[0][0] == pytest.approx(1.0)
    assert em.terms[0][1] == pytest.approx(5j)


def test_action_coefficients_in_the_limit():
    f = PowerSum.power(0.5 + 1j)
    h = act(LadderOperatorSpec("H", None, 0, 3), f)
    assert h.terms[0][0] == 0.5 + 1j
    assert h.terms[0][1] == pytest.approx(2 * (0.5 + 1j) + 1)
    em = act(LadderOperatorSpec("E-", None, 2, 3), f)
    lam = 0.5 + 1j
    assert em.terms[0][1] == pytest.approx(1j * (lam - 2) * (lam + 2 + 1))
    # frozen: m=1, N=2 on r^3 gives i(3-1)(3+1) = 8i
    em2 = act(LadderOperatorSpec("E-", None, 1, 2), PowerSum.power(3.0))
    assert em2.terms == [(3.0, pytest.approx(8j))]


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
        f = PowerSum.power(lam)
        h = act_combination(rescaled_pair("H", a, m, dim), f)
        h_lim = act(LadderOperatorSpec("H", None, m, dim), f)
        resid = h - h_lim - f.scale(a)
        assert resid.max_coeff() < 1e-10

        ep = act_combination(rescaled_pair("E+", a, m, dim), f)
        assert len(ep.terms) == 1
        assert abs(ep.terms[0][1] - 1j) < 1e-10
        assert abs(ep.terms[0][0] - lam) <= 2 * a

        em = act_combination(rescaled_pair("E-", a, m, dim), f)
        assert len(em.terms) == 1
        lim = 1j * (lam - m) * (lam + m + c)
        assert abs(em.terms[0][1] - lim) < 1e-10
        assert abs(em.terms[0][0] - lam) <= 2 * a


def test_spec_validation():
    with pytest.raises(DomainError):
        LadderOperatorSpec("X", 1.0, 0, 3)
    with pytest.raises(DomainError):
        LadderOperatorSpec("H", 0.0, 0, 3)
    with pytest.raises(DomainError):
        LadderOperatorSpec("H", 1.0, -1, 3)


# The power-sum algebra as first written: every sum, scaling and action
# builds a fresh PowerSum and merges all of its terms again.  The library
# skips the merges that cannot change anything; the defects must not move.
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


def test_power_sum_operations_equal_the_reference_algebra():
    lams = [complex(p, q) for p, q in ((0.5, 1.0), (0.5 + 1e-13, 1.0), (-2.0, 0.0), (3.0, -1.0))]
    terms = [(lam, complex(k + 1, -k)) for k, lam in enumerate(lams)]
    p, ref = PowerSum(terms), _ReferencePowerSum(terms)
    assert p.terms == ref.terms and len(p.terms) == 3
    q, ref_q = PowerSum(terms[::-1]), _ReferencePowerSum(terms[::-1])
    assert (p + q).terms == (ref + ref_q).terms
    assert (p - q).terms == (ref - ref_q).terms
    assert p.scale(0.25 - 2j).terms == ref.scale(0.25 - 2j).terms
    for spec in (LadderOperatorSpec("H", 0.7, 1, 3), LadderOperatorSpec("E+", 1e-13, 0, 2),
                 LadderOperatorSpec("E-", None, 2, 4)):
        assert act(spec, p).terms == _reference_act(spec, ref).terms
        combo = [(2.0, spec), (-0.5j, spec)]
        assert act_combination(combo, p).terms == _reference_act_combination(combo, ref).terms
