"""run_suites: the suite names and the grid are checked before any suite runs."""

from __future__ import annotations

import pytest

from conformal_heat import verify
from conformal_heat.errors import DomainError
from conformal_heat.verify import SPECTRAL_CASES, checks_after_cut, checks_before_cut, run_suites, suite_spectral


@pytest.fixture
def calls(monkeypatch):
    """The suites run, by name: sl2 and spectral record their calls instead of running."""
    seen = []
    monkeypatch.setitem(verify.SUITES, "sl2", lambda: seen.append("sl2") or [])
    monkeypatch.setitem(verify.SUITES, "spectral", lambda shape: seen.append("spectral") or [])
    return seen


@pytest.mark.parametrize("names, unknown", [(["spectral", "bogus"], "bogus"), (["sl2", "x", "y"], "x"),
                                            (["bogus", "spectral"], "bogus")])
def test_an_unknown_suite_name_is_refused_before_any_suite_runs(calls, names, unknown):
    with pytest.raises(KeyError, match=rf"unknown suite '{unknown}'; choices: \[.*'spectral'"):
        run_suites(names)
    assert calls == []


def test_known_names_run_in_the_order_given(calls):
    assert run_suites(("spectral", "sl2", "spectral")) == []
    assert calls == ["spectral", "sl2", "spectral"]


def test_a_bad_grid_is_refused_before_any_suite_runs(calls):
    with pytest.raises(DomainError, match="power of two"):
        run_suites(["sl2"], (-8.0, 8.0, 3000))
    assert calls == []


def test_the_split_halves_of_the_spectral_cases_are_the_serial_suite():
    shape = (-8.0, 8.0, 256)
    halves = SPECTRAL_CASES[:verify.CUT_CASES], SPECTRAL_CASES[verify.CUT_CASES:]
    assert [dim for dim, _ in halves[0]] == [2, 2, 3]
    assert suite_spectral(shape, halves[0]) + suite_spectral(shape, halves[1]) == suite_spectral(shape)
    assert checks_before_cut(shape) + checks_after_cut(shape) == run_suites(None, shape)
