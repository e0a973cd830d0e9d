"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

import oracles
import run
import workloads
from conftest import ROOT
from tracer import Tracer

SMALL = workloads.Sizes(points_large=40, points_small_z=20, grid_n=256, n_phi=16,
                        grid_modes=5, sectors=6, verify_n=512)


def _run(name, tmp_path, trace=False, seed=3):
    return run.run_workload(name, seed, 0, trace, ROOT, str(tmp_path / name), SMALL)


def _plan(tmp_path, name):
    with open(tmp_path / name / "plan.json") as fp:
        return json.load(fp)


def _scale_largest(path: str, first_col: int, factor: float) -> None:
    """Multiply the real part of the largest-modulus data row by factor."""
    with open(path) as fp:
        lines = fp.readlines()
    data = [i for i, line in enumerate(lines) if line[0].isdigit() or line[0] in "+-."]
    values = [[float(x) for x in lines[i].split(",")] for i in data]
    best = max(range(len(data)), key=lambda k: abs(complex(*values[k][first_col:first_col + 2])))
    row = values[best]
    row[first_col] *= factor
    head = lines[data[best]].split(",")[:first_col]
    lines[data[best]] = ",".join(head + ["{:.17g}".format(x) for x in row[first_col:]]) + "\n"
    with open(path, "w") as fp:
        fp.writelines(lines)


@pytest.mark.parametrize("name, value_col", [("kernel-table", 3), ("apply-field", 2)])
def test_oracle_flags_one_perturbed_value(tmp_path, name, value_col):
    result, _ = _run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    for leg in _plan(tmp_path, name)["legs"]:
        assert oracles.check_leg(leg) == []
        _scale_largest(leg["out"], value_col, 1.0 + 1e-6)
        assert oracles.check_leg(leg), leg["argv"]


def test_verify_oracle_needs_every_check_passing(tmp_path):
    result, _ = _run("verify-full", tmp_path)
    assert result["correct"]
    (leg,) = _plan(tmp_path, "verify-full")["legs"]
    with open(leg["out"]) as fp:
        report = json.load(fp)
    suite = report["suites"]["spectral"]
    suite["checks"][0]["passed"] = False
    with open(leg["out"], "w") as fp:
        json.dump(report, fp)
    assert oracles.check_leg(leg)
    del suite["checks"][0]
    with open(leg["out"], "w") as fp:
        json.dump(report, fp)
    assert any("34 checks" in p for p in oracles.check_leg(leg))


def test_failures_count_repeats_that_differ_and_wrong_outputs(tmp_path):
    _run("kernel-table", tmp_path)
    leg = _plan(tmp_path, "kernel-table")["legs"][1]

    def digest():
        with open(leg["out"], "rb") as fp:
            return hashlib.sha256(fp.read()).hexdigest()

    runs = [[0, "0" * 64, 0.1], [0, digest(), 0.1], [0, digest(), 0.1]]
    attempted, failed, problems = run.failures({"legs": [leg]}, {"legs": [runs]})
    assert (attempted, failed) == (3, 1) and problems
    _scale_largest(leg["out"], 3, 1.0 + 1e-6)
    runs = [[0, digest(), 0.1], [0, digest(), 0.1]]
    attempted, failed, problems = run.failures({"legs": [leg]}, {"legs": [runs]})
    assert (attempted, failed) == (2, 2) and problems


def _package_state():
    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "conformal_heat" or name.startswith("conformal_heat.")}
    return mods, dict(sys.modules["conformal_heat.verify"].SUITES)


def test_tracing_restores_every_patched_name(tmp_path):
    import conformal_heat.cli as cli
    import conformal_heat.kernels as kernels
    import conformal_heat.verify as verify

    before_mods, before_suites = _package_state()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.full_kernel_series is not before_mods["conformal_heat.cli"]["full_kernel_series"]
        assert verify.full_kernel_series is kernels.full_kernel_series
        assert getattr(verify.SUITES["sl2"], "__wrapped__", None) is before_suites["sl2"]
    finally:
        tracer.uninstall()
    after_mods, after_suites = _package_state()
    assert after_mods.keys() == before_mods.keys()
    for name, attrs in before_mods.items():
        changed = [a for a, v in attrs.items() if after_mods[name].get(a) is not v]
        assert changed == [], name
    assert all(after_suites[k] is v for k, v in before_suites.items())


def test_traced_and_plain_cli_output_bytes_match(tmp_path):
    import conformal_heat.cli as cli

    pts = tmp_path / "p.csv"
    workloads.write_points(str(pts), workloads.make_points(np.random.default_rng(0), 30))
    outs = []
    tracer = Tracer()
    for traced in (False, True):
        out = tmp_path / f"k{int(traced)}.csv"
        if traced:
            tracer.install()
        try:
            assert cli.main(["kernel", "--dim", "4", "--z", "0.4,0.2", "--in", str(pts), "--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    summary = tracer.summary()
    assert summary["calls"]["kernels.series"] == 30
    assert summary["calls"]["cli.main"] == 1


EXACT = {
    "kernel-table": ("kernels.truncation_calls", "special_functions.gegenbauer_calls", "kernels.series_calls"),
    "apply-field": ("spherical.sectors", "spectral_calculus.apply_calls", "fields_io.bytes_read"),
    "verify-full": ("kernels.quadrature_builds", "kernels.quadrature_bytes", "ladder.commutator_calls"),
}


@pytest.mark.parametrize("name", list(EXACT))
def test_traced_counts_repeat_exactly(tmp_path, name):
    first, _ = _run(name, tmp_path / "a", trace=True)
    second, _ = _run(name, tmp_path / "b", trace=True)
    assert first["correct"] and second["correct"]  # traced output bytes equal the plain ones
    for key in EXACT[name]:
        assert first["metrics"][key] == second["metrics"][key]
        assert first["metrics"][key]["value"] > 0
    m = first["metrics"]
    if name == "kernel-table":
        assert m["kernels.truncation_calls"]["value"] == SMALL.points_large + SMALL.points_small_z
    elif name == "apply-field":
        assert m["spherical.sectors"]["value"] == 2 * SMALL.grid_modes + 1
    else:
        assert m["kernels.quadrature_builds"]["value"] == 6
        assert m["kernels.quadrature_bytes"]["value"] == 6 * SMALL.verify_n ** 2 * 16
    assert abs(m["trace.accounted_frac"]["value"] - 1.0) < 0.05


def test_refuses_to_run_without_the_package(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verify-full", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
    assert not os.path.exists(tmp_path / ".bench_work")
