"""End-to-end CLI coverage: kernel tables, apply, verify, exit codes."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import conformal_heat
from conformal_heat import cli, fields_io, two_processes, verify
from conformal_heat.cli import main
from conformal_heat.errors import ConformalHeatError, DomainError
from conformal_heat.fields_io import read_field_file
from conformal_heat.kernels import closed_form, closed_form_1d, closed_form_2d, full_kernel_series
from conformal_heat.spectral_calculus import apply_scaling_direct
from conformal_heat.verify import CheckResult
from same_bytes import assert_same_bytes

FIXTURES = Path(__file__).parent / "fixtures"
IN_FIELD = str(FIXTURES / "gauss_n3_m1_in.csv")
GOLDEN = str(FIXTURES / "gauss_n3_m1_z3_half.csv")


def _data_lines(text: str) -> list[str]:
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def _read_csv_rows(path: Path) -> list[list[float]]:
    rows = []
    for line in _data_lines(path.read_text())[1:]:
        rows.append([float(p) for p in line.split(",")])
    return rows


def test_kernel_single_point_matches_closed_form(tmp_path):
    out = tmp_path / "k.csv"
    code = main([
        "kernel", "--dim", "2", "--z", "0.5,0", "--closed-form",
        "--r", "1.0", "--rp", "1.3", "--t", "0.2", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv_rows(out)
    assert len(rows) == 1
    r, rp, t, re_k, im_k = rows[0]
    want = closed_form_2d(1.0, 1.3, 0.2, 0.5 + 0j, tol=1e-10)
    assert re_k + 1j * im_k == pytest.approx(want, rel=1e-12)


def test_kernel_series_route_agrees(tmp_path):
    out = tmp_path / "k.csv"
    assert main([
        "kernel", "--dim", "4", "--z", "0.4,0.2",
        "--r", "0.8", "--rp", "1.1", "--t", "0.3", "--out", str(out),
    ]) == 0
    (row,) = _read_csv_rows(out)
    want = full_kernel_series(4, 0.8, 1.1, 0.3, 0.4 + 0.2j, 1e-10)
    assert row[3] + 1j * row[4] == pytest.approx(want, rel=1e-12)


def test_kernel_opposite_rays_vanish_in_1d(tmp_path):
    out = tmp_path / "k.csv"
    assert main([
        "kernel", "--dim", "1", "--z", "0.3,0", "--closed-form",
        "--r", "1.0", "--rp", "1.2", "--t", "-1", "--out", str(out),
    ]) == 0
    (row,) = _read_csv_rows(out)
    assert row[3] == 0.0 and row[4] == 0.0


def test_kernel_points_file_and_product_grid(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("r,rp,t\n1.0,1.5,0.3\n0.7,0.7,-0.2\n")
    out = tmp_path / "k.csv"
    assert main(["kernel", "--dim", "3", "--z", "0.6,0", "--in", str(pts), "--out", str(out)]) == 0
    assert len(_read_csv_rows(out)) == 2
    out2 = tmp_path / "k2.csv"
    assert main([
        "kernel", "--dim", "3", "--z", "0.6,0",
        "--r", "1.0,0.7", "--rp", "1.5", "--t", "0.3,-0.2", "--out", str(out2),
    ]) == 0
    assert len(_read_csv_rows(out2)) == 4


def test_kernel_empty_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("r,rp,t\n")
    out = tmp_path / "k.csv"
    assert main(["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(pts), "--out", str(out)]) == 0
    assert out.read_text() == "r,r_prime,t,re_k,im_k\n"


def test_kernel_json_format(tmp_path):
    out = tmp_path / "k.json"
    assert main([
        "kernel", "--dim", "2", "--z", "0.5,0", "--format", "json",
        "--r", "1.0", "--rp", "1.0", "--t", "0.5", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["dim"] == 2 and payload["z"] == [0.5, 0.0]
    assert len(payload["rows"]) == 1
    want = full_kernel_series(2, 1.0, 1.0, 0.5, 0.5 + 0j, 1e-10)
    assert payload["rows"][0]["re_k"] == pytest.approx(want.real, rel=1e-12)


# The kernel_*.csv / kernel_*.json fixtures were written by the CLI before
# the series and theta loops were rewritten, from kernel_points.csv: 35
# seeded points plus the poles, the equator, a diagonal point and two
# points inside the N = 4 near-pole series fallback.
KERNEL_GOLDEN = {
    "kernel_n3_z0.5": ["--dim", "3", "--z", "0.5,0"],
    "kernel_n3_small_z": ["--dim", "3", "--z", "0.05,0.1"],
    "kernel_n2_closed": ["--dim", "2", "--z", "0.5,0.2", "--closed-form"],
    "kernel_n4_closed": ["--dim", "4", "--z", "0.4,0.2", "--closed-form"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(KERNEL_GOLDEN))
def test_kernel_matches_golden_bytes(tmp_path, name, fmt):
    out = tmp_path / f"k.{fmt}"
    argv = ["kernel", *KERNEL_GOLDEN[name], "--tol", "1e-10", "--format", fmt,
            "--in", str(FIXTURES / "kernel_points.csv"), "--out", str(out)]
    assert main(argv) == 0
    assert_same_bytes(out.read_bytes(), (FIXTURES / f"{name}.{fmt}").read_bytes())


# The kernel_*_product*.csv / .json fixtures hold the product of the --r,
# --rp and --t lists at the default tolerance, on both routes.  The N = 2
# files were written by the CLI before the kernel verb read its options
# straight from argparse, the N = 1 files before N = 1 points took
# (r, r', t) in the library.
_N2_LISTS = ["--dim", "2", "--z", "0.5,0", "--r", "0.8,1.0", "--rp", "1.1,1.3", "--t", "-0.5,0.2"]
_N1_LISTS = ["--dim", "1", "--z", "0.5,0.2", "--r", "0.8,1.0", "--rp", "1.1,1.3", "--t", "-1,1"]
PRODUCT_GOLDEN = {
    "kernel_n2_product": _N2_LISTS,
    "kernel_n2_product_closed": [*_N2_LISTS, "--closed-form"],
    "kernel_n1_product": _N1_LISTS,
    "kernel_n1_product_closed": [*_N1_LISTS, "--closed-form"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(PRODUCT_GOLDEN))
def test_kernel_product_lists_match_golden_bytes(tmp_path, monkeypatch, name, fmt):
    monkeypatch.delenv("CONFORMAL_HEAT_TOL", raising=False)
    out = tmp_path / f"k.{fmt}"
    argv = ["kernel", *PRODUCT_GOLDEN[name], "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert_same_bytes(out.read_bytes(), (FIXTURES / f"{name}.{fmt}").read_bytes())


# The apply_*.csv fixtures: four seeded inputs on n = 128 samples over
# s in [-12, 12] (N = 3 factored with degrees 0, 1, 2, 5; N = 2 factored with
# modes -3, -1, 0, 2; an N = 2 grid with 16 angles and modes |k| <= 4; an
# N = 1 grid), and their outputs under one complex exponent (*_exp.csv) and
# one grid-aligned dilation (*_t.csv), written by the CLI before factored
# fields became one array.  Never regenerate them to absorb a change.
APPLY_GOLDEN = {
    "exp": ["--exponent", "0,0.3,0,0.1,0.5,0.2"],
    "t": ["--t", "0.375"],
}


@pytest.mark.parametrize("leg", list(APPLY_GOLDEN))
@pytest.mark.parametrize("name", ["apply_n3_factored", "apply_n2_factored", "apply_n2_grid", "apply_n1_grid"])
def test_apply_matches_golden_bytes(tmp_path, name, leg):
    out = tmp_path / "out.csv"
    argv = ["apply", *APPLY_GOLDEN[leg], "--in", str(FIXTURES / f"{name}.csv"), "--out", str(out)]
    assert main(argv) == 0
    assert_same_bytes(out.read_bytes(), (FIXTURES / f"{name}_{leg}.csv").read_bytes())


# verify_sl2.json and verify_degeneration.json: `verify --suite <s> --format
# json` as the CLI wrote it before the ladder generators became monomial
# maps.  Both suites are pure complex arithmetic, so the bytes do not
# depend on the numpy version.  Never regenerate them to absorb a change.
@pytest.mark.parametrize("suite", ["sl2", "degeneration"])
def test_verify_matches_golden_bytes(tmp_path, suite):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", suite, "--format", "json", "--out", str(out)]) == 0
    assert_same_bytes(out.read_bytes(), (FIXTURES / f"verify_{suite}.json").read_bytes())


# verify_theta.json: `verify --suite theta --format json` as the CLI wrote
# it before the closed forms were reached through kernels.closed_form.  Its
# defects come from the same closed-form and series arithmetic as the
# kernel_*_closed fixtures.  Never regenerate it to absorb a change.
def test_verify_theta_matches_golden_bytes(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "theta", "--format", "json", "--out", str(out)]) == 0
    assert_same_bytes(out.read_bytes(), (FIXTURES / "verify_theta.json").read_bytes())


def test_apply_echoes_the_dimension_of_the_field(tmp_path):
    out = tmp_path / "same.csv"
    assert main(["apply", "--t", "0", "--in", IN_FIELD, "--out", str(out)]) == 0  # no --dim: nothing checked
    (config,) = [l for l in out.read_text().splitlines() if l.startswith("# config: ")]
    assert json.loads(config[len("# config: "):])["dim"] == 3


def test_apply_dim_must_match_the_field(tmp_path, capsys):
    out = tmp_path / "same.csv"
    assert main(["apply", "--dim", "3", "--t", "0", "--in", IN_FIELD, "--out", str(out)]) == 0
    assert main(["apply", "--dim", "2", "--t", "0", "--in", IN_FIELD]) == 3
    err = capsys.readouterr().err
    assert "--dim 2" in err and "dim 3" in err


@pytest.mark.parametrize("lists", [["--r", "5", "--rp", "5", "--t", "0"], ["--r", "5"], ["--rp", "5"], ["--t", "0"]])
def test_kernel_points_come_from_in_or_from_lists_not_both(capsys, lists):
    argv = ["kernel", "--dim", "3", "--z", "0.5,0", "--in", str(FIXTURES / "kernel_points.csv")]
    assert main(argv + lists) == 3
    assert "not both" in capsys.readouterr().err


# each verb refuses the options that only another verb reads
@pytest.mark.parametrize("argv", [
    ["kernel", "--dim", "3", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0", "--grid=-12,12,256"],
    ["apply", "--t", "0", "--in", IN_FIELD, "--grid=-12,12,256"],
    ["apply", "--t", "0", "--in", IN_FIELD, "--format", "json"],
    ["verify", "--suite", "sl2", "--dim", "7"],
    ["verify", "--suite", "sl2", "--tol", "3"],
    ["verify", "--suite", "sl2", "--in", "/nonexistent"],
], ids=["kernel-grid", "apply-grid", "apply-format", "verify-dim", "verify-tol", "verify-in"])
def test_options_of_other_verbs_are_usage_errors(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments" in err


def test_verify_does_not_read_the_tolerance_variable(monkeypatch, tmp_path):
    monkeypatch.setenv("CONFORMAL_HEAT_TOL", "not-a-number")
    assert main(["verify", "--suite", "sl2", "--out", str(tmp_path / "v.json")]) == 0


def test_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # more output than a pipe buffers, on buffered stdout (test_unbuffered_stdout_*
    # cover PYTHONUNBUFFERED=1), written in two processes and serially
    for split in (False, True):
        proc = _cli_process(_large_output_argv(tmp_path, "kernel"), unbuffered=False, split=split)
        try:
            assert proc.stdout.readline() == b"r,r_prime,t,re_k,im_k\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


_PIPE_R = ",".join(str(0.5 + 0.05 * k) for k in range(20))


def _large_output_argv(tmp_path: Path, verb: str) -> list[str]:
    """A command that writes about 0.3 MB (kernel), 0.5 MB (kernel-json) or 0.7 MB (apply)
    to stdout, or a short report (verify-csv)."""
    if verb.startswith("kernel"):
        return ["kernel", "--dim", "2", "--closed-form", "--z", "0.5,0", "--r", _PIPE_R,
                "--rp", _PIPE_R, "--t", "-0.5,0,0.5,0.1,0.2,0.3,0.4,0.6,0.7,0.8",
                *(["--format", "json"] if verb == "kernel-json" else [])]
    if verb == "verify-csv":
        return ["verify", "--suite", "theta", "--format", "csv"]
    # one sector, so its samples leave in a single write
    src = tmp_path / "big.csv"
    if not src.exists():
        rng = np.random.default_rng(5)
        n = 16384
        rows = [f"1,{j},%.17g,%.17g" % tuple(rng.standard_normal(2)) for j in range(n)]
        geo = {"kind": "factored", "dim": 3, "s_min": -8, "s_max": 8, "n": n}
        src.write_text("\n".join(["# geometry: " + json.dumps(geo), "m,s_index,re,im"] + rows) + "\n")
    return ["apply", "--t", "0", "--in", str(src)]


# the command line with field I/O and kernel tables split between two processes for any size and CPU count
_SPLIT_CLI = ("import os, sys; from conformal_heat import cli, two_processes; "
              "two_processes._SPLIT_BYTES = two_processes._SPLIT_TABLE = 0; os.sched_getaffinity = lambda pid: {0, 1}; "
              "sys.exit(cli.main())")


def _cli_process(argv: list[str], unbuffered: bool = True, split: bool = False) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(conformal_heat.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    if not unbuffered:
        env.pop("PYTHONUNBUFFERED")
    launch = ["-c", _SPLIT_CLI] if split else ["-m", "conformal_heat.cli"]
    return subprocess.Popen([sys.executable, *launch, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("verb", ["kernel", "apply"])
def test_unbuffered_stdout_closed_pipe_exits_141(tmp_path, verb):
    # The raw stdout of an unbuffered run takes part of a large write when
    # the reader goes away; the rest must not vanish with exit status 0,
    # nor wait on a child that formats the second half of the output.
    for split in (False, True):
        proc = _cli_process(_large_output_argv(tmp_path, verb), split=split)
        try:
            proc.stdout.read(1000)  # past the header lines, into the large write
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


@pytest.mark.parametrize("verb", ["kernel", "apply", "kernel-json", "verify-csv"])
def test_unbuffered_stdout_delivers_every_byte(tmp_path, verb):
    argv = _large_output_argv(tmp_path, verb)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    for split in (False, True):
        proc = _cli_process(argv, split=split)
        piped, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b""
        assert_same_bytes(piped, out.read_bytes())


def _grid_text(dim: int, n_phi: int, n: int) -> str:
    """A grid2d field with signed zeros, integers and 17-digit values."""
    rng = np.random.default_rng(dim)
    values = rng.standard_normal((n_phi, n, 2))
    values[0, :4] = [[-0.0, 1.5], [0.0, -0.0], [-0.0, -0.0], [2.0, 0.0]]
    geo = {"kind": "grid2d", "dim": dim, "n": n, "n_phi": n_phi, "s_max": 1, "s_min": -1}
    rows = [f"{a},{j},%.17g,%.17g" % tuple(values[a, j]) for a in range(n_phi) for j in range(n)]
    return "\n".join(["# geometry: " + json.dumps(geo), "angle_index,s_index,re,im"] + rows) + "\n"


@pytest.mark.parametrize("dim, n_phi", [(1, 2), (2, 8)])
def test_apply_zero_exponent_is_the_identity_on_grid_fields(tmp_path, dim, n_phi):
    text = _grid_text(dim, n_phi, 16)
    assert "\n0,0,-0,1.5\n" in text and "\n0,2,-0,-0\n" in text
    src = tmp_path / "grid.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["apply", "--exponent", "0,0,0,0,0,0", "--in", str(src), "--out", str(out)]) == 0
    assert _data_lines(out.read_text()) == _data_lines(text)


@pytest.mark.parametrize("dim", ["2", "4"])
@pytest.mark.parametrize("r, rp", [("0", "1"), ("-2", "1"), ("1", "0")])
def test_exit_code_2_closed_form_non_positive_radius(tmp_path, capsys, dim, r, rp):
    argv = ["kernel", "--dim", dim, "--z", "0.5,0", "--closed-form"]
    assert main(argv + ["--r", r, "--rp", rp, "--t", "0.5"]) == 2
    assert "radii must be positive" in capsys.readouterr().err
    pts = tmp_path / "pts.csv"
    pts.write_text(f"r,rp,t\n1.0,1.2,0.3\n{r},{rp},0.5\n")
    assert main(argv + ["--in", str(pts), "--out", str(tmp_path / "k.csv")]) == 2
    assert "radii must be positive" in capsys.readouterr().err


_GOOD_ROWS = ["1.0,1.2,1", "0.7,1.1,-1", "1.3,0.9,1", "2.0,0.6,-1"]


@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("dim, bad, message", [
    ("2", "0,1.2,0.5", "radii must be positive"),
    ("4", "1.1,-0.3,0.5", "radii must be positive"),
    ("4", "0,1.2,1", "radii must be positive"),  # a near-pole row
    ("1", "1.1,0.9,0.5", "N = 1 admits only t = +1 or t = -1"),
    ("1", "0,0.9,1", "radii must be positive"),
])
def test_closed_form_table_bad_row_anywhere_exits_2(tmp_path, capsys, dim, bad, message, where):
    rows = _GOOD_ROWS[:where] + [bad] + _GOOD_ROWS[where:]
    pts = tmp_path / "pts.csv"
    pts.write_text("r,rp,t\n" + "\n".join(rows) + "\n")
    argv = ["kernel", "--dim", dim, "--z", "0.5,0", "--closed-form", "--in", str(pts)]
    assert main(argv + ["--out", str(tmp_path / "k.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("first, message", [
    ("0,0.9,1", "radii must be positive"), ("1.1,0.9,0.5", "N = 1 admits only")])
def test_closed_form_table_reports_the_first_bad_row(tmp_path, capsys, first, message):
    # two bad rows of different kinds: the earlier one decides the message
    later = "1.1,0.9,0.5" if first.startswith("0") else "0,0.9,1"
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(["r,rp,t", _GOOD_ROWS[0], first, _GOOD_ROWS[1], later]) + "\n")
    assert main(["kernel", "--dim", "1", "--z", "0.5,0", "--closed-form", "--in", str(pts)]) == 2
    assert message in capsys.readouterr().err


# (r, r', t, z) rows with one fault each, which N = 1 refuses on both routes
_N1_BAD_ROWS = {
    "zero-r": (0.0, 1.2, 1.0, 0.5),
    "zero-rp": (0.8, 0.0, -1.0, 0.5),
    "negative-r": (-0.8, 1.2, 1.0, 0.5),
    "negative-rp": (0.8, -1.2, -1.0, 0.5 + 0.2j),
    "nan-r": (math.nan, 1.2, 1.0, 0.5),
    "nan-rp": (0.8, math.nan, -1.0, 0.5),
    "t-inside": (0.8, 1.2, 0.3, 0.5),
    "t-past-slack": (0.8, 1.2, 1.0 + 1e-13, 0.5),
    "re-z-zero": (0.8, 1.2, 1.0, 1j),
    "re-z-negative": (0.8, 1.2, -1.0, -0.5 + 0.1j),
}


@pytest.mark.parametrize("row", list(_N1_BAD_ROWS.values()), ids=list(_N1_BAD_ROWS))
def test_both_n1_routes_refuse_the_same_rows(capsys, row):
    r, rp, t, z = row
    raised = []
    for route in (lambda: full_kernel_series(1, r, rp, t, z), lambda: closed_form_1d(r, rp, t, z)):
        with pytest.raises(ConformalHeatError) as info:
            route()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    argv = ["kernel", "--dim", "1", "--z", f"{z.real!r},{z.imag!r}",
            "--r", repr(r), "--rp", repr(rp), "--t", repr(t)]
    outcomes = []
    for route in ([], ["--closed-form"]):
        outcomes.append((main(argv + route), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, (out, err) = outcomes[0]
    assert out == ""
    if math.isnan(r) or math.isnan(rp):  # the option parser refuses NaN first
        assert code == 3 and "values must be finite" in err
    else:
        assert (code, err) == (2, f"error: {raised[0][1]}\n")


# (dim, r, r', t, z, tol or None for the default) points with two faults
# each.  Both routes check a point in one order (dim, radii, t, tol, then
# the regime), so the first fault in that order decides the error on both.
# n1-t-regime is `kernel --dim 1 --z 0,1 --r 1 --rp 1 --t 0.5`.
_TWO_FAULT_POINTS = {
    f"n{dim}-{name}": (dim, *point)
    for dim, bad_t in ((1, 0.5), (2, 1.5), (4, -1.5))
    for name, point in (
        ("t-regime", (1.0, 1.0, bad_t, 1j, None)),
        ("radius-t", (0.0, 1.2, bad_t, 0.5, None)),
        ("t-tol", (0.8, 1.0, bad_t, 0.5, 0.0)),
    )
}


@pytest.mark.parametrize("point", list(_TWO_FAULT_POINTS.values()), ids=list(_TWO_FAULT_POINTS))
def test_both_routes_refuse_a_two_fault_point_alike(capsys, point):
    dim, r, rp, t, z, tol = point
    tols = () if tol is None else (tol,)
    raised = []
    for route in (lambda: full_kernel_series(dim, r, rp, t, z, *tols), lambda: closed_form(dim, r, rp, t, z, *tols)):
        with pytest.raises(DomainError) as info:
            route()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    message = raised[0][1]
    if r <= 0:
        assert message == "radii must be positive"
    else:
        assert message == ("N = 1 admits only t = +1 or t = -1" if dim == 1 else f"t={t} outside [-1, 1]")
    argv = ["kernel", "--dim", str(dim), "--z", f"{z.real:g},{z.imag:g}", "--r", f"{r:g}", "--rp", f"{rp:g}",
            "--t", f"{t:g}", *(["--tol", f"{tol:g}"] if tols else [])]
    outcomes = []
    for route in ([], ["--closed-form"]):
        outcomes.append((main(argv + route), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, (out, err) = outcomes[0]
    # the CLI reads --tol before any point
    assert (code, out, err) == (2, "", "error: tolerance must be positive\n" if tols else f"error: {message}\n")


def test_closed_form_empty_table_exits_0(tmp_path, capsys):
    pts = tmp_path / "empty.csv"
    pts.write_text("r,r_prime,t\n")
    out = tmp_path / "k.csv"
    for dim in ("1", "2", "4"):
        assert main(["kernel", "--dim", dim, "--z", "0.5,0", "--closed-form", "--in", str(pts), "--out", str(out)]) == 0
        assert out.read_text() == "r,r_prime,t,re_k,im_k\n"
    # N = 3 has no closed form, with rows or without
    out.unlink()
    one_row = tmp_path / "one.csv"
    one_row.write_text("r,r_prime,t\n1.0,1.2,0.3\n")
    for path in (pts, one_row):
        assert main(["kernel", "--dim", "3", "--z", "0.5,0", "--closed-form", "--in", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: closed forms exist for N in {1, 2, 4}, not N = 3\n"
    assert not out.exists()


def test_series_empty_table_writes_the_header_only(tmp_path, capsys):
    pts = tmp_path / "empty.csv"
    pts.write_text("r,r_prime,t\n")
    assert main(["kernel", "--dim", "3", "--z", "0.5,0", "--in", str(pts)]) == 0
    assert capsys.readouterr().out == "r,r_prime,t,re_k,im_k\n"


def test_kernel_csv_rows_across_chunks_match_the_json_values(tmp_path):
    # 13^3 = 2197 rows: one full chunk of lines and a part
    grid = ["--r", "0.5,0.6,0.7,0.8,0.9,1,1.1,1.2,1.3,1.4,1.5,1.6,1.7", "--rp", "0.4,0.7,1,1.3,1.6,1.9,2.2,2.5,2.8,3.1,3.4,3.7,4",
            "--t", "-0.9,-0.75,-0.6,-0.45,-0.3,-0.15,0,0.15,0.3,0.45,0.6,0.75,0.9"]
    argv = ["kernel", "--dim", "2", "--z", "0.5,0.2", "--closed-form"] + grid
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "k.json")]) == 0
    assert main(argv + ["--out", str(tmp_path / "k.csv")]) == 0
    rows = json.loads((tmp_path / "k.json").read_text())["rows"]
    want = "".join("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (r["r"], r["r_prime"], r["t"], r["re_k"], r["im_k"])
                   for r in rows)
    assert len(rows) == 13**3
    assert (tmp_path / "k.csv").read_text() == "r,r_prime,t,re_k,im_k\n" + want


def test_apply_zero_exponent_preserves_data_bytes(tmp_path):
    out = tmp_path / "same.csv"
    assert main(["apply", "--exponent", "0,0,0,0,0,0", "--in", IN_FIELD, "--out", str(out)]) == 0
    assert _data_lines(out.read_text()) == _data_lines(Path(IN_FIELD).read_text())


@pytest.mark.parametrize("kind", ["factored", "grid2d"])
def test_apply_identity_keeps_signed_zeros(tmp_path, kind):
    src = tmp_path / "zeros.csv"
    text = _field_text(kind)
    for j, (re_part, im_part) in enumerate([("-0", "1.5"), ("-0", "-0"), ("2", "-0"), ("0", "0")]):
        text = text.replace(f"\n1,{j},1,0\n", f"\n1,{j},{re_part},{im_part}\n")
    assert text.count("-0") == 4
    src.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["apply", "--t", "0", "--dim", "1", "--in", str(src), "--out", str(out)]) == 0
    assert _data_lines(out.read_text()) == _data_lines(text)


def test_apply_matches_golden_output(tmp_path):
    out = tmp_path / "half.csv"
    assert main(["apply", "--exponent", "0,0,0,0,0.5,0", "--in", IN_FIELD, "--out", str(out)]) == 0
    got = read_field_file(str(out))
    want = read_field_file(GOLDEN)
    assert np.max(np.abs(got.radial.values - want.radial.values)) < 1e-9


def test_apply_aligned_dilation(tmp_path):
    field = read_field_file(IN_FIELD)
    ds = field.radial.grid.ds
    t = 0.5 * 10 * ds
    out = tmp_path / "scaled.csv"
    assert main(["apply", "--t", repr(t), "--in", IN_FIELD, "--out", str(out)]) == 0
    got = read_field_file(str(out))
    want = apply_scaling_direct(t, field)
    assert np.max(np.abs(got.radial.values - want.radial.values)) < 1e-15


def test_apply_roundtrip_inverse_exponent(tmp_path):
    mid = tmp_path / "mid.csv"
    back = tmp_path / "back.csv"
    assert main(["apply", "--exponent", "0,0.2,0,0,0,1.3", "--in", IN_FIELD, "--out", str(mid)]) == 0
    assert main(["apply", "--exponent", "0,-0.2,0,0,0,-1.3", "--in", str(mid), "--out", str(back)]) == 0
    got = read_field_file(str(back))
    orig = read_field_file(IN_FIELD)
    assert np.max(np.abs(got.radial.values - orig.radial.values)) < 1e-10


def test_cli_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["kernel", "--dim", "2", "--z", "0.7,0.1", "--r", "0.5,1.5", "--rp", "1.0", "--t", "0.4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert_same_bytes(a.read_bytes(), b.read_bytes())


def test_verify_suite_json(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "sl2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["suites"]["sl2"]["checks"]) == 9
    assert all(c["passed"] for c in payload["suites"]["sl2"]["checks"])


def test_verify_default_runs_everything(tmp_path):
    out = tmp_path / "all.json"
    assert main(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["suites"]) == 9


def test_verify_suite_csv(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "--suite", "special", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,check,defect,tol,passed"
    assert len(lines) > 1
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_csv_rows_parse_into_five_fields(tmp_path):
    out_csv, out_json = tmp_path / "v.csv", tmp_path / "v.json"
    assert main(["verify", "--format", "csv", "--out", str(out_csv)]) == 0
    assert main(["verify", "--format", "json", "--out", str(out_json)]) == 0
    with open(out_csv, newline="") as fp:
        header, *rows = list(csv.reader(fp))
    assert header == ["suite", "check", "defect", "tol", "passed"]
    assert all(len(row) == 5 for row in rows)
    suites = json.loads(out_json.read_text())["suites"]
    assert [(row[0], row[1]) for row in rows] == [
        (name, check["name"]) for name, suite in suites.items() for check in suite["checks"]]
    assert any("," in row[1] for row in rows)
    assert out_csv.read_bytes().count(b"\r") == 0


@pytest.mark.parametrize("grid", ["-8,8,256", "-8,8,1024", "-9,8,256"])
def test_verify_passes_on_narrow_grids(grid, capsys):
    assert main(["verify", f"--grid={grid}", "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("grid", ["-16,16,512.5", "-16,16,512,8", "-16,16", "-16,16,", "-16,16,5e2", "-16,nan,512"])
def test_verify_grid_takes_exactly_three_values_with_an_integer_n(grid, capsys):
    assert main(["verify", "--suite", "special", f"--grid={grid}"]) == 3
    assert "--grid" in capsys.readouterr().err


def test_verify_grid_sets_the_grid(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "semigroup", "--grid= -12, 12 , 256 ", "--out", str(out)]) == 0
    assert main(["verify", "--suite", "semigroup", "--grid=-12,12,255"]) == 2  # n must be a power of two


@pytest.mark.parametrize("suite, grid", [("special", "-1,1,255"), ("projection", "5,1,256"), ("sl2", "-16,16,4")])
def test_verify_grid_is_checked_whichever_suite_runs(capsys, suite, grid):
    # these suites build no log-radial grid of their own
    assert main(["verify", "--suite", suite, f"--grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_exit_code_2_unbounded_exponent(capsys):
    assert main(["apply", "--exponent", "1,0,0,0,0,0", "--in", IN_FIELD]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_2_kernel_regime(capsys):
    assert main(["kernel", "--dim", "2", "--z", "0,1", "--r", "1", "--rp", "1", "--t", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("z", ["0,0", "0,-0", "-0,0"])
@pytest.mark.parametrize("dim, route", [("1", ["--closed-form"]), ("2", []), ("2", ["--closed-form"]), ("3", [])])
def test_exit_code_2_zero_time(capsys, z, dim, route):
    # z = 0 has no square root to divide by; it is refused as Re z = 0, not by a ZeroDivisionError
    t = "1" if dim == "1" else "0.5"
    assert main(["kernel", "--dim", dim, "--z", z, "--r", "1", "--rp", "1", "--t", t, *route]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: integral kernels need Re z > 0, got z = ") and err.count("\n") == 1


def test_zero_time_on_a_table_without_rows_exits_0(tmp_path, capsys):
    pts = tmp_path / "empty.csv"
    pts.write_text("r,r_prime,t\n")
    for dim, route in (("1", ["--closed-form"]), ("2", ["--closed-form"]), ("4", ["--closed-form"]), ("3", [])):
        assert main(["kernel", "--dim", dim, "--z", "0,0", "--in", str(pts), *route]) == 0
        assert capsys.readouterr() == ("r,r_prime,t,re_k,im_k\n", "")


def test_a_large_re_z_past_the_float_range_is_answered(capsys):
    # every term bound underflows from m = 0 on: cut 0 is certified, and the kernel underflows to 0
    assert main(["kernel", "--dim", "5", "--z", "335,0", "--r", "1", "--rp", "1", "--t", "0.5"]) == 0
    assert capsys.readouterr() == ("r,r_prime,t,re_k,im_k\n1,1,0.5,0,0\n", "")


def test_a_sup_bound_past_the_float_range_is_refused_without_a_traceback(capsys):
    assert main(["kernel", "--dim", "1000", "--z", "1e-320,1e300", "--r", "1", "--rp", "0.999999999999",
                 "--t", "1"]) == 2
    assert capsys.readouterr() == ("", "error: no certified truncation for Re z = 1e-320, tol = 1e-10\n")


def test_exit_code_2_closed_form_bad_dim(capsys):
    assert main([
        "kernel", "--dim", "3", "--z", "0.5,0", "--closed-form",
        "--r", "1", "--rp", "1", "--t", "0",
    ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dim, r", [("1", "1e-200"), ("3", "1e-200"), ("4", "1e-200"), ("10", "1e-100")])
def test_exit_code_2_kernel_point_out_of_the_float_range(capsys, dim, r):
    argv = ["kernel", "--dim", dim, "--z", "0.5,0", "--r", r, "--rp", r, "--t", "1" if dim == "1" else "0.5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: radii out of the float range for N = {dim}: (r r')^(-(N-2)/2) is 0 or not finite "
                   f"at r = {r}, r' = {r}\n")
    if dim in ("1", "4"):  # the closed-form route gives the same refusal
        assert main(argv + ["--closed-form"]) == 2
        assert capsys.readouterr() == (out, err)


def test_a_point_whose_product_alone_passes_the_float_range_is_answered(capsys):
    # r r' = 1e400 is past the largest float, (r r')^(-1/2) = 1e-200 is not
    values = []
    for r in ("1", "1e200"):
        assert main(["kernel", "--dim", "3", "--z", "0.5,0", "--r", r, "--rp", r, "--t", "0.5"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        values.append(float(out.splitlines()[1].split(",")[3]))
    assert math.isclose(values[1], 1e-200 * values[0], rel_tol=1e-15)


def _overflowing_field(tmp_path: Path) -> Path:
    """A factored N = 3 field on -4,4,8 with one sample 1e308."""
    path = tmp_path / "huge.csv"
    rows = [f"0,{j},{1e308 if j == 3 else 1.0},0" for j in range(8)]
    geo = {"kind": "factored", "dim": 3, "s_min": -4, "s_max": 4, "n": 8}
    path.write_text("\n".join(["# geometry: " + json.dumps(geo), "m,s_index,re,im"] + rows) + "\n")
    return path


@pytest.mark.parametrize("action", [["--exponent", "0,0,1,0,0,0"], ["--t", "1"]], ids=["exponent", "t"])
def test_exit_code_2_apply_result_out_of_the_float_range(tmp_path, capsys, action):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings on the way
        assert main(["apply", *action, "--in", str(_overflowing_field(tmp_path)), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: the result has non-finite samples: it leaves the float range\n")
    assert not out.exists()


def test_out_replaces_a_longer_file_exactly(tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes(b"an older and longer output\n" * 10_000)
    assert main(["apply", "--t", "0", "--in", IN_FIELD, "--out", str(out)]) == 0
    assert main(["apply", "--t", "0", "--in", IN_FIELD, "--out", str(tmp_path / "fresh.csv")]) == 0
    assert_same_bytes(out.read_bytes(), (tmp_path / "fresh.csv").read_bytes())


def test_out_keeps_only_what_was_written_when_writing_fails(tmp_path, monkeypatch, capsys):
    def fail_midway(table):
        yield b"1,2,3,4,5\n"
        raise OSError("the disk is full")

    monkeypatch.setattr(cli, "float_row_lines", fail_midway)
    out = tmp_path / "out.csv"
    out.write_bytes(b"an older and longer output\n" * 100)
    assert main(["kernel", "--dim", "3", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0.5",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: the disk is full\n"
    assert out.read_bytes() == b"r,r_prime,t,re_k,im_k\n1,2,3,4,5\n"


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.devnull != "/dev/null", reason="no /dev/null here")
def test_out_to_dev_null(capsys):
    assert main(["apply", "--t", "0", "--in", IN_FIELD, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_exit_code_2_misaligned_dilation(capsys):
    assert main(["apply", "--t", "0.001", "--in", IN_FIELD]) == 2
    capsys.readouterr()


def test_exit_code_3_missing_file(capsys):
    assert main(["apply", "--exponent", "0,0,0,0,0.5,0", "--in", "/nonexistent/f.csv"]) == 3
    capsys.readouterr()


def test_exit_code_3_malformed_field(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text('# geometry: {"kind": "factored", "dim": 3, "s_min": -1, "s_max": 1, "n": 8}\n'
                   "m,s_index,re,im\n0,0,1,0\nnot,a,number,row\n")
    assert main(["apply", "--exponent", "0,0,0,0,0,0", "--in", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [("s_max", float("inf")), ("s_min", float("-inf")), ("s_min", float("nan"))])
def test_exit_code_3_non_finite_geometry(tmp_path, capsys, key, value):
    # json writes these as Infinity, -Infinity and NaN, which its reader takes
    geo = {"kind": "factored", "dim": 3, "s_min": -1, "s_max": 1, "n": 8, key: value}
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["# geometry: " + json.dumps(geo), "m,s_index,re,im"]
                             + [f"0,{j},1,0" for j in range(8)]) + "\n")
    assert main(["apply", "--exponent", "0,0,0,0,0.5,0", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
    assert "bad geometry value" in capsys.readouterr().err


@pytest.mark.parametrize("geometry", [{"s_min": -1000, "s_max": 1000}, {"s_min": 0, "s_max": 1e-300},
                                      {"dim": 10**400}], ids=["radii", "step", "dim"])
def test_exit_code_3_geometry_past_the_float_range(tmp_path, capsys, geometry):
    # refused as the file is read, before apply makes non-finite samples from it
    geo = {"kind": "factored", "dim": 3, "s_min": -1, "s_max": 1, "n": 8, **geometry}
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["# geometry: " + json.dumps(geo), "m,s_index,re,im"]
                             + [f"0,{j},1,0" for j in range(8)]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["apply", "--exponent", "0,0,0,0,0.5,0", "--in", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad geometry value: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value, kind", [
    ("dim", 3.9, "an integer"), ("dim", 2.0, "an integer"), ("dim", True, "an integer"), ("dim", "2", "an integer"),
    ("n", 8.7, "an integer"), ("n", 8.0, "an integer"), ("n", None, "an integer"),
    ("n_phi", 8.9, "an integer"), ("n_phi", False, "an integer"), ("n_phi", [8], "an integer"),
    ("s_min", "-1", "a finite number"), ("s_max", True, "a finite number"), ("s_max", None, "a finite number"),
    ("s_min", -10**400, "a finite number"),
], ids=["dim-fraction", "dim-float", "dim-bool", "dim-string", "n-fraction", "n-float", "n-null", "n_phi-fraction",
        "n_phi-bool", "n_phi-list", "s_min-string", "s_max-bool", "s_max-null", "s_min-past-the-float-range"])
def test_exit_code_3_geometry_value_of_the_wrong_type(tmp_path, capsys, key, value, kind):
    # JSON integers for dim, n and n_phi, and numbers for s_min and s_max;
    # nothing is rounded or converted into one
    geo = {"kind": "grid2d", "dim": 2, "s_min": -1, "s_max": 1, "n": 8, "n_phi": 8, key: value}
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["# geometry: " + json.dumps(geo), "angle_index,s_index,re,im"]
                             + [f"{a},{j},1,0" for a in range(8) for j in range(8)]) + "\n")
    assert main(["apply", "--t", "0", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == f"error: bad geometry value: {key} must be {kind}, not {json.dumps(value)}\n"


_FAR = 2**70  # a power of two, as the grid asks of n


@pytest.mark.parametrize("kind, key, value, repeat, message", [
    ("grid2d", "n", 16, False, "64 missing rows, first at angle_index=0, s_index=8"),
    ("grid2d", "n_phi", 16, False, "64 missing rows, first at angle_index=8, s_index=0"),
    ("factored", "n", 16, False, "64 missing rows, first at m=0, s_index=8"),
    ("grid2d", "n_phi", 16, True, "1 duplicate rows, first at angle_index=3, s_index=5"),
    ("grid2d", "n", _FAR, False, f"{8 * _FAR - 64} missing rows, first at angle_index=0, s_index=8"),
    ("grid2d", "n_phi", _FAR, False, f"{8 * _FAR - 64} missing rows, first at angle_index=8, s_index=0"),
    ("factored", "n", _FAR, False, f"{8 * _FAR - 64} missing rows, first at m=0, s_index=8"),
    ("factored", "n", _FAR, True, "1 duplicate rows, first at m=3, s_index=5"),
], ids=["grid-n", "grid-n_phi", "factored-n", "grid-n_phi-and-a-duplicate", "grid-n-2^70", "grid-n_phi-2^70",
        "factored-n-2^70", "factored-n-2^70-and-a-duplicate"])
def test_exit_code_3_geometry_past_the_rows(tmp_path, capsys, kind, key, value, repeat, message):
    # 8 keys of 8 samples each under a geometry that asks for more; a
    # duplicate row is reported ahead of the missing ones, as for a small n
    geo = {"kind": kind, "dim": 2, "s_min": -1, "s_max": 1, "n": 8, **({"n_phi": 8} if kind == "grid2d" else {})}
    geo[key] = value
    names = "angle_index,s_index,re,im" if kind == "grid2d" else "m,s_index,re,im"
    rows = [f"{a},{j},1,0" for a in range(8) for j in range(8)] + (["3,5,2,0"] if repeat else [])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["# geometry: " + json.dumps(geo), names] + rows) + "\n")
    assert main(["apply", "--t", "0", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def _rows_text(geo: dict, keys) -> str:
    """A field file of one row per (key, s_index) pair under the geometry geo."""
    names = "angle_index,s_index,re,im" if geo["kind"] == "grid2d" else "m,s_index,re,im"
    rows = [f"{k},{j},1,0" for k in keys for j in range(geo["n"])]
    return "\n".join(["# geometry: " + json.dumps(geo), names] + rows) + "\n"


_GRID = {"kind": "grid2d", "s_min": -1, "s_max": 1, "n": 8}


@pytest.mark.parametrize("geo, keys, message", [
    ({**_GRID, "dim": 2, "n_phi": 9}, range(9), "bad geometry value: n_phi=9 must be a power of two >= 8"),
    ({**_GRID, "dim": 1, "n_phi": 4}, range(4), "bad geometry value: N=1 fields carry exactly the two sign points"),
    ({**_GRID, "dim": 3, "n_phi": 8}, range(8), "bad geometry value: grid fields exist for N in {1, 2} only"),
    ({"kind": "factored", "dim": 1, "s_min": -1, "s_max": 1, "n": 8}, (0, 2),
     "{path}: N=1 components carry the parity key 0 or 1"),
], ids=["n_phi-9", "n1-n_phi-4", "grid-dim-3", "n1-key-2"])
def test_exit_code_3_field_that_no_field_type_holds(tmp_path, capsys, geo, keys, message):
    # every row is there, but the geometry or a key is one that the field type refuses
    bad = tmp_path / "bad.csv"
    bad.write_text(_rows_text(geo, keys))
    assert main(["apply", "--t", "0", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr() == ("", "error: " + message.replace("{path}", str(bad)) + "\n")


def _field_text(kind: str, drop: int | None = None, repeat: int | None = None,
                value: str = "1") -> str:
    """A complete N = 1 field on 8 samples (two keys), optionally damaged."""
    geo = {"kind": kind, "dim": 1, "s_min": -1, "s_max": 1, "n": 8}
    names = "m,s_index,re,im" if kind == "factored" else "angle_index,s_index,re,im"
    rows = [f"{a},{j},{value},0" for a in (0, 1) for j in range(8)]
    if repeat is not None:
        rows.append(rows[repeat])
    if drop is not None:
        del rows[drop]
    return "\n".join(["# geometry: " + json.dumps(geo), names] + rows) + "\n"


@pytest.mark.parametrize("kind", ["factored", "grid2d"])
@pytest.mark.parametrize("damage, message", [
    ({"drop": 11}, "missing"),
    ({"drop": 0}, "missing"),
    ({"repeat": 3}, "duplicate"),
    ({"value": "nan"}, "non-finite"),
    ({"value": "inf"}, "non-finite"),
    ({"value": "-inf"}, "non-finite"),
], ids=["missing", "missing-first", "duplicate", "nan", "inf", "minus-inf"])
def test_exit_code_3_strict_field_rows(tmp_path, capsys, kind, damage, message):
    good = tmp_path / "good.csv"
    good.write_text(_field_text(kind))
    assert main(["apply", "--exponent", "0,0,0,0,0,0", "--in", str(good), "--out", str(tmp_path / "o.csv")]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(_field_text(kind, **damage))
    assert main(["apply", "--exponent", "0,0,0,0,0,0", "--in", str(bad)]) == 3
    assert message in capsys.readouterr().err


def test_exit_code_3_non_finite_point(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("r,rp,t\nnan,1.0,0.3\n")
    assert main(["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(pts)]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--dim", "2"],
    ["kernel", "--dim", "two", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0"],
    ["transform", "--dim", "2"],
    ["verify", "--suite", "no-such-suite"],
], ids=["missing-option", "bad-int", "unknown-verb", "bad-choice"])
def test_exit_code_3_usage_error(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error:" in err


def test_negative_comma_lists_are_values(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--dim", "2", "--z", "0.5,0", "--r", "1", "--rp", "1.2",
                 "--t", "-0.5,0.2", "--out", str(out)]) == 0
    assert [row[2] for row in _read_csv_rows(out)] == [-0.5, 0.2]
    out = tmp_path / "a.csv"
    assert main(["apply", "--exponent", "-0,0.2,0,0,0.5,0", "--in", IN_FIELD, "--out", str(out)]) == 0
    # parsed as a value; a real z1 is then refused as unbounded (exit 2)
    assert main(["apply", "--exponent", "-0.1,0,0,0,0.5,0", "--in", IN_FIELD]) == 2
    assert "unbounded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--dim", "2", "--z", "0.5,inf", "--r", "1", "--rp", "1", "--t", "0"],
    ["kernel", "--dim", "2", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0.2,nan"],
    ["apply", "--exponent", "0,0,0,0,nan,0", "--in", IN_FIELD],
    ["apply", "--t", "inf", "--in", IN_FIELD],
], ids=["kernel-z", "kernel-t", "apply-exponent", "apply-t"])
def test_exit_code_3_non_finite_argument(capsys, argv):
    assert main(argv) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env, line", [
    (["kernel", "--dim", "2", "--z", "0.5,0", "--r", "1,nan", "--rp", "1", "--t", "0"], None,
     "error: --r: values must be finite, got [1.0, nan]"),
    (["apply", "--t", "nan", "--in", IN_FIELD], None, "error: --t: values must be finite, got [nan]"),
    (["kernel", "--dim", "2", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0"], "inf",
     "error: CONFORMAL_HEAT_TOL: values must be finite, got [inf]"),
], ids=["kernel-r", "apply-t", "env-tol"])
def test_a_non_finite_value_names_its_option_once(monkeypatch, capsys, argv, env, line):
    if env is None:
        monkeypatch.delenv("CONFORMAL_HEAT_TOL", raising=False)
    else:
        monkeypatch.setenv("CONFORMAL_HEAT_TOL", env)
    assert main(argv) == 3
    assert capsys.readouterr().err == line + "\n"


def test_exit_code_3_bad_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("CONFORMAL_HEAT_TOL", "not-a-number")
    assert main(["kernel", "--dim", "2", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("closed_form", [False, True], ids=["series", "closed-form"])
def test_exit_code_3_non_finite_tolerance(capsys, spelling, closed_form):
    argv = ["kernel", "--dim", "2", "--z", "0.05,0", "--r", "1", "--rp", "1.2", "--t", "0.3",
            "--tol", spelling] + ["--closed-form"] * closed_form
    assert main(argv) == 3
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["inf", "-inf", "nan", "1e400"])
def test_exit_code_3_non_finite_env_tolerance(monkeypatch, capsys, spelling):
    monkeypatch.setenv("CONFORMAL_HEAT_TOL", spelling)
    assert main(["kernel", "--dim", "3", "--z", "0.5,0", "--r", "1", "--rp", "1.2", "--t", "0.3"]) == 3
    assert "CONFORMAL_HEAT_TOL" in capsys.readouterr().err


def test_env_tolerance_is_honored(monkeypatch, tmp_path):
    monkeypatch.setenv("CONFORMAL_HEAT_TOL", "1e-6")
    out = tmp_path / "k.csv"
    assert main(["kernel", "--dim", "2", "--z", "0.5,0", "--r", "1", "--rp", "1", "--t", "0.3",
                 "--out", str(out)]) == 0
    (row,) = _read_csv_rows(out)
    want = full_kernel_series(2, 1.0, 1.0, 0.3, 0.5 + 0j, 1e-10)
    assert row[3] + 1j * row[4] == pytest.approx(want, rel=1e-6)


def test_apply_requires_exactly_one_action(capsys):
    assert main(["apply", "--in", IN_FIELD]) == 3
    assert main(["apply", "--exponent", "0,0,0,0,0,0", "--t", "0.1", "--in", IN_FIELD]) == 3
    capsys.readouterr()


# Kernel tables split between two processes: the same bytes and the same first error as the serial table.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
SERIAL = 2**62  # a gate no table reaches
_ROWS = 48      # the child takes rows 0-23 or 0-24 (up to the first newline past the middle), the caller the rest


@pytest.fixture
def split_kernels(monkeypatch):
    """The pids of the children that kernel tables fork; the split is forced for every size and CPU count."""
    forks = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(two_processes, "_SPLIT_TABLE", 0)
    return forks


def _points_file(tmp_path: Path, dim: int, bad: dict | None = None) -> Path:
    """_ROWS kernel points for dim, with the rows of bad put in place; N = 4 has near-pole rows."""
    rng = np.random.default_rng(dim)
    r, rp = np.exp(rng.uniform(-1.5, 1.5, (2, _ROWS)))
    t = rng.uniform(-1.0, 1.0, _ROWS)
    if dim == 1:
        t = np.where(t < 0, -1.0, 1.0)
    if dim == 4:  # the closed form takes these rows through the series
        t[::5] = np.where(t[::5] < 0, -1.0, 1.0) * (1.0 - 1e-8)
    rows = ["%.17g,%.17g,%.17g" % row for row in zip(r.tolist(), rp.tolist(), t.tolist())]
    for i, row in (bad or {}).items():
        rows[i] = row
    path = tmp_path / f"points{dim}.csv"
    path.write_text("\n".join(["r,r_prime,t", *rows]) + "\n")
    return path


def _both_ways(monkeypatch, argv: list[str], capsys) -> list[tuple]:
    """(exit code, stdout, stderr) of argv with the table split, then serially."""
    results = []
    for gate in (0, SERIAL):
        monkeypatch.setattr(two_processes, "_SPLIT_TABLE", gate)
        results.append((main(argv), *capsys.readouterr()))
    return results


_ROUTES = [*((dim, []) for dim in range(1, 7)), *((dim, ["--closed-form"]) for dim in (1, 2, 4))]


@needs_fork
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dim, route", _ROUTES, ids=[f"n{d}{'-closed' if r else ''}" for d, r in _ROUTES])
def test_split_kernel_table_has_the_serial_bytes(tmp_path, monkeypatch, capsys, split_kernels, dim, route, fmt):
    argv = ["kernel", "--dim", str(dim), "--z", "0.4,0.2", "--in", str(_points_file(tmp_path, dim)),
            "--format", fmt, *route]
    split, serial = _both_ways(monkeypatch, argv, capsys)
    assert len(split_kernels) == 1
    assert split[0] == serial[0] == 0 and split[2] == serial[2] == ""
    assert_same_bytes(split[1].encode(), serial[1].encode())


def test_a_serial_table_writes_each_chunk_before_it_formats_the_next(monkeypatch):
    # the serial table holds one chunk of its text at a time: 3375 points
    # make three chunks of 1638 lines or fewer, each written as it is made
    events, written, lines = [], [], fields_io._csv_lines

    class Recorded(io.BufferedIOBase):  # writelines is IOBase's: one write per item, as on a file
        def writable(self):
            return True

        def write(self, data):
            events.append("write")
            written.append(bytes(data))
            return len(data)

    def formatted(values):
        events.append("format")
        return lines(values)

    monkeypatch.setattr(two_processes, "_SPLIT_TABLE", SERIAL)
    monkeypatch.setattr(fields_io, "_csv_lines", formatted)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Recorded()))  # no descriptor: the bytes go to its buffer
    radii, cosines = (",".join(map(str, np.linspace(*ends, 15))) for ends in ((0.5, 2.0), (-0.9, 0.9)))
    argv = ["kernel", "--dim", "2", "--z", "0.5,0", "--r", radii, "--rp", radii, "--t", cosines, "--closed-form"]
    assert main(argv) == 0
    assert events == ["write"] + ["format", "write"] * 3  # the column names, then each chunk
    assert [text.count(b"\n") for text in written] == [1, 1638, 1638, 15**3 - 2 * 1638]


@needs_fork
@pytest.mark.parametrize("route", [[], ["--closed-form"]], ids=["series", "closed-form"])
def test_the_caller_evaluates_its_half_alone(tmp_path, monkeypatch, capsys, split_kernels, route):
    # the caller evaluates exactly the rows past the first newline past the
    # middle of the file; the child's rows are taken, not evaluated here
    caller, rows = os.getpid(), []
    name = "closed_form" if route else "full_kernel_series"
    evaluate = getattr(cli, name)

    def spy(dim, r, *args):
        if os.getpid() == caller:
            rows.extend(np.atleast_1d(r).tolist())
        return evaluate(dim, r, *args)

    monkeypatch.setattr(cli, name, spy)
    path = _points_file(tmp_path, 2)
    argv = ["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(path), *route]
    assert main(argv) == 0
    text = path.read_bytes()
    middle = text.index(b"\n", len(text) // 2) + 1
    theirs, mine = (np.loadtxt(io.BytesIO(half), delimiter=",", skiprows=skip, ndmin=2)[:, 0].tolist()
                    for half, skip in ((text[:middle], 1), (text[middle:], 0)))
    assert rows == mine and not set(rows) & set(theirs)
    assert len(theirs) + len(mine) == _ROWS and len(split_kernels) == 1
    capsys.readouterr()


@needs_fork
def test_the_caller_formats_its_half_before_it_waits_for_the_child(tmp_path, monkeypatch, capsys, split_kernels):
    # the halves overlap only where the caller's lines are made before it reads the child's length
    caller, events = os.getpid(), []
    lines, in_two = fields_io._csv_lines, two_processes._in_two_processes

    def formatted(values):
        if os.getpid() == caller:
            events.append("format")
        return lines(values)

    class Watched:
        def __init__(self, pipe):
            self.pipe = pipe

        def read(self, size=-1):
            events.append("read")
            return self.pipe.read(size)

    monkeypatch.setattr(fields_io, "_csv_lines", formatted)
    monkeypatch.setattr(two_processes, "_in_two_processes",
                        lambda child, parent: in_two(child, lambda pipe: parent(Watched(pipe))))
    assert main(["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(_points_file(tmp_path, 2))]) == 0
    assert events[:2] == ["format", "read"] and events.count("format") == 1 and len(split_kernels) == 1
    capsys.readouterr()


_BAD_ROWS = {
    "both-halves": {10: "0,1,0.5", 40: "1,1,1.5"},
    "child-half": {10: "1,1,1.5"},
    "two-in-the-child-half": {6: "1,-1,0.5", 16: "1,1,1.5"},
    "last-row": {47: "1,1,nan"},
    "infinite-radius": {40: "inf,1,0.5"},  # both N = 2 routes would print 0 for it
}


@needs_fork
@pytest.mark.parametrize("route", [[], ["--closed-form"]], ids=["series", "closed-form"])
@pytest.mark.parametrize("bad", list(_BAD_ROWS.values()), ids=list(_BAD_ROWS))
def test_split_kernel_table_refuses_as_the_serial_loop(tmp_path, monkeypatch, capsys, split_kernels, route, bad):
    out = tmp_path / "k.csv"
    argv = ["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(_points_file(tmp_path, 2, bad)), "--out", str(out),
            *route]
    split, serial = _both_ways(monkeypatch, argv, capsys)
    assert split == serial
    assert split[0] in (2, 3) and split[2].startswith("error: ") and split[2].count("\n") == 1
    assert not out.exists()
    # the table is split before it is read, so a non-finite value is found after the fork too
    assert len(split_kernels) == 1


_TABLE_WIDE = {  # at Re z = 1e-12 the theta cutoff and the series truncation refuse any rows they get
    "n2-bad-t-in-the-child-half": (2, {7: "1,1,1.5"}, "error: t=1.5 outside [-1, 1]"),
    "n4-bad-t-in-the-child-half": (4, {7: "1,1,1.5"}, "error: t=1.5 outside [-1, 1]"),
    "n4-near-pole-rows-in-the-child-half": (4, {i: "1,1,0.5" for i in range(_ROWS // 2 + 1, _ROWS, 5)},
                                            "error: no certified truncation for Re z = 1e-12"),
}


@needs_fork
@pytest.mark.parametrize("dim, bad, first", list(_TABLE_WIDE.values()), ids=list(_TABLE_WIDE))
def test_a_refusal_of_the_callers_half_is_not_the_tables_first(tmp_path, monkeypatch, capsys, split_kernels,
                                                               dim, bad, first):
    # the caller's half alone is refused by theta, for all its rows are good;
    # the whole table is refused first by a row, or by the near-pole series
    argv = ["kernel", "--dim", str(dim), "--z", "1e-12,0", "--in", str(_points_file(tmp_path, dim, bad)),
            "--closed-form"]
    split, serial = _both_ways(monkeypatch, argv, capsys)
    assert split == serial
    assert split[0] == 2 and split[2].startswith(first) and split[2].count("\n") == 1
    assert len(split_kernels) == 1


@needs_fork
@pytest.mark.parametrize("route", [[], ["--closed-form"]], ids=["series", "closed-form"])
def test_a_child_that_dies_leaves_its_half_to_the_caller(tmp_path, monkeypatch, capsys, split_kernels, route):
    caller = os.getpid()
    name = "closed_form" if route else "full_kernel_series"
    evaluate = getattr(cli, name)

    def dies_in_the_child(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return evaluate(*args)

    monkeypatch.setattr(cli, name, dies_in_the_child)
    argv = ["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(_points_file(tmp_path, 2)), *route]
    split, serial = _both_ways(monkeypatch, argv, capsys)
    assert len(split_kernels) == 1
    assert split == serial and split[0] == 0


@needs_fork
@pytest.mark.parametrize("bad", [None, {40: "1,1,1.5"}], ids=["rows", "caller-fails"])
def test_no_child_outlives_a_kernel_table(tmp_path, monkeypatch, capsys, split_kernels, bad):
    # the child would take a minute over its half: it is killed, not waited
    # for, when the caller's half fails
    caller, evaluate = os.getpid(), cli.full_kernel_series

    def slow_in_the_child(*args):
        if os.getpid() != caller and bad:
            time.sleep(60)
        return evaluate(*args)

    monkeypatch.setattr(cli, "full_kernel_series", slow_in_the_child)
    began = time.monotonic()
    argv = ["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(_points_file(tmp_path, 2, bad))]
    assert main(argv) == (2 if bad else 0)
    capsys.readouterr()
    assert time.monotonic() - began < 30
    assert len(split_kernels) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("source", ["in", "lists"])
def test_a_kernel_table_forks_once(tmp_path, monkeypatch, capsys, split_kernels, source, fmt):
    # with the field I/O gates forced too, the table is split once, before
    # it is read, and not again to read its points or to write its output
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0)
    points = (["--in", str(_points_file(tmp_path, 3))] if source == "in" else
              ["--r", "0.5,1,2,3", "--rp", "0.7,1.5,2.5", "--t", "-0.5,0,0.5,0.9"])
    argv = ["kernel", "--dim", "3", "--z", "0.5,0.1", *points, "--format", fmt]
    assert main(argv) == 0
    split = capsys.readouterr()
    assert len(split_kernels) == 1
    monkeypatch.setattr(two_processes, "_SPLIT_TABLE", SERIAL)
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", SERIAL)
    assert main(argv) == 0
    assert capsys.readouterr() == split and len(split_kernels) == 1


@needs_fork
@pytest.mark.parametrize("source", ["in", "lists", "short-rows"])
def test_a_table_of_exactly_the_gate_is_split(tmp_path, monkeypatch, capsys, split_kernels, source):
    # _ROWS points from a file (its column-name row not counted, whatever the
    # length of its rows) or from lists split at a gate of _ROWS, not at _ROWS + 1
    if source == "lists":
        points = ["--r", "0.5,1,2,3", "--rp", "0.7,1.5,2.5", "--t", "-0.5,0,0.5,0.9"]
    else:
        path = _points_file(tmp_path, 3)
        if source == "short-rows":
            path.write_text("r,r_prime,t\n" + "".join(f"1.{i},2,0.5\n" for i in range(_ROWS)))
        points = ["--in", str(path)]
    argv = ["kernel", "--dim", "3", "--z", "0.5,0", *points]
    results = []
    for gate, forks in ((_ROWS, 1), (_ROWS + 1, 1)):
        monkeypatch.setattr(two_processes, "_SPLIT_TABLE", gate)
        results.append((main(argv), *capsys.readouterr()))
        assert len(split_kernels) == forks
    assert results[0] == results[1] and results[0][0] == 0


_COMMENTS = ["# a comment line of the points file", "", "#", "# another comment", ""]
# (lines ahead of the data, lines put ahead of data row i, line end, a line end after the last row,
#  whether the split keeps the file's halves), for a file of _ROWS rows split near row 24
_LAYOUTS = {
    "crlf": (["r,r_prime,t"], {}, "\r\n", True, True),
    "comments-and-blank-lines-at-the-middle": (["r,r_prime,t"], {24: _COMMENTS * 8}, "\n", True, True),
    "column-name-row": (["# points", "r,r_prime,t"], {}, "\n", True, True),
    "no-column-name-row": ([], {}, "\n", True, True),
    "column-name-row-at-the-middle": (["r,r_prime,t"], {24: ["r,r_prime,t"]}, "\n", True, False),
    "no-trailing-newline": (["r,r_prime,t"], {}, "\n", False, True),
    "whitespace-only-line-in-the-first-half": (["r,r_prime,t"], {5: ["  "]}, "\n", True, False),
    "whitespace-only-line-in-the-second-half": (["r,r_prime,t"], {40: [" \t "]}, "\n", True, False),
    "head-longer-than-half-the-file": ([*_COMMENTS * 60, "r,r_prime,t"], {}, "\n", True, False),
}


@needs_fork
@pytest.mark.parametrize("case", list(_LAYOUTS), ids=list(_LAYOUTS))
def test_a_points_file_split_by_bytes_has_the_serial_bytes_and_errors(tmp_path, monkeypatch, capsys, split_kernels,
                                                                      case):
    head, inserts, newline, last, kept = _LAYOUTS[case]
    lines = list(head)
    for i, row in enumerate(_points_file(tmp_path, 2).read_text().splitlines()[1:]):
        lines += inserts.get(i, []) + [row]
    path = tmp_path / "layout.csv"
    path.write_bytes((newline.join(lines) + newline * last).encode())
    if 24 in inserts and len(inserts[24]) > 1:  # the block of comments holds the middle of the file
        text = path.read_bytes()
        assert text.index(inserts[24][0].encode()) < len(text) // 2 < text.index(lines[-24].encode())
    if case == "head-longer-than-half-the-file":
        assert path.read_bytes().index(b"r,r_prime,t") > path.stat().st_size // 2
    reads, read_points = [], cli.read_points
    monkeypatch.setattr(cli, "read_points", lambda name: reads.append(name) or read_points(name))
    argv = ["kernel", "--dim", "2", "--z", "0.5,0", "--in", str(path)]
    split, serial = _both_ways(monkeypatch, argv, capsys)
    assert split == serial
    assert split[0] == (3 if "at-the-middle" in case and "name" in case else 0)
    assert len(reads) == (1 if kept else 2)  # the serial run reads the file; a split that falls back reads it too
    assert len(split_kernels) == 1


_NO_FORK_CLI = """
import os, sys
from conformal_heat import cli, two_processes

def no_fork():
    raise AssertionError("os.fork was called")

two_processes._SPLIT_TABLE = 0
os.sched_getaffinity, os.fork = (lambda pid: {0, 1}), no_fork
sys.exit(cli.main(sys.argv[1:]))
"""


@needs_fork
def test_points_from_a_pipe_stay_serial(tmp_path, capsys):
    # /dev/stdin on a pipe cannot be read twice: the table is read and evaluated in one process
    path = _points_file(tmp_path, 3)
    argv = ["kernel", "--dim", "3", "--z", "0.5,0"]
    assert main([*argv, "--in", str(path)]) == 0
    serial = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(conformal_heat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NO_FORK_CLI, *argv, "--in", "/dev/stdin"], input=path.read_bytes(),
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert_same_bytes(proc.stdout, serial.encode())


def _no_fork():
    raise AssertionError("os.fork was called")


@needs_fork
@pytest.mark.parametrize("threads, cpus, gate", [(2, {0, 1}, 0), (1, {0}, 0), (1, {0, 1}, _ROWS + 1)],
                         ids=["another-thread", "one-cpu", "below-the-threshold"])
def test_no_kernel_fork_beside_another_thread_on_one_cpu_or_below_the_threshold(tmp_path, monkeypatch, capsys,
                                                                                threads, cpus, gate):
    argv = ["kernel", "--dim", "3", "--z", "0.5,0", "--in", str(_points_file(tmp_path, 3))]
    assert main(argv) == 0
    serial = capsys.readouterr()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(two_processes, "_SPLIT_TABLE", gate)
    release = threading.Event()
    others = [threading.Thread(target=release.wait) for _ in range(threads - 1)]
    for other in others:
        other.start()
    try:
        assert main(argv) == 0
    finally:
        release.set()
        for other in others:
            other.join(timeout=10)
    assert not any(other.is_alive() for other in others)
    assert capsys.readouterr() == serial


# A full verify split between two processes at one cut: the child makes sl2, degeneration and spectral's first
# three cases, the caller spectral's other cases and every later suite.

_SMALL_GRID = "--grid=-8,8,256"  # below the grid gate, which the tests that use it lower to 0


@pytest.fixture
def split_verify(monkeypatch):
    """The pids of the children that verify runs fork; two CPUs and one thread, the grid gate as it is."""
    forks = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return forks


def _verify_both_ways(monkeypatch, argv: list[str], capsys, gate: int = two_processes._SPLIT_GRID) -> list[tuple]:
    """(exit code, stdout, stderr) of argv split at the given grid gate, then serially."""
    results = []
    for grid_gate in (gate, SERIAL):
        monkeypatch.setattr(two_processes, "_SPLIT_GRID", grid_gate)
        results.append((main(argv), *capsys.readouterr()))
    return results


@needs_fork
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("grid", [[], ["--grid=-7,7,2048"]], ids=["default", "-7,7,2048"])
def test_split_verify_has_the_serial_bytes(tmp_path, monkeypatch, capsys, split_verify, grid, fmt):
    argv = ["verify", *grid, "--format", fmt]
    out = tmp_path / f"v.{fmt}"
    to_file = []
    for gate in (two_processes._SPLIT_GRID, SERIAL):
        monkeypatch.setattr(two_processes, "_SPLIT_GRID", gate)
        to_file.append((main([*argv, "--out", str(out)]), *capsys.readouterr(), out.read_bytes()))
    split, serial = _verify_both_ways(monkeypatch, argv, capsys)
    assert len(split_verify) == 2
    assert to_file[0] == to_file[1] and split == serial
    assert_same_bytes(split[1].encode(), to_file[0][3])
    assert split[0] == (1 if grid else 0) and split[2] == ""
    if fmt == "csv":
        failed = [row[0] for row in csv.reader(io.StringIO(split[1])) if row[4] == "0"]
        # on -7,7,2048 checks fail on both sides: spectral's z = 0.3+0.4i cases in both, scaling in the caller
        assert failed == (["spectral"] * 3 + ["scaling"] * 2 if grid else [])


def _refusing(name: str, how: str, caller: int):
    """The suite name, made to raise or to kill its own process: in the child, the caller or both."""
    suite = verify.SUITES[name]

    def refusing(*args):
        in_the_child = os.getpid() != caller
        if how == "dies-in-the-child" and in_the_child:
            os.kill(os.getpid(), signal.SIGKILL)
        if how == "raises" or (how == "raises-in-the-child" and in_the_child):
            raise DomainError(f"{name} refused")
        return suite(*args)
    return refusing


_VERIFY_FAULTS = {  # suites made to fail; the serial run raises at the first one in suite order
    "child-raises": {"degeneration": "raises"},
    "caller-raises": {"projection": "raises"},
    "both-raise-child-first": {"sl2": "raises", "projection": "raises"},
    "both-raise-caller-first": {"spectral": "raises", "scaling": "raises"},
    "only-the-child-raises": {"sl2": "raises-in-the-child"},
    "the-child-dies": {"degeneration": "dies-in-the-child"},
}


@needs_fork
@pytest.mark.parametrize("faults", list(_VERIFY_FAULTS.values()), ids=list(_VERIFY_FAULTS))
def test_a_split_verify_that_fails_gives_the_serial_error(monkeypatch, capsys, split_verify, faults):
    caller = os.getpid()
    for name, how in faults.items():
        monkeypatch.setitem(verify.SUITES, name, _refusing(name, how, caller))
    split, serial = _verify_both_ways(monkeypatch, ["verify", _SMALL_GRID], capsys, gate=0)
    assert split == serial and len(split_verify) == 1
    raising = [name for name in verify.SUITES if faults.get(name) == "raises"]
    if raising:
        assert split == (2, "", f"error: {raising[0]} refused\n")
    else:
        assert split[0] == 0 and split[2] == ""


_ODD_DEFECTS = [math.nan, math.inf, -math.inf, 5e-324, -0.0, 0, 1.7976931348623157e308, 0.1 + 0.2]


@needs_fork
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_odd_defects_survive_the_childs_round_trip(monkeypatch, capsys, split_verify, fmt):
    odd = [CheckResult("special", f"defect {d!r}", d, 1.0) for d in _ODD_DEFECTS]
    monkeypatch.setitem(verify.SUITES, "special", lambda: odd)
    split, serial = _verify_both_ways(monkeypatch, ["verify", _SMALL_GRID, "--format", fmt], capsys, gate=0)
    assert split == serial and split[0] == 1 and len(split_verify) == 1
    assert all(word in split[1] for word in (("NaN", "Infinity", "-Infinity") if fmt == "json" else ("nan", "inf")))


@needs_fork
def test_a_verify_forks_once(monkeypatch, capsys, split_verify):
    # with every other gate forced too, a verify forks once, for its suites
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(two_processes, "_SPLIT_TABLE", 0)
    assert main(["verify", "--format", "csv"]) == 0
    assert len(split_verify) == 1
    capsys.readouterr()


@needs_fork
def test_the_child_runs_nothing_that_calls_blas(tmp_path, monkeypatch, capsys, split_verify):
    # projection, the one suite that multiplies through BLAS (@), runs in the caller, after the cut; the child's
    # spectral cases multiply through einsum (test_apply_radial_kernel_is_the_einsum_of_the_quadrature_matrix)
    log = tmp_path / "suites.log"

    def logged(name, suite):
        def run(*args):
            dims = ",".join(str(dim) for dim, _ in args[1]) if name == "spectral" else ""
            with open(log, "a") as fp:  # one short append per call: the two processes' lines do not mix
                fp.write(f"{os.getpid()} {name}{dims and ':' + dims}\n")
            return suite(*args)
        return run

    for name, suite in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, logged(name, suite))
    monkeypatch.setattr(two_processes, "_SPLIT_GRID", 0)
    assert main(["verify", _SMALL_GRID]) == 0
    capsys.readouterr()
    ran: dict = {}
    for line in log.read_text().splitlines():
        pid, name = line.split()
        ran.setdefault(int(pid), []).append(name)
    caller = ["spectral:3,4,4", "theta", "unitarity", "scaling", "semigroup", "special", "projection"]
    assert ran == {os.getpid(): caller, split_verify[0]: ["sl2", "degeneration", "spectral:2,2,3"]}


@needs_fork
@pytest.mark.parametrize("fails", [False, True], ids=["checks", "caller-fails"])
def test_no_child_outlives_a_verify(monkeypatch, capsys, split_verify, fails):
    # the child would take a minute over its suites: it is killed, not waited
    # for, when the caller's suites fail
    caller, sl2 = os.getpid(), verify.SUITES["sl2"]

    def slow_in_the_child():
        if os.getpid() != caller and fails:
            time.sleep(60)
        return sl2()

    monkeypatch.setitem(verify.SUITES, "sl2", slow_in_the_child)
    if fails:
        monkeypatch.setitem(verify.SUITES, "projection", _refusing("projection", "raises", caller))
    monkeypatch.setattr(two_processes, "_SPLIT_GRID", 0)
    began = time.monotonic()
    assert main(["verify", _SMALL_GRID]) == (2 if fails else 0)
    capsys.readouterr()
    assert time.monotonic() - began < 30
    assert len(split_verify) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("argv, threads, cpus, code", [
    (["--suite", "special"], 1, {0, 1}, 0),
    (["--grid=-16,16,1024"], 1, {0, 1}, 0),
    ([], 1, {0}, 0),
    ([], 2, {0, 1}, 0),
    (["--grid=-8,8,3000"], 1, {0, 1}, 2),
    (["--grid=8,-8,4096"], 1, {0, 1}, 2),
], ids=["one-suite", "below-the-grid-gate", "one-cpu", "another-thread", "n-not-a-power-of-two", "empty-grid"])
def test_no_verify_fork_for_one_suite_a_small_or_bad_grid_one_cpu_or_another_thread(monkeypatch, capsys,
                                                                                  argv, threads, cpus, code):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    others = [threading.Thread(target=release.wait) for _ in range(threads - 1)]
    for other in others:
        other.start()
    try:
        assert main(["verify", *argv]) == code
    finally:
        release.set()
        for other in others:
            other.join(timeout=10)
    assert not any(other.is_alive() for other in others)
    assert capsys.readouterr().err.startswith("error: ") == (code == 2)


@pytest.mark.parametrize("dim", ["344", "1000"])
@pytest.mark.parametrize("z", ["0.5,0", "1e-4,0"])
def test_an_n_whose_gamma_is_past_the_float_range_is_refused_without_a_traceback(capsys, dim, z):
    # Gamma(N/2) overflowed into an OverflowError (exit 1) from N = 344 on; the series' cut is certified first
    argv = ["kernel", "--dim", dim, "--z", z, "--r", "1", "--rp", "1", "--t", "0.5"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: N = {dim} is too large: Gamma(N/2) is past the float range "
                                       "for N > 343\n")
    assert main([*argv[:2], "343", *argv[3:]]) == 0
    assert capsys.readouterr().err == ""
