"""Hostile inputs through every kernel route, apply and verify: a refusal, never a traceback.

Each hostile point or field file runs through four routes, serially and
with every job forced into two processes, and each run must exit 0, 2 or
3 with an empty stderr or one "error: ..." line, print only finite
values on exit 0, and give the split run's exit code, stdout and stderr.
Each hostile spelling of an option (a seeded sample of them together)
runs the same way, serially: exit 0, 2 or 3, one "error: ..." line (after
the usage, for a usage error) and only finite values on exit 0.
"""

from __future__ import annotations

import json
import math
import os
import random
import warnings

import pytest

from conformal_heat import two_processes
from conformal_heat.cli import main

SERIAL = 2**62  # a gate no job reaches
_GATES = ("_SPLIT_BYTES", "_SPLIT_TABLE", "_SPLIT_GRID")

ROUTES = {
    "series": ["kernel", "--dim", "3", "--z", "0.5,0"],
    "closed-form": ["kernel", "--dim", "2", "--z", "0.5,0.2", "--closed-form"],
    "json": ["kernel", "--dim", "4", "--z", "0.4,0.2", "--closed-form", "--format", "json"],
    "apply": ["apply", "--exponent", "0,0.3,0,0.1,0.5,0.2"],
}

_POINTS = "1,1,0.5\n0.5,2,-0.25\n2,0.75,0.9\n1.5,1.25,-1\n"


def _field(geometry: dict | str | None = None, rows: list[str] | None = None, newline: str = "\n") -> bytes:
    """An N = 3 factored field of degrees 0 and 1 on 8 samples, or its geometry and rows replaced."""
    if geometry is None:
        geometry = {"kind": "factored", "dim": 3, "s_min": -4, "s_max": 4, "n": 8}
    if not isinstance(geometry, str):
        geometry = json.dumps(geometry)
    head = ["# geometry: " + geometry] if geometry else []
    if rows is None:
        rows = [f"{m},{j},{1 / (1 + j)!r},{-j / 8}" for m in (0, 1) for j in range(8)]
    return newline.join([*head, "m,s_index,re,im", *rows]).encode() + newline.encode()


def _grid(dim: int, n_phi: int | None) -> bytes:
    geometry = {"kind": "grid2d", "dim": dim, "s_min": -2, "s_max": 2, "n": 8}
    if n_phi is not None:
        geometry["n_phi"] = n_phi
    rows = [f"{a},{j},{a - j / 4!r},{j / 8}" for a in range(n_phi or 2) for j in range(8)]
    return ("# geometry: " + json.dumps(geometry) + "\nangle_index,s_index,re,im\n" + "\n".join(rows) + "\n").encode()


FILES = {
    # bytes and encodings
    "nul-byte": b"1,1,0.5\n1,\x001,0.5\n",
    "nul-row": _POINTS.encode() + b"\x00\n",
    "utf-16": ("r,r_prime,t\n" + _POINTS).encode("utf-16"),
    "latin-1-names": ("r,r_prime,t\xe9\n" + _POINTS).encode("latin-1"),
    "bom-crlf": b"\xef\xbb\xbfr,r_prime,t\r\n" + _POINTS.replace("\n", "\r\n").encode(),
    "bom-only": b"\xef\xbb\xbf",
    "cr-only": ("r,r_prime,t\r" + _POINTS.replace("\n", "\r")).encode(),
    "mixed-line-ends": b"1,1,0.5\r\n0.5,2,-0.25\n2,0.75,0.9\r1.5,1.25,-1",
    "empty": b"",
    "names-only": b"r,r_prime,t\n",
    "comments-only": b"# nothing here\n#\n",
    "whitespace-only-lines": ("1,1,0.5\n   \n\t\n" + _POINTS).encode(),
    "indented-comment": ("1,1,0.5\n   # a note\n" + _POINTS).encode(),
    # rows
    "truncated-row": _POINTS.encode() + b"1,1",
    "truncated-number": _POINTS.encode() + b"1,1,0.",
    "trailing-comma": b"1,1,0.5,\n2,1,0.25,\n",
    "tabs": b"1\t,1,\t0.5\n2,\t1,0.25\n",
    "tab-separated": b"1\t1\t0.5\n2\t1\t0.25\n",
    "quoted-first-row": b'"1","1","0.5"\n2,1,0.25\n',
    "quoted-second-row": b'1,1,0.5\n"2","1","0.25"\n',
    "typo-in-the-first-cell": b"x1,1,0.5\n2,1,0.25\n",
    "names-twice": b"r,r_prime,t\nr,r_prime,t\n1,1,0.5\n",
    "two-columns": b"1,1\n2,1\n",
    "ragged": b"1,1,0.5\n2,1,0.25,7\n",
    "empty-cell": b"1,,0.5\n",
    "hex": b"0x10,1,0.5\n",
    "underscore": b"1_0,1,0.5\n",
    "plus-signs": b"+1,+1,+0.5\n",
    # values
    "1e309": b"1,1e309,0.5\n",
    "nan": b"1,nan,0.5\n",
    "minus-inf": b"1,1,-inf\n",
    "t-past-one": b"1,1,1.5\n",
    "zero-radius": b"0,1,0.5\n",
    "negative-radius": b"-1,1,0.5\n",
    "huge-radii": b"1e300,1e300,0.5\n",
    "subnormal-radius": b"5e-324,1,0.5\n",
    # fields and their geometry
    "field": _field(),
    "field-bom-crlf": b"\xef\xbb\xbf" + _field(newline="\r\n"),
    "field-no-geometry": _field(geometry=""),
    "field-bad-json": _field(geometry='{"kind": "factored", "dim": 3,'),
    "field-geometry-not-an-object": _field(geometry="[3, -4, 4, 8]"),
    "field-n-past-the-rows": _field({"kind": "factored", "dim": 3, "s_min": -4, "s_max": 4, "n": 2**40}),
    "field-n-past-int64": _field({"kind": "factored", "dim": 3, "s_min": -4, "s_max": 4, "n": 2**70}),
    "field-s-min-1e309": _field(geometry='{"kind": "factored", "dim": 3, "s_min": -1e309, "s_max": 4, "n": 8}'),
    "field-reversed-ends": _field({"kind": "factored", "dim": 3, "s_min": 4, "s_max": -4, "n": 8}),
    "field-dim-zero": _field({"kind": "factored", "dim": 0, "s_min": -4, "s_max": 4, "n": 8}),
    "field-dim-a-string": _field({"kind": "factored", "dim": "3", "s_min": -4, "s_max": 4, "n": 8}),
    "field-unknown-kind": _field({"kind": "sphere", "dim": 3, "s_min": -4, "s_max": 4, "n": 8}),
    "field-duplicate-row": _field(rows=[f"0,{j},1,0" for j in [*range(8), 3]]),
    "field-missing-row": _field(rows=[f"0,{j},1,0" for j in range(7)]),
    "field-m-not-an-integer": _field(rows=[f"0.5,{j},1,0" for j in range(8)]),
    "field-s-index-past-n": _field(rows=[f"0,{j + 1},1,0" for j in range(8)]),
    "field-huge-value": _field(rows=[f"0,{j},{1e308 if j == 3 else 1},0" for j in range(8)]),
    "field-1e309-value": _field(rows=[f"0,{j},{'1e309' if j == 5 else 1},0" for j in range(8)]),
    "grid-n1": _grid(1, None),
    "grid-n2": _grid(2, 8),
    "grid-n2-without-n-phi": _grid(2, None),
}


def _finite(out: str) -> bool:
    """Whether every value that a run printed is finite."""
    if out.startswith("{"):
        values = [value for row in json.loads(out)["rows"] for value in row.values()]
    else:
        rows = [line for line in out.splitlines() if not line.startswith("#")][1:]  # past the column names
        values = [float(cell) for row in rows for cell in row.split(",")]
    return all(map(math.isfinite, values))


def _run(monkeypatch, capsys, argv: list[str], gate: int) -> tuple[int, str, str]:
    for name in _GATES:
        monkeypatch.setattr(two_processes, name, gate)
    return main(argv), *capsys.readouterr()


@pytest.mark.parametrize("name", list(FILES))
def test_a_hostile_file_gets_a_clean_answer_or_one_error_line_on_every_route(tmp_path, monkeypatch, capsys, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(FILES[name])
    monkeypatch.delenv("CONFORMAL_HEAT_TOL", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for route, argv in ROUTES.items():
        argv = [*argv, "--in", str(path)]
        code, out, err = serial = _run(monkeypatch, capsys, argv, SERIAL)
        assert code in (0, 2, 3), (route, serial)
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (route, serial)
        else:
            assert err == "" and _finite(out), (route, serial)
        if hasattr(os, "fork"):
            assert _run(monkeypatch, capsys, argv, 0) == serial, route


_BIG = "1" + "0" * 399  # a 400-digit integer, past the float range
# number spellings: zeros, non-finite, the float range's ends and past them, Python-only literals, spaces, empty
SPELLINGS = ["0", "-0", "nan", "-nan", "inf", "-inf", "5e-324", "-5e-324", "1e308", "2e308", "-2e308",
             "0x10", "1_0", " 1", " 0.5", _BIG, "-" + _BIG, ""]
KERNEL_ROUTES = {
    "series": ["kernel", "--dim=3"],
    "closed-form": ["kernel", "--dim=2", "--closed-form"],
    "json": ["kernel", "--dim=4", "--closed-form", "--format=json"],
}
_POINT = {"--z": "0.5,0", "--r": "1", "--rp": "1", "--t": "0.5"}


def _spelled_points() -> list[dict]:
    """The point with each spelling in each place, then a seeded sample with several places spelled at once."""
    points = [{**_POINT, opt: s} for opt in ("--r", "--rp", "--t") for s in SPELLINGS]
    points += [{**_POINT, "--z": z} for s in SPELLINGS for z in (f"{s},0", f"0.5,{s}")]
    rng = random.Random(2815)
    for _ in range(40):
        point = {opt: rng.choice([good, *SPELLINGS]) for opt, good in _POINT.items() if opt != "--z"}
        points.append({**point, "--z": f"{rng.choice(['0.5', *SPELLINGS])},{rng.choice(['0', *SPELLINGS])}"})
    return points


# grids whose radii e^s, N = 4 weights r^2 or squared top frequency (pi/ds)^2 leave the float range
_PAST_THE_FLOAT_RANGE = ["-1000,1000,256", "1e-320,2e-320,8", "0,1e-300,8", "-400,400,2048"]

SPELLED = {
    **{f"{route}-point-{i}": [*argv, *(f"{opt}={value}" for opt, value in point.items())]
       for route, argv in KERNEL_ROUTES.items() for i, point in enumerate(_spelled_points())},
    **{f"dim-{dim!r}{'-closed-form' * closed}": ["kernel", f"--dim={dim}", "--z=0.5,0", "--r=1", "--rp=1",
                                                  "--t=0.5", *["--closed-form"] * closed]
       for dim in ["2.5", "1e3", "nan", "0", "-1", "1", "344", "1000", "99999999999999999999", _BIG, "",
                   " 3", "0x3", "3_0"] for closed in (0, 1)},
    **{f"tol-{tol!r}": ["kernel", "--dim=3", "--z=0.5,0", "--r=1", "--rp=1", "--t=0.5", f"--tol={tol}"]
       for tol in ["0", "1", "nan", "-1", "inf", "5e-324", "1e308", ""]},
    # verify --grid: each is refused before a suite runs, but the last, which runs every suite on -8,8,256
    **{f"grid-{grid!r}": ["verify", f"--grid={grid}", "--format=csv"]
       for grid in ["8,-8,256", "-8,8,255", "-8,8,4", "-8,8,0", "-8,8,-256", "-8,8,2.5e2", "-8,8,0x100",
                    "-8,8,1_024", "-8,8,", "-8,8,256,1", "-8,8", "nan,8,256", "-inf,8,256", "-2e308,8,256",
                    "0x1,8,256", "-1e308,1e308,256", "5e-324,1e-323,8", *_PAST_THE_FLOAT_RANGE, "-8,8," + _BIG,
                    " -8, 8, +256"]},
}


@pytest.mark.parametrize("name", list(SPELLED))
def test_a_hostile_spelling_gets_a_clean_answer_or_one_error_line(monkeypatch, capsys, name):
    monkeypatch.delenv("CONFORMAL_HEAT_TOL", raising=False)
    code, out, err = spelled = _run(monkeypatch, capsys, SPELLED[name], SERIAL)
    assert code in (0, 2, 3), spelled
    if code:
        lines = err.splitlines()
        assert out == "" and lines[-1].startswith("error: "), spelled
        assert not any(line.startswith(("error: ", "Traceback")) for line in lines[:-1]), spelled
    else:
        assert err == "" and (_finite(out) if out.startswith(("r,", "{")) else _verified(out)), spelled


def _kernel_value(out: str) -> complex:
    """The kernel value of a one-point table, printed as CSV or JSON."""
    if out.startswith("{"):
        row = json.loads(out)["rows"][0]
        return complex(row["re_k"], row["im_k"])
    re_k, im_k = out.splitlines()[1].split(",")[3:]
    return complex(float(re_k), float(im_k))


@pytest.mark.parametrize("r", ["1e-154", "1.2e-154", "3e-162", "5e-324"])
@pytest.mark.parametrize("route", list(KERNEL_ROUTES))
def test_radii_at_the_edge_of_the_normal_range_scale_or_get_one_error_line(monkeypatch, capsys, route, r):
    # r r' is subnormal or 0; at r = r', K(r, r) = r^-(N-2) K(1, 1), or the point is refused
    monkeypatch.delenv("CONFORMAL_HEAT_TOL", raising=False)
    argv = [*KERNEL_ROUTES[route], "--z=0.5,0", "--t=0.5"]
    code, out, err = _run(monkeypatch, capsys, [*argv, "--r=1", "--rp=1"], SERIAL)
    assert (code, err) == (0, "")
    one = _kernel_value(out)
    code, out, err = edge = _run(monkeypatch, capsys, [*argv, f"--r={r}", f"--rp={r}"], SERIAL)
    if code:
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, edge
    else:
        dim = int(KERNEL_ROUTES[route][1].removeprefix("--dim="))
        scaled = float(r) ** -(dim - 2) * one
        assert err == "" and abs(_kernel_value(out) - scaled) <= 1e-15 * abs(scaled), edge


@pytest.mark.parametrize("grid", _PAST_THE_FLOAT_RANGE)
def test_a_grid_past_the_float_range_is_refused_with_one_line_and_no_warning(capsys, grid):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["verify", f"--grid={grid}"])
    out, err = capsys.readouterr()
    assert (code, out, seen) == (2, "", []) and err.startswith("error: ") and err.count("\n") == 1


def _verified(out: str) -> bool:
    """Whether a verify report in CSV passed every check, each with a finite defect."""
    rows = out.splitlines()[1:]
    return bool(rows) and all(math.isfinite(float(row.split(",")[-3])) and row.endswith(",1") for row in rows)
