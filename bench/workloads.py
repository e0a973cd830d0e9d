"""Seeded inputs and invocation plans for the three benchmark workloads.

Each workload is a list of legs; a leg is one `conformal-heat` command
line.  The inputs are generated here from the benchmark seed and written
as ordinary CSV files, so the program only ever sees the files.  Sizes
live in `Sizes` so the benchmark's own tests can run the same plans small.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

WHY = {
    "kernel-table": "kernel tables over seeded point files: scalar series and theta loops in "
                    "kernels/special_functions, one small-Re-z leg; no log-radial work",
    "apply-field": "apply on a 256x2048 grid field and a 64-sector factored field: CSV read/write "
                   "dominates, then sector FFTs and multipliers; one leg is a pure dilation",
    "verify-full": "all nine verify suites on the 2048 grid: dense quadrature matrix builds, "
                   "ladder commutators and projection loops; no file input",
}
WORKLOADS = tuple(WHY)

S_MIN, S_MAX = -16.0, 16.0
DILATION_STEPS = 30  # 2t / ds; t = 0.234375 on the 2048 grid
EXP_REAL_Z3 = "0,0.3,0,0,0.5,0"
EXP_COMPLEX_Z3 = "0,0.3,0,0,0.5,0.2"


@dataclass(frozen=True)
class Sizes:
    points_large: int = 20_000
    points_small_z: int = 6_000
    grid_n: int = 2048
    n_phi: int = 256
    grid_modes: int = 48      # angular modes |k| <= grid_modes are populated
    sectors: int = 64
    verify_n: int = 2048


FULL = Sizes()

# (dim, z, closed_form, size field) per kernel-table leg
KERNEL_LEGS = (
    (3, 0.5 + 0.0j, False, "points_large"),
    (3, 0.05 + 0.1j, False, "points_small_z"),
    (2, 0.5 + 0.2j, True, "points_large"),
    (4, 0.4 + 0.2j, True, "points_large"),
)
KERNEL_TOL = 1e-10


def _fmt(x: float) -> str:
    return "{:.17g}".format(x)


def _write_text(path: str, lines) -> int:
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")
    return os.path.getsize(path)


def make_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """(r, r', t): radii log-uniform in [0.3, 3], t uniform in [-0.95, 0.95]."""
    log_r = rng.uniform(math.log(0.3), math.log(3.0), size=(count, 2))
    t = rng.uniform(-0.95, 0.95, size=count)
    return np.column_stack([np.exp(log_r), t])


def write_points(path: str, pts: np.ndarray) -> int:
    rows = ["r,r_prime,t"]
    rows += [f"{_fmt(r)},{_fmt(rp)},{_fmt(t)}" for r, rp, t in pts.tolist()]
    return _write_text(path, rows)


def _gaussians(rng: np.random.Generator, s: np.ndarray, count: int) -> np.ndarray:
    # Centres within 1 and widths at most 0.9 of s = 0: after the heat
    # multiplier the profiles still sit far inside the central half.
    centre = rng.uniform(-1.0, 1.0, size=count)
    width = rng.uniform(0.4, 0.9, size=count)
    return np.exp(-((s[None, :] - centre[:, None]) ** 2) / (2.0 * width[:, None] ** 2))


def _coefficients(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def s_grid(n: int) -> np.ndarray:
    ds = (S_MAX - S_MIN) / n
    return S_MIN + ds * np.arange(n)


def make_grid_field(rng: np.random.Generator, sizes: Sizes) -> np.ndarray:
    """N = 2 grid samples values[a, j] = sum_k c_k e^{i k phi_a} G_k(s_j)."""
    modes = np.arange(-sizes.grid_modes, sizes.grid_modes + 1)
    profiles = _coefficients(rng, modes.size)[:, None] * _gaussians(rng, s_grid(sizes.grid_n), modes.size)
    phi = 2.0 * math.pi * np.arange(sizes.n_phi) / sizes.n_phi
    return np.exp(1j * phi[:, None] * modes[None, :]) @ profiles


def make_factored_field(rng: np.random.Generator, sizes: Sizes) -> np.ndarray:
    """N = 3 radial profiles, one row per degree 0 .. sectors - 1."""
    return _coefficients(rng, sizes.sectors)[:, None] * _gaussians(rng, s_grid(sizes.grid_n), sizes.sectors)


def geometry(kind: str, dim: int, n: int, **extra) -> dict:
    return {"kind": kind, "dim": dim, "s_min": S_MIN, "s_max": S_MAX, "n": n, **extra}


def write_field(path: str, geo: dict, columns: str, values: np.ndarray) -> int:
    rows = ["# geometry: " + json.dumps(geo, sort_keys=True), columns]
    for a, row in enumerate(values.tolist()):
        rows += [f"{a},{j},{_fmt(v.real)},{_fmt(v.imag)}" for j, v in enumerate(row)]
    return _write_text(path, rows)


def build(name: str, seed: int, workdir: str, sizes: Sizes = FULL) -> dict:
    """Write the inputs of one workload into workdir and return its plan.

    The plan holds the legs (argv and output path), the items one pass
    processes, and everything the oracles need to check the outputs.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    legs: list[dict] = []
    inputs: dict[str, int] = {}
    if name == "kernel-table":
        for i, (dim, z, closed, size_key) in enumerate(KERNEL_LEGS):
            pts = make_points(rng, getattr(sizes, size_key))
            path = os.path.join(workdir, f"points{i}.csv")
            inputs[path] = write_points(path, pts)
            out = os.path.join(workdir, f"kernel{i}.csv")
            argv = ["kernel", "--dim", str(dim), "--z", f"{_fmt(z.real)},{_fmt(z.imag)}",
                    "--tol", _fmt(KERNEL_TOL), "--in", path, "--out", out]
            if closed:
                argv.insert(5, "--closed-form")
            legs.append({"argv": argv, "out": out, "items": len(pts),
                         "check": {"kind": "kernel", "dim": dim, "z": [z.real, z.imag],
                                   "tol": KERNEL_TOL, "points": path}})
    elif name == "apply-field":
        grid_path = os.path.join(workdir, "grid2.csv")
        grid_vals = make_grid_field(rng, sizes)
        inputs[grid_path] = write_field(
            grid_path, geometry("grid2d", 2, sizes.grid_n, n_phi=sizes.n_phi),
            "angle_index,s_index,re,im", grid_vals)
        fact_path = os.path.join(workdir, "factored3.csv")
        inputs[fact_path] = write_field(
            fact_path, geometry("factored", 3, sizes.grid_n), "m,s_index,re,im",
            make_factored_field(rng, sizes))
        for i, (dim, path, flag, value) in enumerate((
            (2, grid_path, "--exponent", EXP_REAL_Z3),
            (3, fact_path, "--t", _fmt(0.5 * DILATION_STEPS * (S_MAX - S_MIN) / sizes.grid_n)),
            (3, fact_path, "--exponent", EXP_COMPLEX_Z3),
        )):
            out = os.path.join(workdir, f"applied{i}.csv")
            samples = sizes.n_phi * sizes.grid_n if dim == 2 else sizes.sectors * sizes.grid_n
            legs.append({"argv": ["apply", "--dim", str(dim), flag, value, "--in", path, "--out", out],
                         "out": out, "items": 2 * samples,
                         "check": {"kind": "apply", "dim": dim, "input": path, flag.lstrip("-"): value}})
    else:
        out = os.path.join(workdir, "verify.json")
        argv = ["verify", "--format", "json", "--out", out]
        if sizes.verify_n != FULL.verify_n:
            argv.insert(1, f"--grid={S_MIN},{S_MAX},{sizes.verify_n}")  # "=": the list starts with "-"
        legs.append({"argv": argv, "out": out, "items": 35, "check": {"kind": "verify", "checks": 35}})
    return {
        "workload": name,
        "seed": seed,
        "why": WHY[name],
        "sizes": asdict(sizes),
        "legs": legs,
        "items_per_pass": sum(leg["items"] for leg in legs),
        "input_bytes": {os.path.basename(p): b for p, b in inputs.items()},
    }
