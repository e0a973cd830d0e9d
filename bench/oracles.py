"""Independent checks of the CLI outputs, written with numpy alone.

Nothing here calls conformal_heat.  Each check returns a list of problems;
an empty list means the output is right.

* kernel tables: every row against the Gegenbauer sum at a fixed high
  degree, with the zonal and Gaussian prefactors written out again:
  C~_m is (2m+1) P_m for N = 3, 2 cos(m a) (1 at m = 0) for N = 2 and
  (m+1) U_m for N = 4.  The allowance is tied to the --tol the table was
  made with.
* field transforms: an angular FFT plus the log-radial multiplier
  exp(2 z1 sigma + z2 - z3 (sigma^2 + (m + nu)^2)) applied by plain FFTs,
  and np.roll times e^{(N-2) t} for the dilation.
* verify: the JSON report must pass and hold every check.
"""

from __future__ import annotations

import json
import math

import numpy as np

REF_DEGREE = 200       # exp(-Re z m^2) at m = 200 is far below double precision here
FFT_REL_TOL = 1e-10    # roundoff of the U weights e^{+-8} and FFTs stays below 1e-12
SHIFT_REL_TOL = 1e-15  # the dilation is a copy times one factor


def _data(path: str, columns: int) -> np.ndarray:
    """Numeric rows of a CSV file after its '#' lines and column-name row."""
    with open(path) as fp:
        skip = 1
        while fp.readline().startswith("#"):
            skip += 1
    rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"{path}: expected {columns} columns, got {rows.shape[1]}")
    return rows


def zonal_sum(dim: int, z: complex, t: np.ndarray, degree: int = REF_DEGREE):
    """sum_m exp(-z (m+nu)^2) C~_m(t) and sum_m |same terms|, m <= degree."""
    nu = 0.5 * (dim - 2)
    total = np.zeros(t.shape, dtype=complex)
    size = np.zeros(t.shape)
    if dim == 3:
        prev, cur = np.ones_like(t), t.copy()            # Legendre P_0, P_1
        for m in range(degree + 1):
            if m >= 2:
                prev, cur = cur, ((2 * m - 1) * t * cur - (m - 1) * prev) / m
            p = prev if m == 0 else cur
            term = np.exp(-z * (m + nu) ** 2) * (2 * m + 1) * p
            total += term
            size += np.abs(term)
        return total, size
    a = np.arccos(t)
    for m in range(degree + 1):
        if dim == 2:
            zonal = np.ones_like(t) if m == 0 else 2.0 * np.cos(m * a)
        elif dim == 4:
            zonal = (m + 1) * np.sin((m + 1) * a) / np.sin(a)
        else:
            raise ValueError(f"no reference for N = {dim}")
        term = np.exp(-z * (m + nu) ** 2) * zonal
        total += term
        size += np.abs(term)
    return total, size


def kernel_reference(dim: int, z: complex, pts: np.ndarray):
    """Reference kernel values and the allowed error for --tol = 1."""
    r, rp, t = pts[:, 0], pts[:, 1], pts[:, 2]
    dlog = np.log(r) - np.log(rp)
    sqrt_z = complex(np.sqrt(complex(z)))
    gauss = np.exp(-dlog * dlog / (4.0 * z)) / (2.0 * math.sqrt(math.pi) * sqrt_z) \
        * (r * rp) ** (-0.5 * (dim - 2))
    pref = math.gamma(0.5 * dim) / (2.0 * math.pi ** (0.5 * dim))
    total, size = zonal_sum(dim, z, t)
    scale = pref * np.abs(gauss)
    # truncation of the series, or of theta / theta_dv (divided by sin a for N = 4)
    per_tol = 4.0 * scale * (1.0 + 1.0 / np.sqrt(1.0 - t * t))
    roundoff = 256 * np.finfo(float).eps * scale * size
    return pref * gauss * total, per_tol, roundoff


def check_kernel(path: str, check: dict) -> list[str]:
    pts = _data(check["points"], 3)
    out = _data(path, 5)
    if out.shape[0] != pts.shape[0]:
        return [f"{path}: {out.shape[0]} rows for {pts.shape[0]} points"]
    problems = []
    if not np.array_equal(out[:, :3], pts):
        problems.append(f"{path}: point columns differ from the input")
    z = complex(*check["z"])
    want, per_tol, roundoff = kernel_reference(check["dim"], z, pts)
    got = out[:, 3] + 1j * out[:, 4]
    err = np.abs(got - want)
    bad = ~(err <= check["tol"] * per_tol + roundoff)
    if bad.any():
        i = int(np.argmax(np.where(bad, err / (check["tol"] * per_tol + roundoff), 0.0)))
        problems.append(f"{path}: {int(bad.sum())} rows off the reference, worst row {i}: "
                        f"got {got[i]!r}, want {want[i]!r}")
    return problems


def _read_field(path: str):
    with open(path) as fp:
        header = fp.readline()
    if not header.startswith("# geometry: "):
        raise ValueError(f"{path}: no geometry header")
    geo = json.loads(header[len("# geometry: "):])
    rows = _data(path, 4)
    keys = rows[:, 0].astype(int)
    order = np.unique(keys)
    n = int(geo["n"])
    if rows.shape[0] != order.size * n or not np.array_equal(rows[:, 1], np.tile(np.arange(n), order.size)):
        raise ValueError(f"{path}: rows are not complete sectors in s order")
    if not np.array_equal(keys, np.repeat(order, n)):
        raise ValueError(f"{path}: sector rows are not grouped in order")
    return geo, order, (rows[:, 2] + 1j * rows[:, 3]).reshape(order.size, n)


def _exponent(text: str):
    v = [float(p) for p in text.split(",")]
    return complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])


def apply_reference(geo: dict, keys: np.ndarray, values: np.ndarray, check: dict) -> np.ndarray:
    dim = int(geo["dim"])
    n = int(geo["n"])
    ds = (float(geo["s_max"]) - float(geo["s_min"])) / n
    if "t" in check:
        t = float(check["t"])
        steps = int(round(2.0 * t / ds))
        return np.exp((dim - 2) * t) * np.roll(values, -steps, axis=1)
    z1, z2, z3 = _exponent(check["exponent"])
    s = float(geo["s_min"]) + ds * np.arange(n)
    sigma = 2.0 * math.pi * np.fft.fftfreq(n, d=ds)
    nu = 0.5 * (dim - 2)
    if geo["kind"] == "grid2d":
        n_phi = values.shape[0]
        coeffs = np.fft.fft(values, axis=0) / n_phi
        degree = np.abs(np.fft.fftfreq(n_phi, d=1.0 / n_phi))
    else:
        coeffs = values
        degree = keys.astype(float)
    weight = np.exp(nu * s)
    mult = np.exp(2.0 * z1 * sigma[None, :] + z2 - z3 * (sigma[None, :] ** 2 + (degree[:, None] + nu) ** 2))
    out = np.fft.ifft(mult * np.fft.fft(coeffs * weight, axis=1), axis=1) / weight
    if geo["kind"] == "grid2d":
        out = np.fft.ifft(out, axis=0) * n_phi
    return out


def check_apply(path: str, check: dict) -> list[str]:
    geo_in, keys_in, values_in = _read_field(check["input"])
    geo, keys, values = _read_field(path)
    if geo != geo_in or not np.array_equal(keys, keys_in):
        return [f"{path}: geometry or sectors differ from the input"]
    want = apply_reference(geo_in, keys_in, values_in, check)
    if "t" in check:
        bad = np.abs(values - want) > SHIFT_REL_TOL * np.abs(want)
    else:
        bad = np.abs(values - want) > FFT_REL_TOL * np.max(np.abs(want))
    if bad.any():
        a, j = np.argwhere(bad)[0]
        return [f"{path}: {int(bad.sum())} samples off the reference, first ({a}, {j}): "
                f"got {values[a, j]!r}, want {want[a, j]!r}"]
    return []


def check_verify(path: str, check: dict) -> list[str]:
    with open(path) as fp:
        report = json.load(fp)
    checks = [c for suite in report.get("suites", {}).values() for c in suite.get("checks", [])]
    problems = []
    if report.get("passed") is not True:
        problems.append(f"{path}: verify did not pass")
    if len(checks) != check["checks"]:
        problems.append(f"{path}: {len(checks)} checks, expected {check['checks']}")
    failing = [c["name"] for c in checks if not (c.get("passed") is True and c["defect"] < c["tol"])]
    if failing:
        problems.append(f"{path}: failing checks {failing}")
    return problems


CHECKS = {"kernel": check_kernel, "apply": check_apply, "verify": check_verify}


def check_leg(leg: dict) -> list[str]:
    """Problems with the output file of one leg, or an empty list."""
    try:
        return CHECKS[leg["check"]["kind"]](leg["out"], leg["check"])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"{leg['out']}: unreadable output: {exc!r}"]
