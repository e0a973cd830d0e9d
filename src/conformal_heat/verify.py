"""Self-check suites: each returns a list of named defect measurements.

The suites exercise the library along independent routes (exact monomial
algebra, kernel quadrature, spectral multipliers, closed forms) and report
the worst defect per check against its pinned tolerance.  They are shared
between the command line verifier and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import radial_kernel, closed_form, full_kernel_series, apply_radial_kernel
from .ladder import (
    LadderOperatorSpec,
    commutator_defect,
    degeneration_trace,
    rescaled_pair,
    standard_basis,
)
from .log_radial import LogRadialGrid, RadialSamples, fourier_inverse, u_inverse, weighted_norm
from .spectral_calculus import G0Exponent, apply_exp_g0, apply_scaling_direct
from .spherical import FactoredField, projection_kernel
from .special_functions import theta, theta_dv


@dataclass
class CheckResult:
    suite: str
    name: str
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect < self.tol


GridShape = tuple[float, float, int]
_DEFAULT_SHAPE: GridShape = (-16.0, 16.0, 2048)


def _degrees(dim: int, higher: tuple[int, ...]) -> tuple[int, ...]:
    """The degrees a sweep visits in dimension dim, given its set for N >= 2.

    The two-point sphere of N = 1 carries only the parities 0 and 1.
    """
    return (0, 1) if dim == 1 else higher


_SL2_A = (0.5, 1.0, 2.0, 3.0)
# the (dim, m) sectors of the bracket suites, dims outer
_SL2_SECTORS = tuple((dim, m) for dim in (1, 2, 3, 4) for m in _degrees(dim, (0, 1, 2, 3)))
_SL2_PAIRS = (("H", "E+"), ("H", "E-"), ("E+", "E-"))


def _limit_defect(k1: str, k2: str, basis) -> float:
    """Worst defect of [k1, k2] = 0 in the commuting limit family, over the sectors."""
    return max(commutator_defect(LadderOperatorSpec(k1, None, m, dim), LadderOperatorSpec(k2, None, m, dim),
                                 None, basis) for dim, m in _SL2_SECTORS)


def _stacked(degrees, profile: RadialSamples) -> FactoredField:
    """One sector per degree, each carrying the same radial profile."""
    rows = np.tile(profile.values, (len(degrees), 1))
    return FactoredField(np.array(degrees), RadialSamples(profile.grid, rows))


def _gaussian_samples(grid: LogRadialGrid, center: float = 0.3, width: float = 1.0) -> np.ndarray:
    return np.exp(-((grid.s - center) ** 2) / (2.0 * width**2))


def _row_norm(grid: LogRadialGrid, row: np.ndarray) -> float:
    return weighted_norm(RadialSamples(grid, row))


def _rel_error(grid: LogRadialGrid, got: np.ndarray, want: np.ndarray) -> float:
    """Weighted-norm error of the row got against the row want, relative to want."""
    diff = _row_norm(grid, got - want)
    scale = _row_norm(grid, want)
    return diff / scale if scale > 0 else diff


def suite_sl2() -> list[CheckResult]:
    """Nine commutator checks on the 18-point exponent basis.

    Three triple relations at a != 0, the same three after contraction
    scaling, and the three pairwise brackets of the commuting limit family.
    """
    basis = standard_basis()
    out: list[CheckResult] = []

    def sweep(make_defect) -> float:
        return max(make_defect(a, m, dim) for a in _SL2_A for dim, m in _SL2_SECTORS)

    def spec(kind, a, m, dim):
        return LadderOperatorSpec(kind, a, m, dim)

    relations = [
        ("[H, E+] = 2 E+", lambda a, m, n: commutator_defect(
            spec("H", a, m, n), spec("E+", a, m, n), [(2.0, spec("E+", a, m, n))], basis)),
        ("[H, E-] = -2 E-", lambda a, m, n: commutator_defect(
            spec("H", a, m, n), spec("E-", a, m, n), [(-2.0, spec("E-", a, m, n))], basis)),
        ("[E+, E-] = H", lambda a, m, n: commutator_defect(
            spec("E+", a, m, n), spec("E-", a, m, n), spec("H", a, m, n), basis)),
    ]
    for name, fn in relations:
        out.append(CheckResult("sl2", name, sweep(fn), 1e-12))

    def resc_defect(k1, k2, rhs_factor_kind, a, m, n):
        x = rescaled_pair(k1, a, m, n)
        y = rescaled_pair(k2, a, m, n)
        factor, kind = rhs_factor_kind
        expected = [(factor * a * c, s) for c, s in rescaled_pair(kind, a, m, n)]
        return commutator_defect(x, y, expected, basis)

    out.append(CheckResult("sl2", "[aH, aE+] = 2a aE+", sweep(
        lambda a, m, n: resc_defect("H", "E+", (2.0, "E+"), a, m, n)), 1e-12))
    out.append(CheckResult("sl2", "[aH, aE-] = -2a aE-", sweep(
        lambda a, m, n: resc_defect("H", "E-", (-2.0, "E-"), a, m, n)), 1e-12))
    out.append(CheckResult("sl2", "[aE+, aE-] = a aH", sweep(
        lambda a, m, n: resc_defect("E+", "E-", (1.0, "H"), a, m, n)), 1e-12))

    for k1, k2 in _SL2_PAIRS:
        out.append(CheckResult("sl2", f"limit [{k1}, {k2}] = 0", _limit_defect(k1, k2, basis), 1e-12))
    return out


def suite_degeneration() -> list[CheckResult]:
    """Rescaled brackets contract linearly in a; the limit family commutes."""
    basis = standard_basis()
    a_seq = (1e-1, 1e-2, 1e-3)
    out: list[CheckResult] = []
    for pair in _SL2_PAIRS:
        worst_ratio_err = 0.0
        for dim, m in _SL2_SECTORS:
            defects = degeneration_trace(a_seq, pair, basis, m, dim)
            for d0, d1 in zip(defects, defects[1:]):
                ratio = d0 / d1 if d1 > 0 else math.inf
                worst_ratio_err = max(worst_ratio_err, abs(ratio - 10.0))
        out.append(
            CheckResult("degeneration", f"[a{pair[0]}, a{pair[1]}] defect ratio ~ 10",
                        worst_ratio_err, 0.5)
        )
    worst = max(_limit_defect(k1, k2, basis) for k1, k2 in _SL2_PAIRS)
    out.append(CheckResult("degeneration", "limit family commutes", worst, 1e-12))
    return out


# the (N, z) cases of the spectral suite, one check each, in report order
SPECTRAL_CASES = tuple((dim, z) for dim in (2, 3, 4) for z in (0.5 + 0.0j, 0.3 + 0.4j))


def suite_spectral(shape: GridShape = _DEFAULT_SHAPE, cases=SPECTRAL_CASES) -> list[CheckResult]:
    """Spectral multiplier route against direct kernel quadrature, one check per (N, z) case.

    The test Gaussian is at most 1/32 of the grid wide: width 1 on the
    default grid, 0.5 on -8,8.  At width 1 the evolved profile's tail
    reaches the ends of a narrow grid, and the periodic spectral route
    wraps it around (9.3e-8 against the 1e-8 gate on -8,8,256).  A case's
    check does not depend on the other cases, so the checks of a part of
    SPECTRAL_CASES are those of the whole suite at its cases.
    """
    s_min, s_max, n = shape
    width = min(1.0, (s_max - s_min) / 32)
    out: list[CheckResult] = []
    for dim, z in cases:
        grid = LogRadialGrid(dim, s_min, s_max, n)
        base = u_inverse(grid, _gaussian_samples(grid, width=width))
        quadratures = apply_radial_kernel(base, range(5), z)
        spectral = apply_exp_g0(G0Exponent(z3=z), _stacked(range(5), base)).radial.values
        worst = 0.0
        for row, quadrature in zip(spectral, quadratures):
            worst = max(worst, _rel_error(grid, row, quadrature.values))
        out.append(
            CheckResult("spectral", f"N={dim}, z={z}: multiplier vs quadrature, m<=4",
                        worst, 1e-8)
        )
    return out


_FORM_RADII = (0.6, 1.0, 1.9)
_FORM_RADII_P = (0.45, 1.1, 2.3)
_FORM_TIMES = (0.4 + 0.0j, 0.5 + 0.4j, 0.7 - 0.3j)


def _rel(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


# (dim, cos angles t, tol of the check)
_FORM_CASES = (
    (1, (-1.0, 1.0), 1e-14),
    (2, (-0.7, 0.2, 0.85), 1e-9),
    (4, (-0.7, 0.2, 0.85), 1e-8),
)


def suite_theta_forms() -> list[CheckResult]:
    """Closed theta forms against the truncated Gegenbauer series.

    Each closed form is one array call per (N, z) over every (r, r', t).
    """
    out: list[CheckResult] = []
    for dim, cos_angles, tol in _FORM_CASES:
        points = [(r, rp, t) for r in _FORM_RADII for rp in _FORM_RADII_P for t in cos_angles]
        r, rp, t = np.array(points).T
        worst = 0.0
        for z in _FORM_TIMES:
            for (a, b, c), closed in zip(points, closed_form(dim, r, rp, t, z).tolist()):
                series = full_kernel_series(dim, a, b, c, z, 1e-15)
                worst = max(worst, _rel(series, closed))
        out.append(CheckResult("theta", f"N={dim} closed form vs series", worst, tol))
    return out


def _random_band_limited(grid: LogRadialGrid, rng: np.random.Generator, rows: int) -> RadialSamples:
    """rows random profiles with spectra in the central quarter band, drawn one after another."""
    n = grid.n
    spec = np.zeros((rows, n), dtype=complex)
    band = slice(n // 2 - n // 8, n // 2 + n // 8)
    width = band.stop - band.start
    for row in spec:
        row[band] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    g = fourier_inverse(grid, spec)
    return u_inverse(grid, g)


def suite_unitarity(shape: GridShape = _DEFAULT_SHAPE) -> list[CheckResult]:
    """Purely imaginary exponents preserve the weighted norm of every sector.

    Each dimension carries all of its degrees in one field, so each
    exponent is one batched transform pair per dimension.
    """
    s_min, s_max, n = shape
    rng = np.random.default_rng(20260817)
    out: list[CheckResult] = []
    for z3 in (0.7j, -1.3j):
        exponent = G0Exponent(z1=0.4j, z3=z3)
        worst = 0.0
        for dim in (1, 2, 3, 4):
            grid = LogRadialGrid(dim, s_min, s_max, n)
            degrees = _degrees(dim, (0, 2))
            field = FactoredField(np.array(degrees), _random_band_limited(grid, rng, len(degrees)))
            after = apply_exp_g0(exponent, field).radial.values
            for row, moved in zip(field.radial.values, after):
                before = _row_norm(grid, row)
                worst = max(worst, abs(_row_norm(grid, moved) - before) / before)
        out.append(
            CheckResult("unitarity", f"norm preserved, z1=0.4i, z3={z3}", worst, 1e-12)
        )
    return out


def suite_scaling(shape: GridShape = _DEFAULT_SHAPE) -> list[CheckResult]:
    """Spectral dilation (z1 = i t) against the direct index-shift route.

    The dilations move log-radius by 0.5 and -1.5, rounded to whole
    samples of the grid (32 and -96 on the default grid), so the test
    Gaussian stays clear of the grid ends on coarser grids too.
    """
    s_min, s_max, n = shape
    grids = [LogRadialGrid(dim, s_min, s_max, n) for dim in (1, 2, 3, 4)]
    out: list[CheckResult] = []
    for shift in (0.5, -1.5):
        steps = round(shift / grids[0].ds)
        worst = 0.0
        for grid in grids:
            t = 0.5 * steps * grid.ds
            profile = u_inverse(grid, _gaussian_samples(grid, center=-0.4, width=0.8))
            field = _stacked(_degrees(grid.dim, (0, 1, 2)), profile)
            spectral = apply_exp_g0(G0Exponent(z1=1j * t), field).radial.values
            direct = apply_scaling_direct(t, field).radial.values
            for got, want in zip(spectral, direct):
                worst = max(worst, _rel_error(grid, got, want))
        out.append(CheckResult("scaling", f"shift by {steps} samples", worst, 1e-10))
    return out


def suite_semigroup(shape: GridShape = _DEFAULT_SHAPE) -> list[CheckResult]:
    """K(z1) composed with K(z2) under quadrature equals K(z1 + z2)."""
    s_min, s_max, n = shape
    z1, z2 = 0.3, 0.5
    out: list[CheckResult] = []
    for dim, m in ((1, 0), (2, 0), (2, 3), (3, 1), (4, 2)):
        grid = LogRadialGrid(dim, s_min, s_max, n)
        rho = grid.r
        w = rho ** (dim - 2) * grid.ds
        worst = 0.0
        for r in (0.7, 1.3):
            for rp in (0.9, 2.0):
                left = radial_kernel(m, dim, r, rho, z1)
                right = radial_kernel(m, dim, rho, rp, z2)
                composed = complex(np.sum(left * right * w))
                direct = radial_kernel(m, dim, r, rp, z1 + z2)
                worst = max(worst, abs(composed - direct) / abs(direct))
        out.append(CheckResult("semigroup", f"N={dim}, m={m}", worst, 1e-6))
    return out


_THETA_AT_I = 1.086434811213308  # independent direct summation, frozen


def suite_special() -> list[CheckResult]:
    """Theta value and derivative spot checks."""
    out: list[CheckResult] = []
    val = theta(0.0, 1j, 1e-15)
    out.append(CheckResult("special", "theta(0, i)", abs(val - _THETA_AT_I), 1e-12))

    worst = 0.0
    h = 1e-5
    for v, tau in ((0.2, 0.5j), (0.4, 0.8j), (-0.15, 0.35j)):
        d = theta_dv(v, tau, 1e-15)
        fd = (theta(v + h, tau, 1e-15) - theta(v - h, tau, 1e-15)) / (2 * h)
        worst = max(worst, abs(d - fd) / abs(d))
    out.append(CheckResult("special", "theta_dv vs centered differences", worst, 1e-6))
    return out


def suite_projection(n_phi: int = 256, max_degree: int = 20) -> list[CheckResult]:
    """Projection quadrature on the circle: idempotent, mutually orthogonal."""
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    dphi = 2.0 * math.pi / n_phi
    row_cos = np.cos(phi)  # cos of angular separation from 0
    idx = (np.arange(n_phi)[:, None] - np.arange(n_phi)[None, :]) % n_phi
    ks = range(-max_degree, max_degree + 1)
    modes = np.array([np.exp(1j * k * phi) for k in ks])

    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(2 * max_degree + 1) + 1j * rng.standard_normal(2 * max_degree + 1)
    p = np.zeros(n_phi, dtype=complex)
    for c, mode in zip(coeffs, modes):
        p += c * mode

    worst_idem = 0.0
    worst_orth = 0.0
    for m in range(max_degree + 1):
        # complex up front: each product with complex data would convert it again
        proj = (projection_kernel(m, 2, row_cos) * dphi).astype(complex)[idx]
        pm = proj @ p
        worst_idem = max(worst_idem, float(np.max(np.abs(proj @ pm - pm))))
        # one product with every other mode as a column
        killed = proj @ modes[np.abs(ks) != m].T
        worst_orth = max(worst_orth, float(np.max(np.abs(killed))))
    return [
        CheckResult("projection", "idempotence on band-limited data", worst_idem, 1e-10),
        CheckResult("projection", "kills other modes", worst_orth, 1e-10),
    ]


SUITES = {
    "sl2": suite_sl2,
    "degeneration": suite_degeneration,
    "spectral": suite_spectral,
    "theta": suite_theta_forms,
    "unitarity": suite_unitarity,
    "scaling": suite_scaling,
    "semigroup": suite_semigroup,
    "special": suite_special,
    "projection": suite_projection,
}

_GRID_AWARE = {"spectral", "unitarity", "scaling", "semigroup"}


def check_shape(shape: GridShape) -> None:
    """Refuse a grid shape on which some suite cannot build its grids: N = 4 has the largest weights r^(N-2)."""
    LogRadialGrid(4, *shape)


def run_suites(names=None, shape: GridShape = _DEFAULT_SHAPE) -> list[CheckResult]:
    """Run the named suites (default: all) in order, on grids of the given shape.

    The shape and every name are checked once, before any suite runs,
    whether or not the chosen suites build a grid.
    """
    check_shape(shape)
    names = list(SUITES) if names is None else list(names)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    results: list[CheckResult] = []
    for name in names:
        fn = SUITES[name]
        results.extend(fn(shape) if name in _GRID_AWARE else fn())
    return results


# A split verify cuts a full run's report once, after spectral's first CUT_CASES cases; a forked child makes the
# checks before the cut.  In-process on the default grid (2-CPU VM, medians of 7): sl2 14.1 ms, degeneration 5.1,
# each spectral case 27-30 (a 2048^2 build and its einsum product, no BLAS), theta 3.1, unitarity 5.5, scaling
# 5.2, semigroup 2.9, special 0.8, projection 11.8; projection multiplies through BLAS, which the child must not
# call.  Cut after 2, 3 and 4 cases, a split verify took 148-150, 127-130 and 163-166 ms (medians of 12).
CUT_CASES = 3
_SPECTRAL_AT = list(SUITES).index("spectral")


def checks_before_cut(shape: GridShape) -> list[CheckResult]:
    """A full run's first checks: the suites before spectral, then spectral's first CUT_CASES cases."""
    return run_suites(list(SUITES)[:_SPECTRAL_AT], shape) + SUITES["spectral"](shape, SPECTRAL_CASES[:CUT_CASES])


def checks_after_cut(shape: GridShape) -> list[CheckResult]:
    """A full run's other checks: checks_before_cut(shape) + checks_after_cut(shape) == run_suites(None, shape)."""
    return SUITES["spectral"](shape, SPECTRAL_CASES[CUT_CASES:]) + run_suites(list(SUITES)[_SPECTRAL_AT + 1:], shape)
