"""Command line front end: kernel tables, field transforms, self-checks.

    conformal-heat kernel --dim 2 --z 0.5,0 --in points.csv
    conformal-heat apply  --exponent 0,0,0,0,0.5,0 --in field.csv --out out.csv
    conformal-heat verify --suite sl2 --format json

Each verb parses only the options it reads (`conformal-heat VERB --help`
lists them); kernel takes its points from --in or from --r, --rp and --t,
not both, and apply --dim must equal the dim of the field file.  Each
cmd_* function reads its own argparse namespace and hands plain values
to the library, checking --dim, then --tol, then the verb's own values,
then the input file; the first bad one decides the message and exit code.

Exit codes:

    0    success
    1    failed verification (verify only)
    2    invalid mathematical regime or domain, values out of the float
         range included: a kernel point whose (r r')^{-(N-2)/2} is 0 or
         not finite, an apply result with a non-finite sample, a verify
         grid whose radii, N = 4 weights or (pi/ds)^2 leave the range
    3    unreadable or malformed input (usage errors and non-finite
         numbers included)
    141  (128 + SIGPIPE), with no message: the reader of stdout closed it
         early, as `| head` does, also under python -u

Exits 2 and 3 print one "error: ..." line on stderr (after the usage, for
a usage error), and a refused run writes no output: --out is opened only
once the result is computed.

--out and stdout receive the same bytes: ASCII with LF line ends on
every platform.  Numeric output is deterministic: identical
configuration and input produce identical bytes, floats carry 17
significant digits.  For the verbs that take --tol, the
CONFORMAL_HEAT_TOL environment variable overrides the default series
tolerance of 1e-10; a tolerance must be finite and positive.

On two CPUs, large jobs are split between two processes (two_processes):
a forked child makes the first half of each while this process makes
the second, with the bytes, the first error and the exit code of the
serial run.  A kernel table of 4096 points or more (a points file of
4096 lines past its head) is split once, before it is read: the child
parses, evaluates and formats the first half of the points.  Any other
table, and one whose split fails, is made in one process by the same two
steps, evaluate then write.  Large field files are read and large apply
outputs written the same way.  A verify of every suite on a grid of
n >= 2048 (the default grid included) is split once, after the grid is
checked, at one cut of its report (verify.CUT_CASES): the child makes
the checks of sl2, degeneration and spectral's first three cases, whose
quadratures multiply through numpy's einsum, and this process the rest,
projection, the one suite that calls BLAS, included.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import stat
import sys
from contextlib import contextmanager

import numpy as np

from .errors import (
    ConformalHeatError,
    DomainError,
    FieldFormatError,
    GridAlignmentError,
    InvalidRegimeError,
)
from .fields_io import (
    float_row_lines,
    format_float,
    point_halves,
    read_field_file,
    read_points,
    write_factored,
    write_grid2d,
)
from .kernels import as_time, closed_form, full_kernel_series
from .spectral_calculus import G0Exponent, apply_exp_g0, apply_exp_g0_grid, apply_scaling_direct
from .spherical import GridField2D
from .two_processes import halves_in_two, verify_splits
from .verify import _DEFAULT_SHAPE, SUITES, CheckResult, check_shape, checks_after_cut, checks_before_cut, run_suites

_DEFAULT_TOL = 1e-10


def _numbers(what: str, text: str, count: int | None = None) -> list[float]:
    """The finite comma-separated numbers that option (or variable) `what` holds.

    With a count, text must hold exactly that many; without one, empty
    items are skipped.  Every error names `what` once.
    """
    parts = [p.strip() for p in text.split(",")]
    if count is None:
        parts = [p for p in parts if p]
    elif len(parts) != count:
        raise FieldFormatError(f"{what}: expected {count} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise FieldFormatError(f"{what}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise FieldFormatError(f"{what}: values must be finite, got {values}")
    return values


def _parse_grid(text: str) -> tuple[float, float, int]:
    """smin,smax,n with finite smin, smax and an integer n; nothing else."""
    parts = text.split(",")
    if len(parts) != 3 or not re.fullmatch(r"\s*[+-]?\d+\s*", parts[2]):
        raise FieldFormatError(f"--grid needs smin,smax,n with an integer n, got {text!r}")
    s_min, s_max = _numbers("--grid", ",".join(parts[:2]), 2)
    return s_min, s_max, int(parts[2])


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the package's exit codes and negative comma lists.

    A usage error raises FieldFormatError (exit 3): argparse's own exit
    status 2 means "invalid regime" here.  Any argument starting with a
    minus sign and a digit, such as "-0.5,0.2", is read as a value rather
    than as an unknown option; no option of this parser looks like that.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise FieldFormatError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="conformal-heat", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    out_help = "output file (default stdout)"

    k = sub.add_parser("kernel", help="tabulate semigroup kernels")
    k.add_argument("--dim", type=int, default=2, help="ambient dimension N >= 1 (default 2)")
    k.add_argument("--z", required=True, help="complex time, re,im")
    k.add_argument("--tol", help="series tolerance (default 1e-10, env CONFORMAL_HEAT_TOL)")
    k.add_argument("--closed-form", action="store_true", help="use the N in {1,2,4} closed forms")
    k.add_argument("--in", dest="in_path", help="points file with columns r,r_prime,t")
    k.add_argument("--r", help="comma list of r values (with --rp/--t builds a product grid)")
    k.add_argument("--rp", help="comma list of r' values")
    k.add_argument("--t", help="comma list of cos-angle values")
    k.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    k.add_argument("--out", dest="out_path", help=out_help)

    a = sub.add_parser("apply", help="apply an exponential to a field file")
    a.add_argument("--exponent", help="z1re,z1im,z2re,z2im,z3re,z3im")
    a.add_argument("--t", help="apply the dilation for this t instead")
    a.add_argument("--in", dest="in_path", help="field file")
    a.add_argument("--dim", type=int, help="check that the field file has this dimension N")
    a.add_argument("--tol", help="tolerance echoed in the output's config line")
    a.add_argument("--out", dest="out_path", help=out_help)

    v = sub.add_parser("verify", help="run self-check suites")
    v.add_argument("--suite", choices=sorted(SUITES), help="run one suite (default: all)")
    v.add_argument("--grid", help="log-radial grid smin,smax,n with an integer n")
    v.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    v.add_argument("--out", dest="out_path", help=out_help)
    return parser


def _check_dim(dim: int | None) -> None:
    if dim is not None and dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if dim is not None and dim > sys.float_info.max:  # (N-2)/2 has no float value
        raise DomainError(f"N = {dim} is too large: (N-2)/2 is past the float range")


def _tolerance(args: argparse.Namespace) -> float:
    """--tol, else CONFORMAL_HEAT_TOL, else the default; finite and positive."""
    tol = _DEFAULT_TOL
    env_tol = os.environ.get("CONFORMAL_HEAT_TOL")
    if args.tol is not None:
        (tol,) = _numbers("--tol", args.tol, 1)
    elif env_tol is not None:
        (tol,) = _numbers("CONFORMAL_HEAT_TOL", env_tol, 1)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    return tol


@contextmanager
def _output(out_path: str | None):
    """The binary file that a verb writes its bytes to: --out, else stdout.

    --out is opened without O_TRUNC and, when it is a regular file, cut
    to the bytes written once they are written, also when writing fails
    midway: on ext4, truncating a file whose pages are still dirty waits
    for their writeback, seconds for a large output rewritten at once.
    Devices such as /dev/null and FIFOs are not truncated.

    Stdout is written through a buffered writer on its descriptor, whose
    writes finish the partial writes of a pipe (also under python -u) or
    end in BrokenPipeError, which main turns into exit 141.  A stand-in
    for stdout without a descriptor, such as pytest's capture, gets the
    bytes through its binary buffer.
    """
    if out_path:
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            with open(fd, "wb", closefd=False) as fp:
                yield fp
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            os.close(fd)
        return
    sys.stdout.flush()
    try:
        fd = sys.stdout.fileno()
    except OSError:  # io.UnsupportedOperation: no descriptor
        yield sys.stdout.buffer
        return
    with open(fd, "wb", closefd=False) as fp:
        yield fp


def _emit(out_path: str | None, text: str) -> None:
    with _output(out_path) as fp:
        fp.write(text.encode())


def cmd_kernel(args: argparse.Namespace) -> int:
    _check_dim(args.dim)
    tol = _tolerance(args)
    z = complex(*_numbers("--z", args.z, 2))
    if args.in_path is not None:
        if (args.r, args.rp, args.t) != (None, None, None):
            raise FieldFormatError("kernel takes its points from --in or from --r, --rp, --t, not both")
        source = args.in_path
    else:
        r_list = _numbers("--r", args.r or "")
        rp_list = _numbers("--rp", args.rp or "")
        t_list = _numbers("--t", args.t or "")
        if not (r_list and rp_list and t_list):
            raise FieldFormatError("kernel needs --in POINTS or all of --r, --rp, --t")
        source = np.stack(np.meshgrid(r_list, rp_list, t_list, indexing="ij"), axis=-1).reshape(-1, 3)
    ct = as_time(z)
    csv_out = args.fmt == "csv"

    def table(points: np.ndarray) -> np.ndarray:
        """The (r, r', t, re k, im k) rows of the points, on the route's own call."""
        if args.closed_form:  # refuses an N without a closed form, rows or none
            values = closed_form(args.dim, *points.T, ct, tol)
        else:
            values = np.array([full_kernel_series(args.dim, r, rp, t, ct, tol) for r, rp, t in points.tolist()],
                              dtype=complex)
        return np.column_stack([points, values.real, values.imag])

    def blocks(points: np.ndarray):
        """The table's bytes: CSV lines a chunk at a time, or the raw floats; the table is made first."""
        rows = table(points)
        return float_row_lines(rows) if csv_out else [rows.tobytes()]

    def write(*parts) -> None:
        """The whole table from the bytes of its parts, in order, to --out or stdout."""
        if csv_out:
            with _output(args.out_path) as fp:
                fp.write(b"r,r_prime,t,re_k,im_k\n")
                fp.writelines(itertools.chain(*parts))
            return
        rows = np.frombuffer(b"".join(itertools.chain(*parts))).reshape(-1, 5)
        payload = {
            "dim": args.dim,
            "z": [z.real, z.imag],
            "closed_form": args.closed_form,
            "rows": [{"r": r, "r_prime": rp, "t": t, "re_k": re_k, "im_k": im_k}
                     for r, rp, t, re_k, im_k in rows.tolist()],
        }
        _emit(args.out_path, json.dumps(payload, indent=2) + "\n")

    # list(): the caller makes its whole half before it waits for the child's length, so the halves overlap
    halves = point_halves(source)
    if halves is None or not halves_in_two(lambda: list(blocks(halves[0]())), lambda: list(blocks(halves[1]())),
                                           write):
        write(blocks(read_points(source) if isinstance(source, str) else source))
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    _check_dim(args.dim)
    tol = _tolerance(args)
    if (args.exponent is None) == (args.t is None):
        raise FieldFormatError("apply needs exactly one of --exponent or --t")
    if args.exponent is not None:
        v = _numbers("--exponent", args.exponent, 6)
        exponent = G0Exponent(complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5]))
        action = {"exponent": v}
    else:
        (t,) = _numbers("--t", args.t, 1)
        action = {"t": t}
    if args.in_path is None:
        raise FieldFormatError("apply needs --in FIELD_FILE")
    data = read_field_file(args.in_path)
    if args.dim is not None and args.dim != data.grid.dim:
        raise FieldFormatError(f"--dim {args.dim} does not match dim {data.grid.dim} of {args.in_path}")
    with np.errstate(all="ignore"):  # a result out of the float range is refused below
        if args.t is not None:
            result = apply_scaling_direct(t, data)
        elif isinstance(data, GridField2D):
            result = apply_exp_g0_grid(exponent, data)
        else:
            result = apply_exp_g0(exponent, data)
    grid_field = isinstance(data, GridField2D)
    if not np.isfinite(result.values if grid_field else result.radial.values).all():
        raise DomainError("the result has non-finite samples: it leaves the float range")
    write = write_grid2d if grid_field else write_factored
    with _output(args.out_path) as fp:
        write(fp, result, {"dim": data.grid.dim, "tol": tol, **action})
    return 0


def _verify_in_two(shape) -> list | None:
    """Every suite's checks in suite order: those before the cut from a forked child, the rest from here.

    The child sends its checks as JSON, whose floats round-trip exactly
    (NaN and inf too).  None where either part raised or the child's
    checks did not arrive: the serial run then gives the first error.
    """
    results: list = []

    def first() -> list[bytes]:
        return [json.dumps([[c.suite, c.name, c.defect, c.tol] for c in checks_before_cut(shape)]).encode()]

    def write(theirs, mine: list) -> None:
        results.extend([CheckResult(*c) for c in json.loads(b"".join(theirs))] + mine)

    return results if halves_in_two(first, lambda: checks_after_cut(shape), write) else None


def cmd_verify(args: argparse.Namespace) -> int:
    shape = _parse_grid(args.grid) if args.grid else _DEFAULT_SHAPE
    results = None
    if args.suite is None:
        check_shape(shape)  # a bad grid is refused before any fork
        if verify_splits(shape[2]):
            results = _verify_in_two(shape)
    if results is None:
        results = run_suites([args.suite] if args.suite else None, shape)
    all_passed = all(c.passed for c in results)
    if args.fmt == "csv":
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")  # RFC 4180 quoting: names hold commas
        rows.writerow(["suite", "check", "defect", "tol", "passed"])
        rows.writerows([c.suite, c.name, format_float(c.defect), format_float(c.tol), int(c.passed)]
                       for c in results)
        _emit(args.out_path, buf.getvalue())
    else:
        suites: dict = {}
        for c in results:
            entry = suites.setdefault(c.suite, {"passed": True, "checks": []})
            entry["checks"].append(
                {"name": c.name, "defect": c.defect, "tol": c.tol, "passed": c.passed}
            )
            entry["passed"] = entry["passed"] and c.passed
        payload = {"passed": all_passed, "suites": suites}
        _emit(args.out_path, json.dumps(payload, indent=2) + "\n")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "kernel":
            code = cmd_kernel(args)
        elif args.command == "apply":
            code = cmd_apply(args)
        else:
            code = cmd_verify(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away (say `| head`).  Exit as a process
        # killed by SIGPIPE would, and point stdout at devnull so that the
        # flush at interpreter exit does not report the pipe a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (FieldFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidRegimeError, GridAlignmentError, DomainError, ConformalHeatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
