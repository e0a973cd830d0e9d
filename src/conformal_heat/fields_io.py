"""CSV field files with a JSON geometry header (or sidecar).

Two layouts, both plain CSV with complex values split into re/im columns
and numbers written with 17 significant digits:

* factored fields:   columns (m, s_index, re, im); one component per
  distinct m.  For N = 2 the m column holds the signed angular mode, so the
  degree is |m|; for N = 1 it is the sign parity 0/1; for N >= 3 the degree.
  It is read as one FactoredField whose rows are the components in
  ascending m and whose keys are the m values.
* N = 1 / N = 2 grid fields:  columns (angle_index, s_index, re, im).

The grid geometry travels either in a comment line ahead of the data

    # geometry: {"kind": "factored", "dim": 3, "s_min": -16.0, ...}

or in a JSON sidecar next to the data file (same path plus ".json"), which
wins when both are present.  Other '#' lines and blank lines are ignored
anywhere; a single column-name row may precede the data.

The reader is strict: indices must be integers in range, every
(key, s_index) pair of a factored field and every (angle_index, s_index)
pair of a grid field must appear exactly once, and every value must be
finite.  Anything else raises FieldFormatError.

Tables are parsed by one np.loadtxt pass streaming from the file and
written one sector or angle row per write, so neither side holds the
whole text in memory.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, TextIO

import numpy as np

from .errors import FieldFormatError
from .log_radial import LogRadialGrid, RadialSamples
from .spherical import FactoredField, GridField2D

_FMT = "{:.17g}"


def format_float(x: float) -> str:
    return _FMT.format(float(x))


def _is_column_names(line: str) -> bool:
    cell = line.split(",", 1)[0].strip()
    try:
        float(cell)
    except ValueError:
        return not cell.lstrip("+-").replace(".", "", 1)[:1].isdigit()
    return False


def _scan_head(fp: TextIO) -> tuple[str | None, str | None]:
    """Consume the lines ahead of the data.

    Returns the text after the first "# geometry:" comment (or None) and
    the first data line (or None when the table has no data rows).  The
    column-name row is only recognised as the first non-comment line.
    """
    geometry = None
    names_allowed = True
    for line in fp:
        body = line.strip()
        if not body:
            continue
        if body.startswith("#"):
            body = body[1:].strip()
            if geometry is None and body.startswith("geometry:"):
                geometry = body[len("geometry:"):]
            continue
        if names_allowed and _is_column_names(body):
            names_allowed = False
            continue
        return geometry, line
    return geometry, None


def _data_lines(first: str, fp: TextIO) -> Iterator[str]:
    # np.loadtxt skips empty lines and lines starting with '#' itself, but
    # rejects whitespace-only lines and indented comments.
    yield first
    for line in fp:
        if line[:1].isspace():
            body = line.strip()
            if not body or body.startswith("#"):
                continue
        yield line


def _read_table(path: str, n_cols: int) -> tuple[str | None, np.ndarray]:
    """Geometry header text (or None) and the finite (rows, n_cols) data."""
    try:
        with open(path) as fp:
            geometry, first = _scan_head(fp)
            if first is None:
                return geometry, np.empty((0, n_cols))
            data = np.loadtxt(_data_lines(first, fp), delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise FieldFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
    if data.shape[1] != n_cols:
        raise FieldFormatError(f"{path}: rows have {data.shape[1]} columns, expected {n_cols}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise FieldFormatError(f"{path}: data row {row + 1} has a non-finite value")
    return geometry, data


def _load_geometry(path: str, header: str | None) -> dict:
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        try:
            with open(sidecar) as fp:
                geo = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise FieldFormatError(f"bad geometry sidecar {sidecar}: {exc}") from exc
    elif header is None:
        raise FieldFormatError(f"{path}: no geometry header or sidecar found")
    else:
        try:
            geo = json.loads(header)
        except json.JSONDecodeError as exc:
            raise FieldFormatError(f"bad geometry header: {exc}") from exc
    if not isinstance(geo, dict):
        raise FieldFormatError(f"{path}: geometry must be a JSON object")
    return geo


def _grid_from_geometry(geo: dict) -> LogRadialGrid:
    try:
        return LogRadialGrid(
            dim=int(geo["dim"]),
            s_min=float(geo["s_min"]),
            s_max=float(geo["s_max"]),
            n=int(geo["n"]),
        )
    except KeyError as exc:
        raise FieldFormatError(f"geometry missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"bad geometry value: {exc}") from exc


def _check_indices(path: str, name: str, column: np.ndarray, bound: int | None = None) -> None:
    bad = column != np.trunc(column)
    if bound is not None:
        bad |= (column < 0) | (column >= bound)
    if bad.any():
        row = int(np.argmax(bad))
        limit = "" if bound is None else f" in [0, {bound})"
        raise FieldFormatError(f"{path}: data row {row + 1}: {name} {column[row]:g} is not an integer{limit}")


def _scatter(path: str, names: tuple[str, str], keys: np.ndarray, flat: np.ndarray,
             data: np.ndarray, n: int) -> np.ndarray:
    """Place row i's value at flat[i] of a (len(keys), n) array; each slot exactly once."""
    counts = np.bincount(flat, minlength=len(keys) * n)
    for wrong, what in ((counts > 1, "duplicate"), (counts == 0, "missing")):
        if wrong.any():
            k, j = divmod(int(np.argmax(wrong)), n)
            raise FieldFormatError(f"{path}: {int(wrong.sum())} {what} rows, first at "
                                   f"{names[0]}={keys[k]:g}, {names[1]}={j}")
    values = np.empty(len(keys) * n, dtype=complex)
    # The two columns viewed as complex, so signed zeros survive: re + 1j*im
    # would turn a -0.0 real part into +0.0.
    values[flat] = np.ascontiguousarray(data[:, 2:4]).view(complex)[:, 0]
    return values.reshape(len(keys), n)


def read_field_file(path: str):
    """Read a field file; returns a FactoredField or a GridField2D."""
    header, data = _read_table(path, 4)
    geo = _load_geometry(path, header)
    kind = geo.get("kind")
    grid = _grid_from_geometry(geo)
    if kind == "factored":
        if not len(data):
            raise FieldFormatError(f"{path}: no data rows")
        _check_indices(path, "m", data[:, 0])
        _check_indices(path, "s_index", data[:, 1], grid.n)
        keys, key_rank = np.unique(data[:, 0], return_inverse=True)
        flat = key_rank * grid.n + data[:, 1].astype(np.intp)
        values = _scatter(path, ("m", "s_index"), keys, flat, data, grid.n)
        if not (np.abs(keys) < 2.0**63).all():
            raise FieldFormatError(f"{path}: m values must fit a machine integer")
        return FactoredField(keys.astype(np.int64), RadialSamples(grid, values))
    if kind == "grid2d":
        n_phi = int(geo.get("n_phi", 2 if grid.dim == 1 else 0))
        if n_phi <= 0:
            raise FieldFormatError(f"{path}: geometry missing n_phi")
        _check_indices(path, "angle_index", data[:, 0], n_phi)
        _check_indices(path, "s_index", data[:, 1], grid.n)
        flat = data[:, 0].astype(np.intp) * grid.n + data[:, 1].astype(np.intp)
        values = _scatter(path, ("angle_index", "s_index"), np.arange(n_phi), flat, data, grid.n)
        return GridField2D(grid, values)
    raise FieldFormatError(f"{path}: unknown field kind {kind!r}")


def _write_header(fp: TextIO, geometry: dict, config: dict | None) -> None:
    fp.write("# geometry: " + json.dumps(geometry, sort_keys=True) + "\n")
    if config:
        fp.write("# config: " + json.dumps(config, sort_keys=True) + "\n")


def _write_rows(fp: TextIO, keys: list[int], rows) -> None:
    """Write "key,s_index,re,im" lines, one fp.write per row of samples."""
    # "%.17g" % x == "{:.17g}".format(x) for every float; K stands for the key
    row_fmt = "".join([f"K,{j},%.17g,%.17g\n" for j in range(len(rows[0]))])
    for key, values in zip(keys, rows):
        re_im = np.ascontiguousarray(values, dtype=complex).view(float)
        fp.write(row_fmt.replace("K", str(key)) % tuple(re_im.tolist()))


def write_factored(fp: TextIO, field: FactoredField, config: dict | None = None) -> None:
    grid = field.grid
    geometry = {
        "kind": "factored",
        "dim": grid.dim,
        "s_min": grid.s_min,
        "s_max": grid.s_max,
        "n": grid.n,
    }
    _write_header(fp, geometry, config)
    fp.write("m,s_index,re,im\n")
    _write_rows(fp, field.m.tolist(), field.radial.values)


def write_grid2d(fp: TextIO, field: GridField2D, config: dict | None = None) -> None:
    grid = field.grid
    geometry = {
        "kind": "grid2d",
        "dim": grid.dim,
        "s_min": grid.s_min,
        "s_max": grid.s_max,
        "n": grid.n,
        "n_phi": field.n_phi,
    }
    _write_header(fp, geometry, config)
    fp.write("angle_index,s_index,re,im\n")
    _write_rows(fp, list(range(field.n_phi)), field.values)


def read_points(path: str) -> list[tuple[float, float, float]]:
    """Read kernel query points (r, r_prime, t) from CSV; '#' lines skipped."""
    _, data = _read_table(path, 3)
    return list(map(tuple, data.tolist()))
