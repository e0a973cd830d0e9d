"""CSV field files with a JSON geometry header.

Two layouts, both plain CSV with complex values split into re/im columns
and numbers written with 17 significant digits:

* factored fields:   columns (m, s_index, re, im); one component per
  distinct m.  For N = 2 the m column holds the signed angular mode, so the
  degree is |m|; for N = 1 it is the sign parity 0/1; for N >= 3 the degree.
  It is read as one FactoredField whose rows are the components in
  ascending m and whose keys are the m values.
* N = 1 / N = 2 grid fields:  columns (angle_index, s_index, re, im).

The grid geometry travels in a comment line ahead of the data

    # geometry: {"kind": "factored", "dim": 3, "s_min": -16.0, ...}

and nowhere else: a JSON file next to the data is not read.  Other '#'
lines and blank lines are ignored anywhere; a single column-name row, one
that holds no number, may precede the data.

The reader is strict: indices must be integers in range, every
(key, s_index) pair of a factored field and every (angle_index, s_index)
pair of a grid field must appear exactly once, and every value must be
finite.  Anything else raises FieldFormatError.

The reader scans the lines ahead of the data itself, then hands
np.loadtxt a second handle of the file (not its path, which loadtxt would
decompress by its suffix) and those lines to skip, so numpy parses the
data rows in C.  Where loadtxt refuses that read (it rejects
whitespace-only lines and indented comments) or cannot make it (a pipe),
it is handed the remaining lines of the open file one at a time, and its
errors there are the ones reported.

The writers take a binary file, such as open(path, "wb"), and write to
it ASCII bytes with "\n" line ends, a chunk of _CHUNK_FLOATS floats of
whole lines per write, each chunk turned into exactly the "%.17g" text
by one array formatter (format_float is its scalar definition), so no
process holds more than its half of the text.  float_row_lines makes a
kernel table's lines in the same chunks, one at a time, for the CLI to
write.

Large field files and field outputs are split between two processes
(two_processes.halves_in_two): a forked child parses the first half of a
field file, skipping its head as above, or formats the first half of an
output's chunks, while this process does the second half.  Where either
half fails, the file is read or the output formatted serially, so the
arrays, the errors and the bytes are the same either way.  point_halves
splits a kernel table's points the same way, for the CLI.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import stat
import sys
import warnings
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from . import two_processes
from .errors import DomainError, FieldFormatError
from .log_radial import LogRadialGrid, RadialSamples
from .spherical import FactoredField, GridField2D

_FMT = "{:.17g}"


def format_float(x: float) -> str:
    return _FMT.format(float(x))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_column_names(line: str) -> bool:
    """Whether a first row names the columns: no cell, unquoted, is a number, and the first does not start as one."""
    cells = [cell.strip(' "') for cell in line.split(",")]
    return not cells[0].lstrip("+-").replace(".", "", 1)[:1].isdigit() and not any(map(_is_number, cells))


def _scan_head(fp: TextIO) -> tuple[str | None, str | None, int]:
    """Consume the lines ahead of the data.

    Returns the text after the first "# geometry:" comment (or None), the
    first data line (or None when the table has no data rows) and the
    number of lines ahead of it.  The column-name row is only recognised
    as the first non-comment line.
    """
    geometry = None
    names_allowed = True
    for count, line in enumerate(fp):
        if not count:
            line = line.removeprefix("\ufeff")  # a UTF-8 byte-order mark reads as nothing
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
        return geometry, line, count
    return geometry, None, 0


def _loadtxt(source, strict: bool = False, **options) -> np.ndarray:
    """The CSV rows of source; strict raises any warning ("input contained no data" is a UserWarning)."""
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        return np.loadtxt(source, delimiter=",", comments="#", ndmin=2, **options)


def _middle(fp: BinaryIO, size: int) -> int:
    """The offset just past the first newline past the middle of a binary file of `size` bytes."""
    fp.seek(size // 2)
    fp.readline()
    return fp.tell()


def _first_half(head: bytes, encoding: str, skip: int) -> np.ndarray:
    """The rows of a file's first bytes past its skip head lines; refused rows, a warning and no rows raise.

    Universal newlines break the lines where the head scan does: at "\n", "\r" and "\r\n".
    """
    return _loadtxt(io.TextIOWrapper(io.BytesIO(head), encoding), strict=True, skiprows=skip)


def _second_half(fp: BinaryIO, middle: int, encoding: str) -> np.ndarray:
    """The rows of a binary file from offset middle on; refused rows, a warning and a half without rows raise."""
    fp.seek(middle)
    return _loadtxt(fp, strict=True, encoding=encoding)


def _split_rows(path: str, skip: int, size: int, encoding: str) -> np.ndarray | None:
    """The data rows of a regular file, read in two processes; None where that read fails.

    The child parses the file up to the first newline past the middle,
    its head skipped as the serial read skips it, and sends the shape and
    the bytes of its rows.  A malformed row or a warning in either half, a
    half without rows or halves whose columns differ give None: the serial
    read then reports the errors and row numbers.
    """
    with open(path, "rb") as fp:
        middle = _middle(fp, size)
        if middle >= size:
            return None

        def first() -> list:
            with open(path, "rb") as own:  # its own file description: a forked one would share fp's offset
                rows = _first_half(own.read(middle), encoding, skip)
            return [np.array(rows.shape, dtype=np.int64).tobytes(), rows.data.cast("B")]

        halves = []

        def write(theirs, mine: np.ndarray) -> None:
            sent = b"".join(theirs)
            count, cols = np.frombuffer(sent[:16], dtype=np.int64).tolist()
            if cols == mine.shape[1]:
                halves.extend([np.frombuffer(sent, offset=16).reshape(count, cols), mine])

        two_processes.halves_in_two(first, lambda: _second_half(fp, middle, encoding), write)
    return np.concatenate(halves) if halves else None


def _points(rows: np.ndarray) -> np.ndarray:
    """rows where they are three finite columns, else ValueError: the serial read words the fault."""
    if rows.shape[1] != 3 or not np.isfinite(rows).all():
        raise ValueError("not three finite columns")
    return rows


def _line_count(text: bytes) -> int:
    """The number of lines of text, broken as universal newlines break them: at "\n", "\r" and "\r\n"."""
    if b"\r" in text:
        return len(text.splitlines())
    return int(np.count_nonzero(np.frombuffer(text, np.uint8) == ord("\n"))) + (text[-1:] not in (b"\n", b""))


def point_halves(source):
    """Readers of the two halves of a kernel table's points; None where the table is not split.

    source is the (rows, 3) array of points or the path of a points file.
    A table of _SPLIT_TABLE points or more is split where _can_fork()
    holds; a regular file counts as points its lines past the lines ahead
    of the data.  A file is read once and split at the first newline past
    its middle, each reader parsing its half of those bytes.  A half that
    np.loadtxt refuses or warns about, without rows, not three columns
    wide or with a non-finite value raises: read_points words the fault.
    """
    if not two_processes._can_fork():
        return None
    if isinstance(source, np.ndarray):
        if len(source) < two_processes._SPLIT_TABLE:
            return None
        middle = len(source) // 2
        return lambda: source[:middle], lambda: source[middle:]
    try:
        if not stat.S_ISREG(os.stat(source).st_mode):
            return None
        with open(source) as fp:  # the text encoding of read_points
            encoding, text = fp.encoding, fp.buffer.read()
        skip = _scan_head(io.TextIOWrapper(io.BytesIO(text), encoding))[2]
    except (OSError, ValueError):  # read_points words it
        return None
    if _line_count(text) - skip < two_processes._SPLIT_TABLE:
        return None
    data = io.BytesIO(text)
    middle = _middle(data, len(text))
    if middle >= len(text):
        return None
    return (lambda: _points(_first_half(text[:middle], encoding, skip)),
            lambda: _points(_second_half(data, middle, encoding)))


def _load_rows(path: str, fp: TextIO, first: str, skip: int) -> np.ndarray:
    """The data rows from `first`, line skip + 1 of the file, on; fp stands just past it."""
    info = os.fstat(fp.fileno())
    if stat.S_ISREG(info.st_mode):  # a pipe cannot be opened a second time from its start
        split = two_processes._can_split(info.st_size)
        if split and (rows := _split_rows(path, skip, info.st_size, fp.encoding)) is not None:
            return rows
        try:
            with open(path, encoding=fp.encoding) as again:
                return _loadtxt(again, skiprows=skip)
        except ValueError:
            pass  # read the lines below, which also gives the errors their row numbers
    # lstrip turns whitespace-only lines and indented comments into the
    # empty and '#' lines that np.loadtxt skips itself
    return _loadtxt(itertools.chain([first], map(str.lstrip, fp)))


def _read_table(path: str, n_cols: int) -> tuple[str | None, np.ndarray]:
    """Geometry header text (or None) and the finite (rows, n_cols) data."""
    try:
        with open(path) as fp:
            geometry, first, skip = _scan_head(fp)
            if first is None:
                return geometry, np.empty((0, n_cols))
            data = _load_rows(path, fp, first, skip)
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
    if header is None:
        raise FieldFormatError(f"{path}: no geometry header found")
    try:
        geo = json.loads(header)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"bad geometry header: {exc}") from exc
    if not isinstance(geo, dict):
        raise FieldFormatError(f"{path}: geometry must be a JSON object")
    return geo


def _geometry_value(geo: dict, key: str, integer: bool, default=None) -> int | float:
    """geo[key], or default where the key is absent: a JSON integer, or unless integer a finite JSON number."""
    if key not in geo and default is None:
        raise FieldFormatError(f"geometry missing key {key!r}")
    value = geo.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not (integer or abs(value) <= sys.float_info.max)):
        raise FieldFormatError(f"bad geometry value: {key} must be {'an integer' if integer else 'a finite number'}, "
                               f"not {json.dumps(value)}")
    return value


def _grid_from_geometry(geo: dict) -> LogRadialGrid:
    dim, s_min, s_max, n = (_geometry_value(geo, key, key in ("dim", "n")) for key in ("dim", "s_min", "s_max", "n"))
    try:
        return LogRadialGrid(dim=dim, s_min=float(s_min), s_max=float(s_max), n=n)
    except ValueError as exc:
        raise FieldFormatError(f"bad geometry value: {exc}") from exc


def _check_indices(path: str, name: str, column: np.ndarray, bound: int | None = None) -> None:
    bad = column != np.trunc(column)
    if bound is not None:
        bad |= (column < 0) | (column >= bound)
    if bad.any():
        row = int(np.argmax(bad))
        limit = "" if bound is None else f" in [0, {bound})"
        raise FieldFormatError(f"{path}: data row {row + 1}: {name} {column[row]:g} is not an integer{limit}")


def _scatter(path: str, names: tuple[str, str], keys, k: int, rank: np.ndarray, data: np.ndarray,
             n: int) -> np.ndarray:
    """Place each row's value at [rank, s_index] of a (k, n) array; each slot exactly once.

    keys[i] is the key value of rank i: the distinct m, or range(n_phi)
    where the key is the rank (angle_index).  Where the k*n slots outnumber
    the rows, some are missing, and the first duplicate or missing slot is
    found among the distinct rows: an n or n_phi far past the data sizes no
    array.
    """
    def refuse(what: str, count: int, slot: int):
        key, j = divmod(slot, n)
        raise FieldFormatError(f"{path}: {count} {what} rows, first at {names[0]}={keys[key]:g}, {names[1]}={j}")

    if k * n > len(data):
        pairs, counts = np.unique(np.column_stack([rank, data[:, 1]]), axis=0, return_counts=True)
        twice = counts > 1
        if twice.any():
            key, j = pairs[np.argmax(twice)].tolist()
            refuse("duplicate", int(twice.sum()), int(key) * n + int(j))
        # the first slot without a row: the first distinct row out of place, or the one after the last
        at = np.arange(len(pairs))
        stride = min(n, len(data) + 1)  # divides each of these positions as n does
        out = (pairs[:, 0] != at // stride) | (pairs[:, 1] != at % stride)
        refuse("missing", k * n - len(pairs), int(np.argmax(out)) if out.any() else len(pairs))
    flat = rank.astype(np.intp, copy=False) * n + data[:, 1].astype(np.intp)
    counts = np.bincount(flat, minlength=k * n)
    for wrong, what in ((counts > 1, "duplicate"), (counts == 0, "missing")):
        if wrong.any():
            refuse(what, int(wrong.sum()), int(np.argmax(wrong)))
    values = np.empty(k * n, dtype=complex)
    # The two columns viewed as complex, so signed zeros survive: re + 1j*im
    # would turn a -0.0 real part into +0.0.
    values[flat] = np.ascontiguousarray(data[:, 2:4]).view(complex)[:, 0]
    return values.reshape(k, n)


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
        values = _scatter(path, ("m", "s_index"), keys, len(keys), key_rank, data, grid.n)
        if not (np.abs(keys) < 2.0**63).all():
            raise FieldFormatError(f"{path}: m values must fit a machine integer")
        try:
            return FactoredField(keys.astype(np.int64), RadialSamples(grid, values))
        except DomainError as exc:  # a key that the dimension has no sector for
            raise FieldFormatError(f"{path}: {exc}") from exc
    if kind == "grid2d":
        n_phi = _geometry_value(geo, "n_phi", True, 2 if grid.dim == 1 else 0)
        if n_phi <= 0:
            raise FieldFormatError(f"{path}: geometry missing n_phi")
        _check_indices(path, "angle_index", data[:, 0], n_phi)
        _check_indices(path, "s_index", data[:, 1], grid.n)
        values = _scatter(path, ("angle_index", "s_index"), range(n_phi), n_phi, data[:, 0], data, grid.n)
        try:
            return GridField2D(grid, values)
        except DomainError as exc:  # a dim or n_phi that no grid field has
            raise FieldFormatError(f"bad geometry value: {exc}") from exc
    raise FieldFormatError(f"{path}: unknown field kind {kind!r}")


# "%.17g" text of float arrays, a chunk of CSV lines at a time.
#
# A finite nonzero |x| prints the 17 digits D = round(|x|*10^(16-e)), with
# e its decimal exponent, so that 10^16 <= D < 10^17.  The product is formed
# in double-double from 10^k = 2^s*(hi + lo), which is exact to 2^-106 of
# 10^k; the fraction of |x|*10^(16-e) then errs by less than 2^-45.  Values
# whose fraction lies within _TIE_BAND of 1/2 (ties, which "%.17g" rounds
# half to even, and values too close to one to tell) and non-finite values
# go to format_float, as in Loitsch's guarded digit generation (PLDI 2010).
# The %g layout (fixed or scientific, trailing zeros stripped) is one
# gather from a table keyed on the exponent class, the sign and the count
# of significant digits.  Texts are NUL-padded to a fixed width, and the
# NULs are deleted from each chunk.

_CHUNK_FLOATS = 8192         # per chunk: 4096 field lines, 1638 kernel-table lines
_GATHER = 1024               # values per block of the layout gather
_WIDTH = 25                  # the longest "%.17g" text, 24 bytes, and a separator
_K_MIN, _K_MAX = -293, 341   # 10^(16-e) for every double, e off by at most one
_TIE_BAND = 2.0**-40
_SPLIT = 134217729.0         # 2^27 + 1, Dekker's splitting constant
# Columns of one value's source bytes: the 17 digits, |e| as four digits,
# the constants ".0e+-", the separator after the value and a NUL.
_EXP, _DOT, _ZERO, _E, _PLUS, _MINUS, _SEP, _PAD = 17, 21, 22, 23, 24, 25, 26, 27
_SRC = 28
_SCI, _ZERO_CLASS = 21, 25  # layout classes: e + 4 for -4 <= e <= 16, four scientific, zero


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10^k = 2^s*(hi + lo) for k in [_K_MIN, _K_MAX]: hi, hi split in two halves, lo, s."""
    hi, lo, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        s = num.bit_length() - den.bit_length()
        if s >= 0:
            den <<= s
        else:
            num <<= -s
        if num < den:
            num <<= 1
            s -= 1
        # num/den = 10^k/2^s in [1, 2); int true division rounds correctly
        hi.append(num / den)
        lo.append((num * 2**52 - int(hi[-1] * 2**52) * den) / (den * 2**52))
        shift.append(s)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, np.array(lo), np.array(shift)


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 as 4-byte words; the source columns of each %g layout."""
    d = np.arange(10000)
    quads = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")
    words = quads.astype(np.uint8).view(np.uint32).ravel()

    layout = np.full((26, 2, 18, _WIDTH), _PAD, dtype=np.intp)
    for cls, neg, nz in itertools.product(range(26), (0, 1), range(1, 18)):
        digits = list(range(nz))  # the significant digits, trailing zeros stripped
        e = cls - 4
        if cls == _ZERO_CLASS:
            body = [_ZERO]
        elif cls >= _SCI:  # bit 0: a negative exponent, bit 1: three exponent digits
            body = [0] + ([_DOT] + digits[1:] if nz > 1 else [])
            exp_digits = [_EXP + 1, _EXP + 2, _EXP + 3] if cls - _SCI & 2 else [_EXP + 2, _EXP + 3]
            body += [_E, _MINUS if cls - _SCI & 1 else _PLUS] + exp_digits
        elif e < 0:
            body = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits
        else:
            body = list(range(e + 1)) + ([_DOT] + digits[e + 1:] if nz > e + 1 else [])
        body = [_MINUS] * neg + body + [_SEP]
        layout[cls, neg, nz, :len(body)] = body
    return words, layout.reshape(-1, _WIDTH)


def _scaled(v: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(v*10^(16-e)) as int64 and the fraction left over, for v > 0."""
    hi_t, hi_hi_t, hi_lo_t, lo_t, shift_t = _powers_of_ten()
    k = 16 - _K_MIN - e
    m, ex = np.frexp(v)
    hi, hi_hi, hi_lo = hi_t[k], hi_hi_t[k], hi_lo_t[k]
    # Dekker: p + (m*hi - p) is m*hi exactly; add m*lo to the error term
    p = m * hi
    c = _SPLIT * m
    m_hi = c - (c - m)
    m_lo = m - m_hi
    t = (((m_hi * hi_hi - p) + m_hi * hi_lo + m_lo * hi_hi) + m_lo * hi_lo) + m * lo_t[k]
    top = p + t
    bottom = t - (top - p)
    shift = ex + shift_t[k]
    top = np.ldexp(top, shift)
    bottom = np.ldexp(bottom, shift)
    whole = np.floor(top)
    rest = (top - whole) + bottom  # exact once top >= 2^53, as it is in range
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and the exponent e of each |x|, and which x go to format_float.

    D and e are right where x is finite, nonzero and not flagged; elsewhere
    they are placeholders in range.
    """
    a = np.abs(x)
    regular = np.isfinite(a) & (a > 0)
    v = np.where(regular, a, 1.0)
    e = np.floor(np.log10(v)).astype(np.int64)
    digits, frac = _scaled(v, e)
    out = (digits < 10**16) | (digits >= 10**17)
    if out.any():  # the log10 estimate of e was one off
        redo = np.flatnonzero(out)
        e[redo] += np.where(digits[redo] < 10**16, -1, 1)
        digits[redo], frac[redo] = _scaled(v[redo], e[redo])
        out[redo] = (digits[redo] < 10**16) | (digits[redo] >= 10**17)
    by_python = ~np.isfinite(a) | (regular & (out | (np.abs(frac - 0.5) <= _TIE_BAND)))
    digits += frac > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    return digits, e, by_python


def _g17_text(values: np.ndarray) -> np.ndarray:
    """(L, c) floats -> (L, c*_WIDTH) bytes: each "%.17g" text and ',' or '\n' after it, NUL-padded."""
    lines, cols = values.shape
    x = values.ravel()
    digits, e, by_python = _digits(x)
    words, layout = _text_tables()
    top, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(top.astype(np.uint32), 10**8)
    low = low.astype(np.uint32)
    groups = np.stack([high // 10**4, high % 10**4, low // 10**4, low % 10**4], axis=1)
    src = np.empty((x.size, _SRC), dtype=np.uint8)
    src[:, 0] = lead + ord("0")
    src[:, 1:_EXP] = words[groups].view(np.uint8)
    ae = np.abs(e)
    src[:, _EXP:_DOT] = words[ae].view(np.uint8).reshape(-1, 4)
    constants = src.reshape(lines, cols, _SRC)[:, :, _DOT:]
    constants[...] = np.frombuffer(b".0e+-,\0", dtype=np.uint8)
    constants[:, -1, _SEP - _DOT] = ord("\n")
    nz = _EXP - np.argmax(src[:, _EXP - 1::-1] != ord("0"), axis=1)
    cls = np.where((e >= -4) & (e <= 16), e + 4, _SCI + (e < 0) + 2 * (ae >= 100))
    cls[x == 0] = _ZERO_CLASS
    key = (cls * 2 + np.signbit(x)) * 18 + nz
    flat = src.ravel()
    text = np.empty((x.size, _WIDTH), dtype=np.uint8)
    for start in range(0, x.size, _GATHER):  # an index of _GATHER x _WIDTH intp at a time
        index = layout[key[start:start + _GATHER]]
        index += np.arange(start * _SRC, (start + len(index)) * _SRC, _SRC)[:, None]
        np.take(flat, index, out=text[start:start + len(index)], mode="clip")  # in range: no check
    if by_python.any():
        rows = np.flatnonzero(by_python)
        seps = np.where(rows % cols == cols - 1, "\n", ",").tolist()
        strs = [format_float(f) + sep for f, sep in zip(x[rows].tolist(), seps)]
        text[rows] = np.array(strs, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return text.reshape(lines, cols * _WIDTH)


def _csv_lines(values: np.ndarray, *lead: np.ndarray) -> bytes:
    """One line per row: the lead byte columns, then the "%.17g" values joined by ','."""
    text = _g17_text(values)
    if lead:
        text = np.concatenate([*lead, text], axis=1)
    return text.tobytes().translate(None, b"\0")


def _ascii(items) -> np.ndarray:
    """One NUL-padded row of bytes per item: str(item) and ','."""
    text = np.array([f"{item}," for item in items], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), -1)


def _chunks(values: np.ndarray) -> list[tuple[int, int]]:
    """The (start, stop) rows of each chunk of _CHUNK_FLOATS floats of whole rows of values, in order."""
    step = _CHUNK_FLOATS // values.shape[1]
    return [(start, start + step) for start in range(0, len(values), step)]


def _write_chunks(fp: BinaryIO, values: np.ndarray, chunk_text) -> None:
    """Write chunk_text(start, stop) for each of the _chunks of values, in order.

    Split, a forked child formats the first half of the chunks while this
    process formats the second; this process then writes the child's text
    as it arrives, then its own.  Where the split does not run, this
    process formats and writes every chunk.
    """
    chunks = _chunks(values)
    theirs, mine = chunks[:len(chunks) // 2], chunks[len(chunks) // 2:]

    def texts(part):
        return lambda: [chunk_text(*chunk) for chunk in part]

    if not (two_processes._can_split(values.size * _WIDTH)
            and two_processes.halves_in_two(texts(theirs), texts(mine),
                                            lambda *halves: fp.writelines(itertools.chain(*halves)))):
        for chunk in chunks:
            fp.write(chunk_text(*chunk))


def float_row_lines(table: np.ndarray) -> Iterator[bytes]:
    """Each row of a float table as one CSV line of "%.17g" values, made a chunk of lines at a time."""
    table = np.ascontiguousarray(table, dtype=float)
    for start, stop in _chunks(table):
        yield _csv_lines(table[start:stop])


def _write_field(fp: BinaryIO, grid: LogRadialGrid, config: dict | None, key_name: str, keys,
                 rows: np.ndarray, **geometry) -> None:
    """Write the header lines, then one "key,s_index,re,im" line per sample, key by key."""
    geometry.update(dim=grid.dim, s_min=grid.s_min, s_max=grid.s_max, n=grid.n)
    head = "# geometry: " + json.dumps(geometry, sort_keys=True) + "\n"
    if config:
        head += "# config: " + json.dumps(config, sort_keys=True) + "\n"
    fp.write(f"{head}{key_name},s_index,re,im\n".encode("ascii"))
    n = rows.shape[1]
    key_text, index_text = _ascii(keys), _ascii(range(n))
    re_im = np.ascontiguousarray(rows, dtype=complex).view(float).reshape(-1, 2)

    def chunk_text(start: int, stop: int) -> bytes:
        line = np.arange(start, min(stop, len(re_im)))
        return _csv_lines(re_im[start:stop], key_text[line // n], index_text[line % n])

    _write_chunks(fp, re_im, chunk_text)


def write_factored(fp: BinaryIO, field: FactoredField, config: dict | None = None) -> None:
    _write_field(fp, field.grid, config, "m", field.m.tolist(), field.radial.values, kind="factored")


def write_grid2d(fp: BinaryIO, field: GridField2D, config: dict | None = None) -> None:
    _write_field(fp, field.grid, config, "angle_index", range(field.n_phi), field.values,
                 kind="grid2d", n_phi=field.n_phi)


def read_points(path: str) -> np.ndarray:
    """Read kernel query points from CSV as a (rows, 3) array of (r, r_prime, t)."""
    return _read_table(path, 3)[1]
