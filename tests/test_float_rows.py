"""The vectorised "%.17g" writer against Python's own "%.17g", value by value."""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from conformal_heat import fields_io, two_processes
from conformal_heat.fields_io import _CHUNK_FLOATS, _powers_of_ten, float_row_lines, format_float
from same_bytes import assert_same_bytes

_TABLE_CHUNK = _CHUNK_FLOATS // 5  # lines of a five-column kernel table per chunk

TINY, HUGE = 5e-324, 1.7976931348623157e308
MIN_NORMAL = 2.2250738585072014e-308


def _reference(table: np.ndarray) -> bytes:
    """The per-row template the writer replaced."""
    return "".join(",".join(["%.17g"] * len(row)) % tuple(row) + "\n" for row in table.tolist()).encode()


def _written(table: np.ndarray) -> bytes:
    return b"".join(float_row_lines(table))


def _written_by_chunks(table: np.ndarray) -> bytes:
    """The table's lines through the field writers' chunked write, which two processes may share."""
    fp = io.BytesIO()
    fields_io._write_chunks(fp, table, lambda start, stop: fields_io._csv_lines(table[start:stop]))
    return fp.getvalue()


def _by_python(monkeypatch, table: np.ndarray) -> tuple[bytes, int]:
    """The writer's text and the number of values it left to format_float."""
    calls = []
    scalar = fields_io.format_float
    monkeypatch.setattr(fields_io, "format_float", lambda x: calls.append(x) or scalar(x))
    return _written(table), len(calls)


def _neighbours(x: np.ndarray, steps: int = 1) -> np.ndarray:
    out = [x]
    with np.errstate(over="ignore"):
        for direction in (-np.inf, np.inf):
            y = x
            for _ in range(steps):
                y = np.nextafter(y, direction)
                out.append(y)
    return np.concatenate(out)


def _signed(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


def _check(monkeypatch, values: np.ndarray, cols: int = 4) -> int:
    values = np.asarray(values, dtype=float)
    table = np.resize(values, (-(-values.size // cols), cols))
    text, fallbacks = _by_python(monkeypatch, table)
    assert_same_bytes(text, _reference(table))
    return fallbacks


def test_random_bit_patterns(monkeypatch):
    rng = np.random.default_rng(20100605)
    values = rng.integers(0, 2**64, size=600_000, dtype=np.uint64).view(float)
    fallbacks = _check(monkeypatch, values)
    # the non-finite patterns, 1 in 2048, and exact ties among the large integers
    assert fallbacks < 2 * np.count_nonzero(~np.isfinite(values)) + 200


def test_wide_range_of_magnitudes(monkeypatch):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(300_000) * 10.0 ** rng.uniform(-300, 300, 300_000)
    # only values in about [1e4, 1e17] can be exact ties; 233 of these are
    assert _check(monkeypatch, values, cols=2) <= values.size // 1000


def test_special_values(monkeypatch):
    special = np.array([0.0, np.inf, np.nan, TINY, MIN_NORMAL, HUGE, 1.0, 0.1, 1 / 3, 2.0**53, 0.5])
    subnormals = np.random.default_rng(3).integers(1, 2**52, 50_000, dtype=np.uint64).view(float)
    values = _signed(np.concatenate([_neighbours(special[3:]), special[:3], subnormals]))
    _check(monkeypatch, values, cols=5)
    assert _written(np.array([[0.0, -0.0, np.nan, -np.inf]])) == b"0,-0,nan,-inf\n"


def test_powers_of_ten_and_neighbours(monkeypatch):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # ties beside 1e15, and 1e20, whose digits land on the 10^16 edge
    assert _check(monkeypatch, _signed(_neighbours(powers, steps=3)), cols=3) == 8


def test_g_switch_points(monkeypatch):
    # %g turns from fixed to scientific below 1e-4 and at 1e17
    switch = np.array([1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 9.99999999999999e-5])
    _check(monkeypatch, _signed(_neighbours(switch, steps=50)), cols=1)
    assert _written(np.array([[1e-4, 1e-5, 1e16, 1e17]])) == b"0.0001,1.0000000000000001e-05,10000000000000000,1e+17\n"


def test_exact_ties_round_half_even(monkeypatch):
    rng = np.random.default_rng(11)
    # 18 significant digits ending in 5: 12345678901.0078125 for odd j, and
    # 16-digit integers plus a quarter, exact below 2^51
    ties = 12345678901 + np.arange(1, 128, 2) / 128
    quarters = rng.integers(10**15, 2**51, 20_000) + rng.choice([0.25, 0.75], 20_000)
    values = _signed(np.concatenate([ties, quarters, ties - 1 / 128]))
    assert _check(monkeypatch, values) == 2 * (ties.size + quarters.size)
    assert _written(np.array([[12345678901 + 1 / 128, 12345678901 + 3 / 128]])) == \
        b"12345678901.007812,12345678901.023438\n"


def test_smooth_field_values_need_no_fallback(monkeypatch):
    s = np.linspace(-16, 16, 2048)
    values = np.outer(np.cos(np.arange(64) * 0.3), np.exp(-s * s / 3) * np.sin(5 * s))
    assert _check(monkeypatch, values.ravel()) == 0


def test_power_table_is_exact():
    from fractions import Fraction

    hi, hi_hi, hi_lo, lo, shift = _powers_of_ten()
    assert np.array_equal(hi_hi + hi_lo, hi)
    for i, k in enumerate(range(fields_io._K_MIN, fields_io._K_MAX + 1)):
        scaled = Fraction(10) ** k / Fraction(2) ** int(shift[i])
        assert 1 <= scaled < 2
        assert hi[i] == float(scaled)
        assert lo[i] == float(scaled - Fraction(hi[i]))


@pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 6149, _TABLE_CHUNK - 1, _TABLE_CHUNK, _TABLE_CHUNK + 1,
                                  2 * _TABLE_CHUNK + 3])
def test_row_counts_around_a_chunk(rows):
    # counts inside a chunk, on either side of a chunk's end, and past two
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-20, 20, (rows, 5))
    assert_same_bytes(_written(table), _reference(table))


def _split_between_processes(monkeypatch, tmp_path, table: np.ndarray) -> tuple[bytes, list[int]]:
    """The writer's text split between two processes for any size, and the pid that formatted each chunk."""
    log = tmp_path / "chunks.log"
    lines = fields_io._csv_lines
    first_rows = {table[start].tobytes(): k for k, start in enumerate(range(0, len(table), _TABLE_CHUNK))}

    def recorded(values):
        with open(log, "a") as fp:  # appends from either process: one short write each
            fp.write(f"{first_rows[values[0].tobytes()]} {os.getpid()}\n")
        return lines(values)

    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(fields_io, "_csv_lines", recorded)
    text = _written_by_chunks(table)
    chunks = dict(map(int, line.split()) for line in log.read_text().splitlines()) if log.exists() else {}
    return text, [chunks[k] for k in sorted(chunks)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
@pytest.mark.parametrize("rows", [0, 1, _TABLE_CHUNK, _TABLE_CHUNK + 1, 2 * _TABLE_CHUNK, 3 * _TABLE_CHUNK + 5])
def test_helper_thread_writes_the_serial_bytes(monkeypatch, tmp_path, rows):
    # a forked child formats the first half of the chunks and the caller the second
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-20, 20, (rows, 5))
    table[:1, :3] = [np.nan, -0.0, 12345678901 + 1 / 128]  # format_float's cases, in the first chunk
    serial = _written(table)
    split, pids = _split_between_processes(monkeypatch, tmp_path, table)
    assert_same_bytes(split, serial)
    assert_same_bytes(split, "".join(",".join(map(format_float, row)) + "\n" for row in table.tolist()).encode())
    chunks = -(-rows // _TABLE_CHUNK)
    half = chunks // 2
    assert len(pids) == chunks and pids[half:] == [os.getpid()] * (chunks - half)
    assert len(set(pids[:half])) == min(half, 1) and os.getpid() not in pids[:half]
