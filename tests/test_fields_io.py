"""Field-file bytes and the reader's accept/reject outcomes on awkward input."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conformal_heat import fields_io
from conformal_heat.cli import main
from conformal_heat.errors import FieldFormatError
from conformal_heat.fields_io import _CHUNK_FLOATS, read_field_file, read_points, write_factored, write_grid2d
from conformal_heat.log_radial import LogRadialGrid, RadialSamples
from conformal_heat.spherical import FactoredField, GridField2D
from same_bytes import assert_same_bytes

_FIELD_CHUNK = _CHUNK_FLOATS // 2  # field lines per chunk
IN_FIELD = str(Path(__file__).parent / "fixtures" / "gauss_n3_m1_in.csv")

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 123456789.0,
    1e-300, -1.2345678901234567e-300, 0.1, 1.0 / 3.0,
]


def _reference_rows(keys, rows) -> bytes:
    """Reference rows: "{:.17g}" per float, one line per sample."""
    fmt = "{:.17g}".format
    return "".join(f"{k},{j},{fmt(float(v.real))},{fmt(float(v.imag))}\n"
                   for k, row in zip(keys, rows) for j, v in enumerate(row)).encode()


def _edge_samples(count: int, n: int) -> np.ndarray:
    vals = np.resize(np.array(EDGE_VALUES), (count, n, 2))
    vals[1::2] = vals[1::2, ::-1]  # pair each value with different partners
    out = np.empty((count, n), dtype=complex)
    out.real, out.imag = vals[..., 0], vals[..., 1]
    return out


def test_write_factored_bytes_match_reference():
    grid = LogRadialGrid(dim=3, s_min=-2.0, s_max=2.0, n=16)
    samples = _edge_samples(3, grid.n)
    field = FactoredField([0, 2, 7], RadialSamples(grid, samples))
    fp = io.BytesIO()
    write_factored(fp, field)
    rows = fp.getvalue().split(b"m,s_index,re,im\n", 1)[1]
    assert_same_bytes(rows, _reference_rows((0, 2, 7), samples))


def test_write_grid2d_bytes_match_reference():
    grid = LogRadialGrid(dim=2, s_min=-2.0, s_max=2.0, n=32)
    values = _edge_samples(8, grid.n)
    fp = io.BytesIO()
    write_grid2d(fp, GridField2D(grid, values), {"dim": 2})
    lines = fp.getvalue().split(b"angle_index,s_index,re,im\n", 1)
    assert lines[0].endswith(b'# config: {"dim": 2}\n')
    assert_same_bytes(lines[1], _reference_rows(range(8), values))


def _rows_both_ways(monkeypatch, write, field, names: bytes) -> bytes:
    """The data rows that write(fp, field) gives, the same with the helper thread and without."""
    texts = []
    for helper in (False, True):
        monkeypatch.setattr(fields_io, "_HELPER_FLOATS", 0 if helper else 2**62)
        fp = io.BytesIO()
        write(fp, field)
        texts.append(fp.getvalue().split(names, 1)[1])
    assert_same_bytes(texts[1], texts[0])
    return texts[0]


@pytest.mark.parametrize("dim, n_phi, n", [(1, 2, _FIELD_CHUNK // 8), (1, 2, _FIELD_CHUNK // 4),
                                         (2, 8, _FIELD_CHUNK // 16), (2, 16, _FIELD_CHUNK // 16),
                                         (1, 2, _FIELD_CHUNK // 2), (1, 2, _FIELD_CHUNK),
                                         (2, 8, _FIELD_CHUNK // 8), (2, 16, _FIELD_CHUNK // 4),
                                         (1, 2, 2 * _FIELD_CHUNK)])
def test_write_grid2d_bytes_around_a_chunk(monkeypatch, dim, n_phi, n):
    # grid line counts are powers of two, from a quarter chunk to four chunks;
    # the last case has two angles of two chunks each, so every second
    # chunk starts inside an angle
    grid = LogRadialGrid(dim=dim, s_min=-2.0, s_max=2.0, n=n)
    values = _edge_samples(n_phi, grid.n)
    rows = _rows_both_ways(monkeypatch, write_grid2d, GridField2D(grid, values), b"angle_index,s_index,re,im\n")
    assert_same_bytes(rows, _reference_rows(range(n_phi), values))


@pytest.mark.parametrize("lines", [8, _FIELD_CHUNK // 2 - 8, _FIELD_CHUNK // 2, _FIELD_CHUNK // 2 + 8,
                                   _FIELD_CHUNK - 8, _FIELD_CHUNK, _FIELD_CHUNK + 8, 2 * _FIELD_CHUNK + 8])
def test_write_factored_bytes_with_signed_keys_around_a_chunk(monkeypatch, lines):
    # N = 2 keys are signed angular modes; one 8-sample key is the smallest
    # field; the last case makes three chunks, the third without a partner
    grid = LogRadialGrid(dim=2, s_min=-2.0, s_max=2.0, n=8)
    count = lines // grid.n
    keys = np.arange(count) * 7 - 3 * count
    samples = _edge_samples(count, grid.n)
    field = FactoredField(keys, RadialSamples(grid, samples))
    rows = _rows_both_ways(monkeypatch, write_factored, field, b"m,s_index,re,im\n")
    assert_same_bytes(rows, _reference_rows(keys.tolist(), samples))


def test_write_factored_bytes_with_chunks_inside_a_key(monkeypatch):
    # each key is two chunks of lines, so every second chunk starts inside one
    grid = LogRadialGrid(dim=2, s_min=-2.0, s_max=2.0, n=2 * _FIELD_CHUNK)
    samples = _edge_samples(3, grid.n)
    field = FactoredField([-12, 0, 345], RadialSamples(grid, samples))
    rows = _rows_both_ways(monkeypatch, write_factored, field, b"m,s_index,re,im\n")
    assert_same_bytes(rows, _reference_rows((-12, 0, 345), samples))


def test_apply_stdout_matches_out_file(tmp_path, capsysbinary):
    out = tmp_path / "out.csv"
    argv = ["apply", "--exponent", "0,0.3,0,0,0.5,0.2", "--in", IN_FIELD]
    assert main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert_same_bytes(capsysbinary.readouterr().out, out.read_bytes())


def _grid_text(lines_between: list[str], newline: str = "\n") -> str:
    geo = {"kind": "grid2d", "dim": 1, "s_min": -1, "s_max": 1, "n": 8}
    rows = [f"{a},{j},{a + 0.5 * j},{-j}" for a in (0, 1) for j in range(8)]
    body = rows[:5] + lines_between + rows[5:]
    return newline.join(["# geometry: " + json.dumps(geo), "angle_index,s_index,re,im"] + body) + newline


_ACCEPTED = {
    "crlf": _grid_text([], newline="\r\n"),
    "comment": _grid_text(["# a comment between rows"]),
    "indented-comment": _grid_text(["   # an indented comment"]),
    "blank-lines": _grid_text(["", "   ", "\t"]),
    "whitespace-line-in-data": _grid_text([" \t "]),
    "whitespace-line-in-data-crlf": _grid_text(["  "], newline="\r\n"),
    "whitespace-last-line": _grid_text([]) + "   \n",
}


def _lines_only(monkeypatch) -> None:
    """Make np.loadtxt refuse a path, so that the reader hands it the lines of the open file."""
    loadtxt = np.loadtxt

    def no_paths(source, *args, **kwargs):
        if isinstance(source, str):
            raise ValueError("no path reads here")
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", no_paths)


@pytest.mark.parametrize("text", list(_ACCEPTED.values()), ids=list(_ACCEPTED))
def test_reader_accepts(tmp_path, monkeypatch, text):
    # read from the path and read line by line, the values are those of the clean file
    clean = tmp_path / "clean.csv"
    clean.write_text(_grid_text([]))
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    expected = read_field_file(str(clean)).values
    assert np.array_equal(read_field_file(str(path)).values, expected)
    _lines_only(monkeypatch)
    assert np.array_equal(read_field_file(str(path)).values, expected)


_REJECTED = {
    "too-few-columns": ["1,5,0.0"],
    "too-many-columns": ["1,5,0.0,0.0,0.0"],
    "text-row": ["not,a,number,row"],
    "second-names-row": ["angle_index,s_index,re,im"],
    "fractional-index": ["1.5,5,0,0"],
    "index-out-of-range": ["1,8,0,0"],
    "space-in-a-value": ["1,2,3,4 5"],
    # a whitespace-only line ahead of the bad row makes the path read fail first
    "too-few-columns-after-a-whitespace-line": ["   ", "1,5,0.0"],
    "text-row-after-a-whitespace-line": ["   ", "not,a,number,row"],
    "space-in-a-value-after-a-whitespace-line": ["   ", "1,2,3,4 5"],
}


@pytest.mark.parametrize("between", list(_REJECTED.values()), ids=list(_REJECTED))
def test_reader_rejects(tmp_path, monkeypatch, between):
    # the message of a failed path read is that of the line-by-line read
    path = tmp_path / "f.csv"
    path.write_text(_grid_text(between))
    with pytest.raises(FieldFormatError) as by_path:
        read_field_file(str(path))
    _lines_only(monkeypatch)
    with pytest.raises(FieldFormatError) as by_lines:
        read_field_file(str(path))
    assert str(by_path.value) == str(by_lines.value)
    assert str(by_path.value).startswith(f"{path}: ")


def test_reader_reads_a_pipe(tmp_path):
    # a pipe cannot be opened a second time from its start; a reader that
    # tries waits for a second writer, so the read runs in a child with a timeout
    fifo = tmp_path / "fifo"
    try:
        os.mkfifo(fifo)
    except (AttributeError, OSError):
        pytest.skip("no named pipes here")
    clean = tmp_path / "clean.csv"
    clean.write_text(_grid_text([]))
    env = dict(os.environ, PYTHONPATH=str(Path(fields_io.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "conformal_heat.cli", "apply", "--t", "0", "--in", str(fifo)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    writer = threading.Thread(target=fifo.write_text, args=(_grid_text(["# a comment between rows"]),), daemon=True)
    writer.start()
    try:
        piped, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0 and err == b""
    out = tmp_path / "out.csv"
    assert main(["apply", "--t", "0", "--in", str(clean), "--out", str(out)]) == 0
    assert_same_bytes(piped, out.read_bytes())


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_a_compression_suffix_is_read_as_text(tmp_path, suffix):
    path = tmp_path / ("f.csv" + suffix)
    path.write_text(_grid_text([]))
    clean = tmp_path / "clean.csv"
    clean.write_text(_grid_text([]))
    assert np.array_equal(read_field_file(str(path)).values, read_field_file(str(clean)).values)


def test_read_points_skips_names_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# points\nr,rp,t\n1.0,1.5,0.3\n\n  \n# mid\n0.7,0.7,-0.2\r\n")
    points = read_points(str(path))
    assert points.dtype == float
    assert np.array_equal(points, [[1.0, 1.5, 0.3], [0.7, 0.7, -0.2]])


def test_factored_keys_beyond_machine_integers_are_refused(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text('# geometry: {"kind": "factored", "dim": 2, "s_min": -1, "s_max": 1, "n": 8}\n'
                    + "".join(f"1e20,{j},1,0\n" for j in range(8)))
    with pytest.raises(FieldFormatError, match="machine integer"):
        read_field_file(str(path))


def test_geometry_comes_from_the_header_only(tmp_path, capsys):
    # a JSON file next to the data holds no geometry for the reader
    path = tmp_path / "f.csv"
    path.write_text("".join(_grid_text([]).splitlines(keepends=True)[1:]))
    (tmp_path / "f.csv.json").write_text(json.dumps({"kind": "grid2d", "dim": 1, "s_min": -1, "s_max": 1, "n": 8}))
    with pytest.raises(FieldFormatError, match="no geometry header"):
        read_field_file(str(path))
    assert main(["apply", "--t", "0", "--in", str(path)]) == 3
    assert "no geometry header" in capsys.readouterr().err
