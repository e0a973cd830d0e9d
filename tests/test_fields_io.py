"""Field-file bytes and the reader's accept/reject outcomes on awkward input."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conformal_heat import fields_io, two_processes
from conformal_heat.cli import main
from conformal_heat.errors import DomainError, FieldFormatError
from conformal_heat.fields_io import (_CHUNK_FLOATS, format_float, read_field_file, read_points, write_factored,
                                     write_grid2d)
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
    """The data rows that write(fp, field) gives, the same split between two processes and serially."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    texts = []
    for split in (False, True):
        monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0 if split else 2**62)
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
    # field; the last case makes three chunks, the caller's one and the child's two
    grid = LogRadialGrid(dim=2, s_min=-2.0, s_max=2.0, n=8)
    count = lines // grid.n
    keys = np.arange(count) * 7 - 3 * count
    samples = _edge_samples(count, grid.n)
    field = FactoredField(keys, RadialSamples(grid, samples))
    rows = _rows_both_ways(monkeypatch, write_factored, field, b"m,s_index,re,im\n")
    assert_same_bytes(rows, _reference_rows(keys.tolist(), samples))


def test_write_factored_bytes_with_chunks_inside_a_key(monkeypatch):
    # each key is two chunks of lines, so every second chunk, the child's first
    # among them, starts inside one
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
    """Make np.loadtxt refuse a path or a file, so that the reader hands it the lines of the open file."""
    loadtxt = np.loadtxt

    def no_files(source, *args, **kwargs):
        if isinstance(source, (str, io.IOBase)):
            raise ValueError("no file reads here")
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", no_files)


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


# The two-process read of large files: the same bits and the same errors as the serial read.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
FIXTURES = Path(__file__).parent / "fixtures"
SERIAL = 2**62  # a gate no file reaches


def _bits(field) -> bytes:
    if isinstance(field, GridField2D):
        return field.values.tobytes()
    return field.m.tobytes() + field.radial.values.tobytes()


@pytest.fixture
def split_reads(monkeypatch):
    """Outcomes of the two-process reads: True where they gave the rows, False where the read fell back.

    The split is forced for every size and CPU count; the tests set the size gate.
    """
    outcomes = []
    split = fields_io._split_rows

    def spy(*args):
        rows = split(*args)
        outcomes.append(rows is not None)
        return rows

    monkeypatch.setattr(fields_io, "_split_rows", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return outcomes


def _both_ways(monkeypatch, read, path):
    """read(path) with the two-process read, then serially."""
    results = []
    for gate in (0, SERIAL):
        monkeypatch.setattr(two_processes, "_SPLIT_BYTES", gate)
        results.append(read(str(path)))
    return results


def _errors_both_ways(monkeypatch, path) -> list[str]:
    texts = []
    for gate in (0, SERIAL):
        monkeypatch.setattr(two_processes, "_SPLIT_BYTES", gate)
        with pytest.raises(FieldFormatError) as caught:
            read_field_file(str(path))
        texts.append(str(caught.value))
    return texts


def _field_rows(n_phi: int, n: int, seed: int = 19) -> list[str]:
    """The data rows of an N = 2 grid field, values of every size and sign."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_phi * n, 2)) * 10.0 ** rng.integers(-30, 30, (n_phi * n, 2))
    values[::7] = 0.0
    return [f"{k // n},{k % n},{re!r},{im!r}" for k, (re, im) in enumerate(values.tolist())]


def _field_file(path: Path, n_phi: int, n: int, inserts: dict | None = None, newline: str = "\n") -> Path:
    """An N = 2 grid field file, with the lines of inserts[i] put ahead of data row i."""
    geo = {"kind": "grid2d", "dim": 2, "s_min": -4.0, "s_max": 4.0, "n": n, "n_phi": n_phi}
    lines = ["# geometry: " + json.dumps(geo), "angle_index,s_index,re,im"]
    for i, row in enumerate(_field_rows(n_phi, n)):
        lines += (inserts or {}).get(i, []) + [row]
    path.write_bytes(newline.join(lines + [""]).encode())
    return path


@needs_fork
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.csv")
                                        if p.name.startswith(("apply_", "gauss_"))))
def test_split_read_of_a_fixture_has_the_serial_bits(monkeypatch, split_reads, name):
    split, serial = _both_ways(monkeypatch, read_field_file, FIXTURES / name)
    assert split_reads == [True]
    assert _bits(split) == _bits(serial)


@needs_fork
def test_split_read_of_points_has_the_serial_bits(monkeypatch, split_reads):
    split, serial = _both_ways(monkeypatch, read_points, FIXTURES / "kernel_points.csv")
    assert split_reads == [True]
    assert split.tobytes() == serial.tobytes()


@pytest.fixture(scope="module")
def big_field(tmp_path_factory) -> Path:
    """A field file of 2^16 rows, past the size gate of the two-process read."""
    path = _field_file(tmp_path_factory.mktemp("big") / "big.csv", 16, 4096)
    assert path.stat().st_size >= two_processes._SPLIT_BYTES
    return path


@needs_fork
def test_split_read_past_the_gate_has_the_serial_bits(monkeypatch, split_reads, big_field):
    split = read_field_file(str(big_field))
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", SERIAL)
    assert split_reads == [True]
    assert _bits(split) == _bits(read_field_file(str(big_field)))


@needs_fork
def test_split_read_past_a_long_head_has_the_serial_bits(tmp_path, monkeypatch, split_reads):
    # about 70 KB of comment lines ahead of the data: the child skips them
    # itself, however long they are
    head = [f"# comment line {k} of a long head, ahead of the data rows" for k in range(1250)]
    path = _field_file(tmp_path / "long_head.csv", 8, 512, {0: head})
    assert len("\n".join(head)) > 70_000
    split, serial = _both_ways(monkeypatch, read_field_file, path)
    assert split_reads == [True]
    assert _bits(split) == _bits(serial)


# a comment line that ends in a lone "\r", and a line that is a lone "\r"
_LONE_CR = ["# the line ends in a lone CR\r# a comment after it", "\r# a comment after a CR-only line"]


@needs_fork
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_split_read_past_lone_cr_lines_in_the_head_has_the_serial_bits(tmp_path, monkeypatch, split_reads, newline):
    # the head scan and both reads break lines at a lone "\r" alike, so
    # none skips a data row or a comment line too few
    path = _field_file(tmp_path / "lone_cr.csv", 8, 64, {0: _LONE_CR}, newline)
    clean = _field_file(tmp_path / "clean.csv", 8, 64, newline=newline)
    split, serial = _both_ways(monkeypatch, read_field_file, path)
    assert split_reads == [True]
    assert _bits(split) == _bits(serial) == _bits(read_field_file(str(clean)))


# lines put next to the split point; whether the two-process read keeps them
# (loadtxt refuses whitespace-only lines and indented comments, and the serial read takes those)
_AT_THE_SPLIT = {
    "comment": (["# a comment at the split"], True),
    "comments-and-blank-lines": (["", "# one", "", "# two", ""], True),
    "whitespace-only-line": ([" \t "], False),
    "indented-comment": (["   # indented"], False),
}


@needs_fork
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", list(_AT_THE_SPLIT), ids=list(_AT_THE_SPLIT))
def test_split_read_with_lines_at_the_split_point(tmp_path, monkeypatch, split_reads, case, newline):
    # the split point falls within a line of row 256 of 512; the lines go
    # ahead of each row from 254 to 258, so both halves get them in turn
    between, kept = _AT_THE_SPLIT[case]
    for row in range(254, 259):
        path = _field_file(tmp_path / f"at{row}.csv", 8, 64, {row: between}, newline)
        split, serial = _both_ways(monkeypatch, read_field_file, path)
        assert _bits(split) == _bits(serial)
    assert split_reads == [kept] * 5


@needs_fork
@pytest.mark.parametrize("where", [3, 255, 257, 500], ids=["first-half", "before-the-split", "after-the-split",
                                                          "second-half"])
@pytest.mark.parametrize("between", list(_REJECTED.values()), ids=list(_REJECTED))
def test_split_read_refuses_as_the_serial_read(tmp_path, monkeypatch, split_reads, between, where):
    # the split falls ahead of row 256 of 512
    path = _field_file(tmp_path / "bad.csv", 8, 64, {where: between})
    split, serial = _errors_both_ways(monkeypatch, path)
    assert split == serial
    assert split.startswith(f"{path}: ")
    assert len(split_reads) == 1


@needs_fork
def test_a_half_of_comments_only_warns_nothing(tmp_path, monkeypatch, split_reads):
    # loadtxt warns "input contained no data" on the second half; with
    # warnings as errors the read still falls back and gives the serial bits
    path = _field_file(tmp_path / "tail.csv", 8, 8)
    with path.open("a") as fp:
        fp.write("# a trailing comment\n" * 200)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        split, serial = _both_ways(monkeypatch, read_field_file, path)
    assert seen == []
    assert split_reads == [False]
    assert _bits(split) == _bits(serial)


@needs_fork
def test_halves_of_different_widths_refuse_as_the_serial_read(tmp_path, monkeypatch, split_reads):
    # 64 rows of one length: the split falls ahead of row 31 (from 0), and
    # the rows from there on carry a fifth column in the same number of bytes,
    # so each half is well formed on its own
    head = '# geometry: {"kind": "grid2d", "dim": 1, "s_min": -1, "s_max": 1, "n": 32}\n'
    rows = [f"{k // 32},{k % 32:02d},{k:+.3e},{-k:+.3e}" if k < 31 else f"{k // 32},{k % 32:02d},{k:+.3e},{-k:+.1e},0"
            for k in range(64)]
    assert len(set(map(len, rows))) == 1
    path = tmp_path / "widths.csv"
    path.write_text(head + "\n".join(rows) + "\n")
    text = path.read_bytes()
    assert text.index(b"\n", len(text) // 2) + 1 == text.index(rows[31].encode())
    split, serial = _errors_both_ways(monkeypatch, path)
    assert split == serial
    assert split_reads == [False]


def _no_fork():
    raise AssertionError("os.fork was called")


@needs_fork
@pytest.mark.parametrize("threads, cpus", [(2, {0, 1}), (1, {0})], ids=["another-thread", "one-cpu"])
def test_no_fork_beside_another_thread_or_on_one_cpu(monkeypatch, big_field, threads, cpus):
    # neither the read of a file nor the write of an output past the size gate
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    others = [threading.Thread(target=release.wait) for _ in range(threads - 1)]
    for other in others:
        other.start()
    try:
        field = read_field_file(str(big_field))
        written = io.BytesIO()
        write_grid2d(written, field)
    finally:
        release.set()
        for other in others:
            other.join(timeout=10)
    assert not any(other.is_alive() for other in others)
    assert field.values.size * 2 * fields_io._WIDTH >= two_processes._SPLIT_BYTES
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", SERIAL)
    assert _bits(field) == _bits(read_field_file(str(big_field)))
    serial = io.BytesIO()
    write_grid2d(serial, field)
    assert_same_bytes(written.getvalue(), serial.getvalue())


@needs_fork
@pytest.mark.parametrize("where", [None, 3, 8300], ids=["rows", "child-fails", "caller-fails"])
def test_no_child_outlives_a_read(tmp_path, monkeypatch, split_reads, where):
    # 16384 rows split ahead of row 8263: a bad row just after the split
    # fails this process's half while the child still parses its own
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0)
    path = _field_file(tmp_path / "f.csv", 16, 1024, {where: ["1,2,3"]})
    if where is None:
        read_field_file(str(path))
    else:
        with pytest.raises(FieldFormatError):
            read_field_file(str(path))
    assert split_reads == [where is None]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_and_without_a_bom(tmp_path: Path, kind: str, names: bool, newline: str) -> list[Path]:
    """A points or grid field file, and the same file behind a UTF-8 byte-order mark."""
    if kind == "points":
        lines = [f"{1 + k / 8!r},{2 + k / 16!r},{k / 48 - 0.5!r}" for k in range(48)]
        head = ["r,r_prime,t"] if names else []
    else:
        lines = [f"{a},{j},{a + 0.5 * j!r},{-j}" for a in (0, 1) for j in range(8)]
        head = ['# geometry: {"kind": "grid2d", "dim": 1, "s_min": -1, "s_max": 1, "n": 8}']
        head = ["angle_index,s_index,re,im", *head] if names else head  # the mark ahead of the names or the geometry
    text = newline.join(head + lines) + newline
    paths = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
    for path, mark in zip(paths, (b"", b"\xef\xbb\xbf")):
        path.write_bytes(mark + text.encode())
    return paths


@pytest.mark.parametrize("split", [False, pytest.param(True, marks=needs_fork)], ids=["serial", "split"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("names", [True, False], ids=["names", "no-names"])
@pytest.mark.parametrize("kind", ["points", "field"])
def test_a_byte_order_mark_reads_as_nothing(tmp_path, monkeypatch, capsys, kind, names, newline, split):
    # the mark is read as nothing ahead of a first data row, which is then
    # not taken for a column-name row, and ahead of the geometry line
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for gate in ("_SPLIT_BYTES", "_SPLIT_TABLE"):
        monkeypatch.setattr(two_processes, gate, 0 if split else SERIAL)
    results = []
    for path in _with_and_without_a_bom(tmp_path, kind, names, newline):
        if kind == "points":
            rows = read_points(str(path))
            argv = ["kernel", "--dim", "3", "--z", "0.5,0", "--in", str(path)]
            results.append((rows.shape, rows.tobytes(), main(argv), *capsys.readouterr()))
        else:
            results.append(_bits(read_field_file(str(path))))
    assert results[1] == results[0]
    if kind == "points":
        assert results[0][0] == (48, 3) and results[0][2] == 0 and results[0][4] == ""


_NOT_COLUMN_NAMES = {"typo": "x{}", "quoted": '"{}"'}  # the first cell of the first data row


@pytest.mark.parametrize("split", [False, pytest.param(True, marks=needs_fork)], ids=["serial", "split"])
@pytest.mark.parametrize("kind", ["points", "field"])
@pytest.mark.parametrize("first", list(_NOT_COLUMN_NAMES.values()), ids=list(_NOT_COLUMN_NAMES))
def test_a_first_data_row_with_a_bad_cell_is_refused_not_taken_for_column_names(tmp_path, monkeypatch, capsys,
                                                                                  kind, first, split):
    # a column-name row holds no number, quoted or not: a first row that
    # does is data, and its bad cell is refused as any other row's is
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for gate in ("_SPLIT_BYTES", "_SPLIT_TABLE"):
        monkeypatch.setattr(two_processes, gate, 0 if split else SERIAL)
    path = _with_and_without_a_bom(tmp_path, kind, False, "\n")[0]
    lines = path.read_text().splitlines(keepends=True)
    at = int(kind == "field")  # past the geometry line
    cells = lines[at].split(",")
    bad = first.format(cells[0])
    lines[at] = ",".join([bad, *cells[1:]])
    path.write_text("".join(lines))
    if kind == "points":
        argv = ["kernel", "--dim", "3", "--z", "0.5,0", "--in", str(path)]
    else:
        argv = ["apply", "--t", "0", "--in", str(path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: could not convert string '{bad}'") and err.count("\n") == 1


# The two-process write of large outputs: the same bytes as the serial write, and no child left behind.

def _table(chunks: int = 4) -> np.ndarray:
    """A four-column table of `chunks` chunks of rows, values of every size and sign."""
    rng = np.random.default_rng(chunks)
    shape = (chunks * _CHUNK_FLOATS // 4, 4)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)


def _write_table(fp, table: np.ndarray) -> None:
    """The table's lines through the field writers' chunked write."""
    fields_io._write_chunks(fp, table, lambda start, stop: fields_io._csv_lines(table[start:stop]))


def _serial_text(table: np.ndarray) -> bytes:
    return "".join(",".join(map(format_float, row)) + "\n" for row in table.tolist()).encode()


@pytest.fixture
def split_writes(monkeypatch):
    """The pids of the children that writes fork; the split is forced for every size and CPU count."""
    forks = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0)
    return forks


def _in_the_child(monkeypatch, action):
    """Make a forked child run action() where it would format a chunk."""
    caller, lines = os.getpid(), fields_io._csv_lines
    monkeypatch.setattr(fields_io, "_csv_lines", lambda *args: lines(*args) if os.getpid() == caller else action())


@needs_fork
def test_no_child_outlives_a_write(split_writes):
    table = _table()
    fp = io.BytesIO()
    _write_table(fp, table)
    assert len(split_writes) == 1
    assert_same_bytes(fp.getvalue(), _serial_text(table))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_no_child_outlives_a_write_that_fails(monkeypatch, split_writes):
    # the child would take a minute over its first chunk: it is killed, not
    # waited for, when the caller's own half fails, and the serial write
    # then fails as the caller's half did
    caller = os.getpid()

    def formats(*args):
        if os.getpid() != caller:
            time.sleep(60)
        raise MemoryError("no room in the caller")

    monkeypatch.setattr(fields_io, "_csv_lines", formats)
    began = time.monotonic()
    with pytest.raises(MemoryError, match="no room in the caller"):
        _write_table(io.BytesIO(), _table())
    assert time.monotonic() - began < 30
    assert len(split_writes) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _child_fails():
    raise MemoryError("no room in the child")


@needs_fork
def test_a_failing_child_leaves_its_half_to_the_caller(monkeypatch, split_writes):
    _in_the_child(monkeypatch, _child_fails)
    table = _table()
    fp = io.BytesIO()
    _write_table(fp, table)
    assert len(split_writes) == 1
    assert_same_bytes(fp.getvalue(), _serial_text(table))


_CUTS = {"empty": 0, "in-the-length": 1, "one-short-of-the-length": 7, "past-the-length": 8, "in-the-first-block": 9,
         "one-byte-short": -1, "whole": None}


@pytest.mark.parametrize("cut", list(_CUTS.values()), ids=list(_CUTS))
def test_rows_evaluated_with_a_child_cut_short_anywhere_have_the_serial_values(monkeypatch, cut):
    # the child sends the length of its blocks once they are made, then the
    # blocks; without the whole length the table is made serially (False),
    # and past it the bytes that did not come are made here by first()
    calls = []

    def half(name, blocks):
        def make():
            calls.append(name)
            return blocks
        return make

    def cut_short(child, parent):
        pipe = io.BytesIO()
        child(pipe)
        return parent(io.BytesIO(pipe.getvalue()[:cut]))

    written = []
    monkeypatch.setattr(two_processes, "_in_two_processes", cut_short)
    made = two_processes.halves_in_two(half("first", [b"1,2\n", b"-0,3e-300\n"]), half("second", [b"4,5\n"]),
                                       lambda theirs, mine: written.append(b"".join([*theirs, *mine])))
    made_here = cut is not None and (cut < 0 or cut >= 8)  # the length came whole, the blocks did not
    assert made == (cut is None or made_here)
    assert written == ([b"1,2\n-0,3e-300\n4,5\n"] if made else [])
    assert calls == ["first", "second"] + ["first"] * made_here


def test_a_refused_caller_half_gives_the_whole_tables_error(monkeypatch):
    # what a route refuses first can depend on the other rows, so the
    # caller's own error is not raised: nothing is written, and the caller
    # makes the whole table serially, with its own first error
    def second():
        raise DomainError("refused rows of the second half")

    def in_one_process(child, parent):
        pipe = io.BytesIO()
        child(pipe)
        return parent(io.BytesIO(pipe.getvalue()))

    written = []
    monkeypatch.setattr(two_processes, "_in_two_processes", in_one_process)
    assert not two_processes.halves_in_two(lambda: [b"1,2\n"], second, lambda *parts: written.append(parts))
    assert written == []


_APPLY_WITH_A_MARKER = """
import atexit, sys
from conformal_heat import fields_io, two_processes
from conformal_heat.cli import main

print("before the read")  # still buffered at each fork: a child that flushed it would print it twice
atexit.register(print, "atexit marker")
split, in_two = fields_io._split_rows, two_processes._in_two_processes

def split_spy(*args):
    rows = split(*args)
    print("split read" if rows is not None else "serial read")
    return rows

def fork_spy(child, parent):
    print("fork")
    return in_two(child, parent)

fields_io._split_rows, two_processes._in_two_processes = split_spy, fork_spy
sys.exit(main(sys.argv[1:]))
"""


@needs_fork
def test_apply_in_a_process_forks_one_quiet_child(tmp_path, monkeypatch, big_field):
    # one child to read the field and one to write the result, past both gates
    out = tmp_path / "split.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(fields_io.__file__).parents[1]))
    # DeprecationWarnings shown, not raised: Python 3.12+ warns of a fork beside threads and drops the warning under -W error
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-W", "always::DeprecationWarning",
                           "-c", _APPLY_WITH_A_MARKER, "apply", "--t", "0.375", "--in", str(big_field), "--out", str(out)],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    forks = "fork\nsplit read\nfork\n" if two_cpus else ""
    assert proc.stdout == f"before the read\n{forks}atexit marker\n".encode()
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", SERIAL)
    serial = tmp_path / "serial.csv"
    assert main(["apply", "--t", "0.375", "--in", str(big_field), "--out", str(serial)]) == 0
    assert_same_bytes(out.read_bytes(), serial.read_bytes())
