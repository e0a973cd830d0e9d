"""The one two-process stream: every split job's fallbacks, and the fork warning of CPython 3.12+."""

from __future__ import annotations

import io
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from conformal_heat import cli, fields_io, two_processes
from conformal_heat.cli import main
from conformal_heat.fields_io import _CHUNK_FLOATS, read_field_file
from same_bytes import assert_same_bytes

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
SERIAL = 2**62  # a gate no job reaches
FIXTURES = Path(__file__).parent / "fixtures"
_GATES = ("_SPLIT_BYTES", "_SPLIT_TABLE", "_SPLIT_GRID")


def _table() -> np.ndarray:
    """A four-column table of four chunks of rows, values of every size and sign."""
    rng = np.random.default_rng(4)
    shape = (_CHUNK_FLOATS, 4)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)


def _points(tmp_path: Path) -> str:
    rng = np.random.default_rng(7)
    rows = np.column_stack([np.exp(rng.uniform(-1, 1, (48, 2))), rng.uniform(-1, 1, 48)])
    path = tmp_path / "points.csv"
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="r,r_prime,t", comments="")
    return str(path)


def _write(table: np.ndarray) -> bytes:
    """The table's lines through the field writers' chunked write."""
    fp = io.BytesIO()
    fields_io._write_chunks(fp, table, lambda start, stop: fields_io._csv_lines(table[start:stop]))
    return fp.getvalue()


def _read(path: Path) -> bytes:
    field = read_field_file(str(path))
    return field.m.tobytes() + field.radial.values.tobytes()


# each job: its gate, and what it gives, as bytes, for tmp_path and capsys
_JOBS = {
    "field-read": ("_SPLIT_BYTES", lambda tmp_path, capsys: _read(FIXTURES / "gauss_n3_m1_in.csv")),
    "field-write": ("_SPLIT_BYTES", lambda tmp_path, capsys: _write(_table())),
    "kernel-table": ("_SPLIT_TABLE", lambda tmp_path, capsys: repr(
        (main(["kernel", "--dim", "2", "--z", "0.5,0", "--in", _points(tmp_path)]), *capsys.readouterr())).encode()),
    "verify": ("_SPLIT_GRID", lambda tmp_path, capsys: repr(
        (main(["verify", "--grid=-8,8,256", "--format", "csv"]), *capsys.readouterr())).encode()),
}
_CUTS = {"empty": 0, "in-the-length": 4, "past-the-length": 8, "in-the-first-block": 9, "one-byte-short": -1,
         "whole": None}


@pytest.mark.parametrize("cut", list(_CUTS.values()), ids=list(_CUTS))
@pytest.mark.parametrize("job", list(_JOBS), ids=list(_JOBS))
def test_a_job_whose_child_is_cut_short_anywhere_gives_the_serial_result(tmp_path, monkeypatch, capsys, job, cut):
    # the child sends the length of its blocks, then the blocks; without the
    # whole length the caller does the job serially, and past it the caller
    # makes the bytes that did not come by a second call of first()
    gate, run = _JOBS[job]
    for name in _GATES:
        monkeypatch.setattr(two_processes, name, SERIAL)
    serial = run(tmp_path, capsys)

    calls, sent, halves_in_two = [], [], two_processes.halves_in_two

    def counting(first, second, write):
        def counted():
            calls.append(len(calls))
            return first()
        return halves_in_two(counted, second, write)

    def cut_short(child, parent):
        pipe = io.BytesIO()
        child(pipe)
        sent.append(len(pipe.getvalue()))
        return parent(io.BytesIO(pipe.getvalue()[:cut]))

    for home in (two_processes, cli):
        monkeypatch.setattr(home, "halves_in_two", counting)
    monkeypatch.setattr(two_processes, "_in_two_processes", cut_short)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(two_processes, gate, 0)
    assert_same_bytes(run(tmp_path, capsys), serial)
    assert len(sent) == 1 and sent[0] > 10  # one split, whose stream holds more than the cut points
    past_the_length = cut is not None and (cut < 0 or cut >= 8)
    assert len(calls) == 1 + past_the_length


_FORK_WARNING = "This process (pid={}) is multi-threaded, use of fork() may lead to deadlocks in the child."


def _fork_warning(monkeypatch, message: str, category: type[Warning]) -> None:
    """Make os.fork issue message, with the parent's pid, in the parent, as CPython 3.12+ does beside a thread."""
    fork = os.fork

    def warns():
        pid = fork()
        if pid:
            warnings.warn(message.format(os.getpid()), category, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warns)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _pid_from_the_child() -> tuple[bool, list[bytes]]:
    """Whether halves_in_two ran, and the pid that made its first half."""
    sent = []
    made = two_processes.halves_in_two(lambda: [str(os.getpid()).encode()], lambda: None,
                                       lambda theirs, mine: sent.append(b"".join(theirs)))
    return made, sent


@needs_fork
def test_the_fork_warning_beside_a_thread_is_ignored(monkeypatch, capfd):
    # the child makes no BLAS call, starts no thread and leaves by os._exit
    table = _table()
    serial = _write(table)
    _fork_warning(monkeypatch, _FORK_WARNING, DeprecationWarning)
    monkeypatch.setattr(two_processes, "_SPLIT_BYTES", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        made, sent = _pid_from_the_child()
        split = _write(table)
    assert made and len(sent) == 1 and int(sent[0]) != os.getpid()
    assert_same_bytes(split, serial)
    assert capfd.readouterr() == ("", "")


@needs_fork
@pytest.mark.parametrize("message, category", [("os.fork() is going away", DeprecationWarning),
                                               (_FORK_WARNING, RuntimeWarning)], ids=["another-message", "another-category"])
def test_another_warning_at_the_fork_still_surfaces(monkeypatch, message, category):
    _fork_warning(monkeypatch, message, category)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        made, sent = _pid_from_the_child()
    assert made and len(sent) == 1 and int(sent[0]) != os.getpid()
    assert [(w.category, str(w.message)) for w in seen] == [(category, message.format(os.getpid()))]
