"""Jobs split between two processes: a forked child makes the first half, this process the second.

Field file reads, output writes, kernel tables and full verify runs are
split through halves_in_two, on its one stream, each in output order: the
child's half is the first part of the output, for a verify the checks
before the cut in its report (verify.CUT_CASES).  Without os.fork or
os.sched_getaffinity (Windows, macOS) every job runs serially.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import BinaryIO

_SPLIT_BYTES = 2 * 2**20  # the least field file or output that two processes share
_SPLIT_TABLE = 4096       # the least kernel table, in points, that two processes share: the closed forms' break-even
_SPLIT_GRID = 2048        # the least grid n of a full verify that two processes share, the bench's:
                          # -6 to -18% at 512-1024 and -43% at 2048 on BLAS's default threads
_BLOCK = 200 * 2**10      # the most bytes of the child's stream read at once
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks in the child\.$"


def _can_fork() -> bool:
    """Whether a job may be split with a forked child: on two CPUs, with no other thread."""
    return (threading.active_count() == 1 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _can_split(size: int) -> bool:
    """Whether a field file or output of `size` bytes is split between two processes."""
    return size >= _SPLIT_BYTES and _can_fork()


def verify_splits(n: int) -> bool:
    """Whether a full verify on a grid of n samples is split between two processes."""
    return n >= _SPLIT_GRID and _can_fork()


def _in_two_processes(child, parent):
    """parent(pipe) here while child(pipe) runs in a forked process; parent's result.

    A child that fails, or a fork that fails, leaves parent a pipe that ends
    short or is empty, which parent must tell from a whole one.  The child
    leaves by os._exit, and is killed and reaped once parent is done with
    the pipe: by then it has sent all it will, or parent has failed.

    The child makes no BLAS call (no matrix product through @ or
    np.dot; np.einsum without optimize runs numpy's own loops): the
    parent's BLAS threads and a second set in the child would fight over
    two CPUs (a full verify with projection in the child took 106-116 ms
    against 89-90 ms serially on the default grid).

    OpenBLAS starts an OS thread when numpy is imported, so CPython 3.12+
    warns at each fork that the process is multi-threaded and the child
    may deadlock.  That one warning is ignored: the child makes no BLAS
    call, starts no thread and leaves by os._exit.
    """
    import signal  # here, not at the top: start-up does not pay for it

    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: parent finds the pipe empty
        pid = None
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                child(pipe)
        finally:  # on every exception too: never return into the caller's stack
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            return parent(pipe)
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def halves_in_two(first, second, write) -> bool:
    """write(theirs, mine) with a job's two halves, made in two processes; whether it ran.

    first() returns the byte blocks of the first half, second() the second
    half in the form write takes it; either may raise.  A forked child
    makes first()'s blocks and sends their length, then the blocks, which
    write gets as they come through the pipe.  Where this process's half
    raises or the length does not come whole (the child's half raised,
    the child died or the fork failed), False is returned and write is not
    called: the caller does the whole job serially, with its first error,
    for what a job refuses first can depend on the other half.  A stream
    that ends short after the length has lost bytes, not work: the rest is
    made here by first().
    """
    def child(pipe):
        blocks = first()
        pipe.write(sum(map(len, blocks)).to_bytes(8, "little"))
        pipe.writelines(blocks)

    def parent(pipe):
        try:
            mine = second()
        except Exception:  # the serial job raises its own error
            return False
        head = pipe.read(8)
        if len(head) != 8:
            return False
        write(_arriving(pipe, int.from_bytes(head, "little"), first), mine)
        return True

    return _in_two_processes(child, parent)


def _arriving(pipe: BinaryIO, size: int, first):
    """The child's `size` bytes from pipe, a block at a time; where the pipe ends short, the rest from first()."""
    sent = 0
    while sent < size:
        block = pipe.read(min(size - sent, _BLOCK))
        if not block:
            yield b"".join(first())[sent:]
            return
        sent += len(block)
        yield block
