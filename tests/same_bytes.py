"""One comparison for written outputs, short and fast when they differ.

A bare `assert got == want` on outputs of thousands of lines has pytest
build a diff of the two, which can run for minutes; this names the first
line that differs and shows the two lines.
"""

from __future__ import annotations

import itertools

import pytest


def assert_same_bytes(got: bytes, want: bytes) -> None:
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    line, (g, w) = next((i, pair) for i, pair in enumerate(itertools.zip_longest(got_lines, want_lines))
                        if pair[0] != pair[1])
    pytest.fail(f"line {line + 1} differs ({len(got_lines)} lines written, {len(want_lines)} expected)\n"
                f"  written:  {g!r}\n  expected: {w!r}")
