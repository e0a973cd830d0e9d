"""The names that bench/tracer.py wraps exist in the package.

The tracer looks every traced function up by name when it installs, so a
renamed or deleted function breaks each traced benchmark run.  The file is
loaded as it is, without importing the rest of bench/.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from conformal_heat.verify import SUITES

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()


@pytest.mark.parametrize("table", ["SPANS", "HOT"])
def test_traced_functions_exist(table):
    missing = []
    for module, entries in getattr(TRACER, table).items():
        home = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
        missing += [f"{module}.{entry[0]}" for entry in entries if not callable(getattr(home, entry[0], None))]
    assert not missing


def test_traced_suite_keys_are_verify_suites():
    assert set(TRACER.SUITE_KEYS) <= set(SUITES)
