"""The names the benchmark's traced run requires exist as public functions.

``bench/run.py --trace 1`` wraps every function a module lists in
``__all__`` and fails when a function it must see called is missing.  This
test reads the same names from ``bench/run.py``, so renaming or removing one
fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from elliptic_rmatrix import qdet_engine

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling worker.py
    spec = importlib.util.spec_from_file_location("bench_run_under_test", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def required_names(bench_run) -> set[str]:
    names = set(bench_run._COMMON_CALLS)
    for workload in bench_run.WORKLOADS.values():
        names.update(workload.must_call)
    names.update(f"rmatrix_builders.{scalar}" for scalar in bench_run.SCALARS)
    return names


def test_traced_names_are_public_functions(bench_run):
    names = required_names(bench_run)
    assert "rmatrix_builders.eta" in names
    for key in sorted(names):
        short, _, name = key.partition(".")
        module = importlib.import_module(f"elliptic_rmatrix.{short}")
        assert name in module.__all__, key
        assert inspect.isfunction(getattr(module, name)), key


def test_bench_size_guard_matches_product_cap(bench_run):
    assert bench_run.MAX_DENSE_QDET_N == qdet_engine.MAX_PRODUCT_SLOTS
