"""The names the benchmark's traced run requires exist and are called.

``bench/run.py --trace 1`` wraps every function a module lists in
``__all__`` and fails when a function it must see called is missing.  These
tests read the same names from ``bench/run.py``, so renaming, removing or no
longer reaching one fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
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


def one_point(argv: tuple[str, ...]) -> tuple[str, ...]:
    """A workload's arguments with one sample point or one grid cell."""
    out = list(argv)
    for flag, value in (("--points", "1"), ("--grid", "1x1")):
        if flag in out:
            out[out.index(flag) + 1] = value
    return tuple(out)


def test_traced_run_calls_every_required_name(bench_run):
    # The Pochhammer memo's hit ratio is a traced metric: it is null when
    # special_functions._poch is gone, is no longer an lru_cache, or sees no
    # lookup, and a null metric ends the benchmark's run without a result line.
    prefix = bench_run.worker.RECORD_PREFIX
    missed, poch_lookups = {}, {}
    for name, workload in bench_run.WORKLOADS.items():
        argv, _ = bench_run.ellr_argv(name, 1, 0)
        proc = subprocess.run(
            [sys.executable, str(bench_run.WORKER), "--trace", "1", "--", *one_point(argv)],
            capture_output=True, text=True, env=bench_run._worker_env(), cwd=bench_run.ROOT,
            timeout=bench_run.INVOCATION_TIMEOUT_S,
        )
        records = [line for line in proc.stderr.splitlines() if line.startswith(prefix)]
        assert records, (name, proc.stderr[-500:])
        record = json.loads(records[-1][len(prefix):])
        missed[name] = [key for key in workload.must_call if record["calls"].get(key, 0) < 1]
        cache = record["poch_cache"]
        poch_lookups[name] = cache["hits"] + cache["misses"] if cache else None
    assert missed == {name: [] for name in bench_run.WORKLOADS}
    assert all(lookups for lookups in poch_lookups.values()), poch_lookups


def assert_first_draws_fail(bench_run, capsys, name, seed, draws, failing=None):
    """Run draws 0 .. ``draws`` - 1 of a workload at a bench seed in process and
    gate each with the benchmark's own ``check_output``: no ":error" row, no
    problem, and draw i fails exactly the rows ``failing[i]`` lists (none if
    absent), in report order."""
    from elliptic_rmatrix.cli import main

    failing = failing or {}
    workload = bench_run.WORKLOADS[name]
    for index in range(draws):
        argv, ellr_seed = bench_run.ellr_argv(name, seed, index)
        rc = main(list(argv))
        stdout = capsys.readouterr().out.encode()
        rows = json.loads(stdout)["reports"]
        assert not [row["check"] for row in rows if row["check"].endswith(":error")], argv
        failed = [row["check"] for row in rows if not bench_run._row_ok(row)]
        assert failed == failing.get(index, []), argv
        invocation = bench_run.Invocation(ellr_seed, False, False, rc, stdout, None, 0.0)
        verdict = bench_run.check_output(workload, invocation)
        assert (verdict.failed, verdict.problems) == (len(failed), []), (argv, verdict)


@pytest.mark.parametrize("seed", [1, 4242])
def test_first_verify_pairs_fail_no_row(bench_run, capsys, seed):
    # A failed or ":error" row of a verify-n3 draw counts against the run's
    # failed share, and an ":error" row's infinite residual drops out of the
    # headroom; the gate below is the benchmark's own, over its first 8 draws.
    assert_first_draws_fail(bench_run, capsys, "verify-n3", seed, 8)


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("name", ["scan-n6", "qdet-n4"])
def test_first_scan_and_qdet_pairs_fail_no_row(bench_run, capsys, name, seed):
    # every run makes at least min_pairs pairs, so these draws are in every run
    workload = bench_run.WORKLOADS[name]
    assert_first_draws_fail(bench_run, capsys, name, seed, workload.min_pairs)


# The qdet-n4 draws among the first 11 of bench seeds 1-10 and 4242 that fail
# (ROADMAP, known failing draws); a saved run makes 10 or 11 pairs, so each is in
# every run at its seed.
QDET_N4_FAILING = {
    5: {5: ["qdet[inverse_product]"]},  # --seed 3533503040: 1.14e-7
    7: {4: ["qdet[inverse_product]"] * 2},  # --seed 3918328718: 7.8e-8 and 1.02e-8
}


@pytest.mark.parametrize("seed", sorted(QDET_N4_FAILING))
def test_first_qdet_draws_fail_only_the_known_rows(bench_run, capsys, seed):
    assert_first_draws_fail(bench_run, capsys, "qdet-n4", seed, 11, QDET_N4_FAILING[seed])


def test_bench_argv_pass_the_range_checks(bench_run):
    # a guard that refused a bench draw would fail every row of that draw
    import numpy as np

    from elliptic_rmatrix import cli

    parser = cli._build_parser()
    for name in bench_run.WORKLOADS:
        for seed in (1, 2, 4242):
            for index in range(40):
                argv, _ = bench_run.ellr_argv(name, seed, index)
                config = cli._config_from_args(parser.parse_args(list(argv)))
                cli._resolve_params(config, np.random.default_rng(config.seed))
