"""Self-test of the benchmark itself (not of the program).

    python3 bench/selftest.py [workload ...]

Checks, in order:

1. the size guard refuses qdet and verify above N = 4, and any workload
   over a memory budget, before starting a process;
2. the output gate fails a row above its tolerance, a canary that passes and
   an :error row, and rejects a report with a missing row, an exit code that
   disagrees with its rows, or unreadable output;
3. the Pochhammer hit ratio becomes null when the cache is gone;
4. compare.py refuses results taken with different BLAS thread counts;
5. in a directory holding only BENCHMARK.json and bench/, run.py exits
   nonzero without printing a result;
6. two traced runs with the same seed record identical counts (the named
   workloads, default all three; about a minute in all).

Exits 0 when every check holds.  Scratch files go to bench/results/selftest.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types

import compare
import run
import worker

SCRATCH = run.RESULTS / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def refused(argv: tuple[str, ...], budget: int | None = None) -> bool:
    try:
        run.size_guard(argv, budget)
    except run.BenchError:
        return True
    return False


def check_size_guard() -> None:
    expect(refused(("qdet", "--n", "5")), "size guard refuses qdet at N = 5")
    expect(refused(("verify", "--n", "6")), "size guard refuses verify at N = 6")
    expect(refused(("scan", "--n", "20", "--check", "ybe"), budget=2**30),
           "size guard refuses a scan over a 1 GiB budget")
    for name, workload in run.WORKLOADS.items():
        expect(not refused(workload.argv), f"size guard admits {name}")


def check_gate() -> None:
    workload = run.WORKLOADS["verify-n3"]
    argv, seed = run.ellr_argv("verify-n3", 0, 0)
    good = run.invoke(argv, seed, traced=False)
    verdict = run.check_output(workload, good)
    expect(verdict.ok and verdict.failed == 0 and verdict.attempted == workload.rows,
           "gate passes a correct report")

    def mutated(edit, rc: int = 0) -> run.Verdict:
        document = json.loads(good.stdout)
        edit(document["reports"])
        changed = dataclasses.replace(good, stdout=json.dumps(document).encode(), rc=rc)
        return run.check_output(workload, changed)

    def worsen(rows):
        row = next(r for r in rows if not run._is_canary(r))
        row["residual"] = row["tolerance"] * 10

    def quiet_canary(rows):
        next(r for r in rows if run._is_canary(r))["residual"] = 1e-12

    def error_row(rows):
        rows[0]["check"] += ":error"

    honest = mutated(worsen, rc=1)
    expect(honest.ok and honest.failed == 1,
           "gate fails a row above its tolerance, in a report that is not broken")
    expect(mutated(quiet_canary, rc=1).failed == 1, "gate fails a canary that does not fail loudly")
    expect(mutated(error_row, rc=1).failed == 1, "gate fails an :error row")

    def one_row_loses_digits(rows):
        row = next(r for r in rows if not run._is_canary(r) and r["residual"] > 0)
        row["residual"] = row["tolerance"] / 10
    expect(abs(mutated(one_row_loses_digits).headroom - 1.0) < 1e-12,
           "gate's tolerance headroom is set by the single worst row")
    expect(not mutated(lambda rows: rows.pop()).ok, "gate fails a report with a missing row")
    wrong_rc = mutated(lambda rows: None, rc=1)
    expect(not wrong_rc.ok and wrong_rc.failed == workload.rows,
           "gate fails every row of a report whose exit code disagrees with its rows")
    garbled = dataclasses.replace(good, stdout=b"not json")
    expect(run.check_output(workload, garbled).failed == workload.rows,
           "gate fails every row of an unreadable report")


def check_nullable_hit_ratio() -> None:
    expect(worker._poch_cache_info(types.SimpleNamespace()) is None,
           "hit ratio is null once the Pochhammer cache is gone")


def write_result(folder, threads: int) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    env = {key: "x" for key in compare.MUST_MATCH} | {"blas_threads": threads}
    result = {"workload": "qdet-n4", "trace": False, "correct": True, "problems": [],
              "environment": env, "metrics": {"points_per_s": {"value": 1.0, "unit": "1/s"}}}
    (folder / "seed1-trace0.json").write_text(json.dumps(result))


def check_compare_refuses_thread_mismatch() -> None:
    write_result(SCRATCH / "one", 1)
    write_result(SCRATCH / "two", 2)
    try:
        compare.main([str(SCRATCH / "one"), str(SCRATCH / "two")])
    except SystemExit as exc:
        expect("environments differ" in str(exc), "compare refuses different BLAS thread counts")
        return
    expect(False, "compare refuses different BLAS thread counts")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qdet-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py without the sources exits nonzero and prints no result")


def check_same_seed_counts(names: list[str]) -> None:
    for name in names:
        first = run.run(name, 7, 0, trace=True)
        second = run.run(name, 7, 0, trace=True)
        counts = {key: m["value"] for key, m in first["metrics"].items()
                  if m["unit"] in ("count", "bytes-computed", "bytes")}
        again = {key: second["metrics"][key]["value"] for key in counts}
        expect(first["correct"] and second["correct"] and counts == again and counts,
               f"{name}: two same-seed traced runs record identical counts ({len(counts)} counts)")


def main(argv: list[str]) -> int:
    names = argv or list(run.WORKLOADS)
    unknown = sorted(set(names) - set(run.WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workloads: {unknown}")
    check_size_guard()
    check_gate()
    check_nullable_hit_ratio()
    check_compare_refuses_thread_mismatch()
    check_bare_directory()
    check_same_seed_counts(names)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
