"""Print every metric, by name and unit, for every workload.

    python3 bench/report.py

Runs each workload once untraced (the end-to-end metrics) and once traced
(the per-layer metrics, with every public function's calls and self time),
each for BENCHMARK.json's ``run_seconds`` at the workload's default seed in
baseline.json, and prints each result's table.  Exits nonzero if any run
was not correct.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    baseline = json.loads((run.BENCH / "baseline.json").read_text())["workloads"]
    correct = True
    for name in run.WORKLOADS:
        seed = baseline[name]["default_seed"]
        for trace in (False, True):
            try:
                result = run.run(name, seed, seconds, trace)
            except run.BenchError as exc:
                print(f"# {name} trace {int(trace)}: benchmark error: {exc}")
                correct = False
                continue
            run.save(result)
            run.print_table(result)
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
