"""Summarise repeated benchmark runs, and compare two sets of them.

    python3 bench/compare.py bench/results                 # one set
    python3 bench/compare.py parent_results change_results # two sets

Each argument is a directory of result files written by ``run.py``
(``<workload>/seed<S>-trace<T>.json``).  For every workload and metric the
tool prints the median over seeds and the quartile spread (the distance
between the first and third quartile as a share of the median).  With two
sets it also prints the change's median relative to the parent's, and the
bound from BENCHMARK.json for end-to-end metrics.

Results taken with different BLAS thread counts, core counts or Python and
numpy versions are refused: the BLAS thread count alone moves qdet-n4 by
about 1.75x.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("blas", "blas_threads", "nproc", "python", "numpy")


def load(folder: Path) -> tuple[dict, dict]:
    """{(workload, trace): {metric: [values]}} and the shared environment."""
    values: dict = defaultdict(lambda: defaultdict(list))
    env: dict | None = None
    for path in sorted(folder.rglob("seed*-trace*.json")):
        result = json.loads(path.read_text())
        here = {key: result["environment"][key] for key in MUST_MATCH}
        if env is not None and here != env:
            raise SystemExit(f"{path}: environment {here} differs from {env} in the same set")
        env = here
        if not result["correct"]:
            raise SystemExit(f"{path}: run was not correct ({result['problems']})")
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values[(result["workload"], result["trace"])][name].append(metric["value"])
    if env is None:
        raise SystemExit(f"no result files under {folder}")
    return values, env


def spread(values: list[float]) -> tuple[float, float | None]:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    sets = [load(Path(arg)) for arg in argv]
    if len(sets) == 2 and sets[0][1] != sets[1][1]:
        raise SystemExit(f"refusing to compare: environments differ\n  {sets[0][1]}\n  {sets[1][1]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base = sets[0][0]
    for key in sorted(base):
        workload, trace = key
        print(f"# {workload} trace {int(trace)}  n={len(next(iter(base[key].values())))}")
        for name, values in base[key].items():
            median, rel = spread(values)
            line = f"{name:60s} median {median:<14.6g} spread {'-' if rel is None else f'{rel:.4f}':>7s}"
            if name in bounds:
                line += f" bound {bounds[name]}"
            if len(sets) == 2 and name in sets[1][0].get(key, {}):
                other, other_rel = spread(sets[1][0][key][name])
                ratio = other / median if median else float("nan")
                line += f" | change median {other:<14.6g} ratio {ratio:.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
