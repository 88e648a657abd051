"""Benchmark of the ``ellr`` command: three workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-n3 --seed 1 --seconds 35 --trace 0

Every invocation of ``ellr`` runs in a fresh worker process (``worker.py``)
that imports the package from ``src/``, calls ``cli.main`` once and exits,
so each pays the import and starts with a cold Pochhammer cache, as a user's
call does.  The load is a closed loop with one caller: the next invocation
starts when the previous one has ended.  BLAS runs with the same thread
count in every worker, at most ``nproc``.

``--trace 0`` measures the end-to-end metrics.  Its invocations come in
pairs, one of the program in ``src/`` and one of the seed snapshot in
``bench/reference/`` on the same arguments, whose ``ellr --seed`` is drawn
from ``--seed``; see ``end_to_end`` for why.  ``--trace 1`` alternates
untraced and traced invocations of the program at one seed and reports the
per-layer metrics, with the tracing overhead as the difference of their wall
times.  Every invocation's report is checked (see ``check_output``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment and the per-function breakdown, is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"

# Every worker gets this many BLAS threads (capped at nproc); qdet-n4 runs
# about 1.75x slower with one thread than with two, so results taken with
# different counts are never compared (see compare.py).
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A canary row passes only when its residual exceeds this (the suite's
# effective_pass rule: a must-fail check must fail loudly).
CANARY_MARGIN = 1e-3

# Size guard.  The dense operators on N^(N+1) dimensions (qdet product route,
# also run by verify) and on N^3 dimensions (YBE) are the largest arrays;
# peak RSS at qdet-n4 is about six such matrices above the interpreter's own.
LIVE_MATRICES = 8
MEMORY_SHARE = 4  # the budget is this fraction of the machine's memory
# embed() at N = 5 allocates 3.9 GB per factor; qdet and verify wait for
# slot-local contraction before they run above N = 4.
MAX_DENSE_QDET_N = 4

INVOCATION_TIMEOUT_S = 120
# Set-up-only pairs at the start of a run: set-up is short and noisy, and a
# full call of qdet-n4 or scan-n6 takes seconds, so a run has few of those.
SETUP_PAIRS = 8


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    points: int  # --points samples, grid cells or z points per invocation
    rows: int  # report rows one invocation must produce
    canaries: int  # rows that must fail loudly
    must_call: tuple[str, ...]  # functions the traced run must see called
    min_pairs: int  # every run makes at least these, whatever --seconds says
    # The seed snapshot's points per second and set-up seconds on the machine
    # of baseline.json, from one 30-second run; the time metrics are these
    # times the program's speed relative to the snapshot (see end_to_end).
    seed_points_per_s: float
    seed_setup_s: float
    # The seed snapshot's worst-row headroom, median over seeds 1-10; the
    # accuracy metric is this plus the program's change on the same inputs.
    seed_headroom_log10: float
    # (|q|, |p|) for workloads that pin one parameter pair per invocation; the
    # phases come from the seed.  The cost of the Pochhammer products depends
    # on the moduli alone, so pinning them makes the work per invocation
    # independent of the seed (their cache misses spread by 2.5% across seeds,
    # against 50% when ellr draws the moduli too).
    moduli: tuple[float, float] | None = None


_COMMON_CALLS = (
    "special_functions.theta",
    "special_functions.pochhammer_inf",
    "rmatrix_builders.build_r",
    "tensor_algebra.embed",
    "cli.main",
)

# Why each workload exists is recorded in BENCHMARK.json; its seeds and the
# seed-commit figures are in baseline.json.
WORKLOADS = {
    "verify-n3": Workload(
        argv=("verify", "--n", "3", "--points", "10", "--format", "json"),
        points=10,
        rows=242,
        canaries=10,
        must_call=_COMMON_CALLS + (
            "rmatrix_builders.kappa_inv",
            "tensor_algebra.antisymmetrizer",
            "tensor_algebra.spectral",
            "property_suite.run_suite",
            "property_suite.check_ybe",
            "property_suite.check_transpose_symmetry",
            "qdet_engine.verify_qdet",
            "qdet_engine.inverse_product_residual",
            "qdet_engine.centrality_witness",
        ),
        min_pairs=8,
        seed_points_per_s=11.7,
        seed_setup_s=0.30,
        seed_headroom_log10=2.39,
        moduli=(0.55, 0.275),  # centres of the suite's sampling annuli for q and p
    ),
    "scan-n6": Workload(
        argv=("scan", "--n", "6", "--check", "ybe", "--grid", "8x8", "--format", "json"),
        points=64,
        rows=64,
        canaries=0,
        must_call=_COMMON_CALLS + ("rmatrix_builders.kappa_inv", "property_suite.check_ybe"),
        min_pairs=3,
        seed_points_per_s=17.6,
        seed_setup_s=0.30,
        seed_headroom_log10=5.60,
    ),
    "qdet-n4": Workload(
        argv=("qdet", "--n", "4", "--points", "2", "--format", "json"),
        points=2,
        rows=19,
        canaries=0,
        must_call=_COMMON_CALLS + (
            "tensor_algebra.antisymmetrizer",
            "qdet_engine.verify_qdet",
            "qdet_engine.inverse_product_residual",
            "qdet_engine.qdet_sum_formula",
            "qdet_engine.qdet_closed_form",
        ),
        min_pairs=3,
        seed_points_per_s=0.451,
        seed_setup_s=0.30,
        seed_headroom_log10=3.60,
    ),
}

SCALARS = ("kappa_inv", "eta", "tau", "u_scalar", "rho")
KINDS = ("elliptic", "elliptic-hat", "eightvertex", "homogeneous", "principal", "nonelliptic")


class BenchError(Exception):
    """The benchmark cannot run or cannot trust what it measured."""


# ---------------------------------------------------------------------------
# environment and size guard


def blas_threads() -> int:
    return min(BLAS_THREADS, nproc())


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def memory_bytes() -> int:
    """Physical memory, or the cgroup limit when that is lower."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
    except OSError:
        return total
    return min(total, int(limit)) if limit.isdigit() else total


def option(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def dense_bytes(argv: tuple[str, ...]) -> int:
    """Bytes of the largest dense operators an ``ellr`` call will hold at once."""
    command, n = argv[0], int(option(argv, "--n"))
    dim = n**3
    if command in ("verify", "qdet"):
        dim = max(dim, n ** (n + 1))
    return LIVE_MATRICES * 16 * dim * dim


def size_guard(argv: tuple[str, ...], budget: int | None = None) -> None:
    """Refuse a workload before any worker starts if it would not fit."""
    command, n = argv[0], int(option(argv, "--n"))
    if command in ("verify", "qdet") and n > MAX_DENSE_QDET_N:
        raise BenchError(
            f"{command} at N = {n} embeds dense operators on {n ** (n + 1)} dimensions; "
            f"refused above N = {MAX_DENSE_QDET_N}"
        )
    budget = memory_bytes() // MEMORY_SHARE if budget is None else budget
    need = dense_bytes(argv)
    if need > budget:
        raise BenchError(
            f"{' '.join(argv)} needs about {need / 2**20:.0f} MiB of dense operators; "
            f"the budget is {budget / 2**20:.0f} MiB"
        )


def _git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "memory_bytes": memory_bytes(),
    }


# ---------------------------------------------------------------------------
# invocations and the output gate


def ellr_argv(name: str, seed: int, index: int) -> tuple[tuple[str, ...], int]:
    """The arguments of invocation ``index`` of a run, and its ``ellr --seed``."""
    workload = WORKLOADS[name]
    raw = hashlib.sha256(f"{name}/{seed}/{index}".encode()).digest()
    ellr_seed = int.from_bytes(raw[:4], "big")
    argv = workload.argv + ("--seed", str(ellr_seed))
    if workload.moduli:
        rng = random.Random(ellr_seed)
        for flag, modulus in zip(("--q", "--p"), workload.moduli):
            value = cmath.rect(modulus, rng.uniform(-math.pi, math.pi))
            # attached with "=": argparse would read a leading minus as a flag
            argv += (f"{flag}={value.real:.17g}{value.imag:+.17g}i",)
    return argv, ellr_seed


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for name in BLAS_ENV:
        env[name] = str(blas_threads())
    return env


@dataclass
class Invocation:
    seed: int
    traced: bool
    reference: bool
    rc: int
    stdout: bytes
    record: dict | None
    t_spawn: float
    error: str | None = None

    @property
    def main_s(self) -> float:
        return self.record["t_main_end"] - self.record["t_main_start"]

    @property
    def setup_s(self) -> float:
        return self.record["t_setup_end"] - self.t_spawn

    @property
    def compute_s(self) -> float:
        return self.record["t_main_end"] - self.record["t_setup_end"]


def invoke(argv: tuple[str, ...], seed: int, traced: bool, reference: bool = False,
           mode: str | None = None) -> Invocation:
    """One worker call; ``mode`` "setup" stops it at the end of set-up."""
    cmd = [sys.executable, str(WORKER), *(["--reference"] if reference else []),
           "--trace", mode or ("1" if traced else "0"), "--", *argv]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=_worker_env(), cwd=ROOT,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Invocation(seed, traced, reference, -1, b"", None, t_spawn, "worker timed out")
    record = None
    for line in reversed(proc.stderr.decode(errors="replace").splitlines()):
        if line.startswith(worker.RECORD_PREFIX):
            record = json.loads(line[len(worker.RECORD_PREFIX):])
            break
    error = None if record else "worker wrote no record: " + proc.stderr.decode(errors="replace")[-500:]
    if record and not traced and record["t_setup_end"] is None:
        record, error = None, "the run never reached property_suite or qdet_engine"
    return Invocation(seed, traced, reference, proc.returncode, proc.stdout, record, t_spawn, error)


@dataclass
class Verdict:
    attempted: int  # report rows
    failed: int  # rows that fail the suite's verdict, or every row of a broken report
    headroom: float | None  # the smallest log10(tolerance / residual) of a non-canary row
    problems: list[str]  # why the report itself cannot be trusted

    @property
    def ok(self) -> bool:
        """The report is whole and consistent; some of its checks may still fail."""
        return not self.problems


def _is_canary(row: dict) -> bool:
    return bool((row.get("detail") or {}).get("canary"))


def _row_ok(row: dict) -> bool:
    residual, tolerance = row.get("residual"), row.get("tolerance")
    if str(row.get("check", "")).endswith(":error"):
        return False
    if not isinstance(residual, (int, float)) or not isinstance(tolerance, (int, float)):
        return False
    if math.isnan(residual) or residual < 0:
        return False
    if _is_canary(row):
        return residual > CANARY_MARGIN
    return residual <= tolerance and row.get("passed") is True


def check_output(workload: Workload, inv: Invocation) -> Verdict:
    """Gate one invocation's report: exit code, structure and every row.

    A report that cannot be read, or whose shape, config or exit code is
    wrong, is a problem and fails all its rows, or all the rows it should
    have had if there are fewer.  Otherwise each row that fails the suite's
    verdict (canaries must fail loudly) counts once; such a report is still
    a faithful one, and its points count as done.
    """
    expected = workload.rows
    if inv.error:
        return Verdict(expected, expected, None, [inv.error])
    try:
        document = json.loads(inv.stdout)
        rows, config = document["reports"], document["config"]
    except (ValueError, KeyError, TypeError):
        return Verdict(expected, expected, None, ["report is not the expected JSON document"])
    failed = sum(1 for row in rows if not _row_ok(row))
    problems = []
    if inv.rc != (1 if failed else 0):
        problems.append(f"exit code {inv.rc} with {failed} failed rows")
    if config.get("seed") != inv.seed or config.get("N") != int(option(workload.argv, "--n")):
        problems.append("report config does not match the invocation")
    if len(rows) != expected:
        problems.append(f"{len(rows)} report rows, expected {expected}")
    canaries = sum(1 for row in rows if _is_canary(row))
    if canaries != workload.canaries:
        problems.append(f"{canaries} canary rows, expected {workload.canaries}")
    if problems:
        failed = max(expected, len(rows))
    margins = [
        math.log10(row["tolerance"] / row["residual"]) for row in rows
        if not _is_canary(row) and isinstance(row.get("residual"), (int, float))
        and isinstance(row.get("tolerance"), (int, float))
        and 0 < row["residual"] < math.inf and row["tolerance"] > 0
    ]
    return Verdict(max(expected, len(rows)), failed, min(margins, default=None), problems)


def worst_headroom(verdicts: list[Verdict]) -> float | None:
    """The worst non-canary row's log10(tolerance / residual) over the reports."""
    values = [v.headroom for v in verdicts]
    return None if None in values or not values else min(values)


# ---------------------------------------------------------------------------
# runs


def _warm_up() -> None:
    """Compile bytecode and load shared libraries once; users pay this only once."""
    for flags in ([], ["--reference"]):
        subprocess.run([sys.executable, str(WORKER), *flags, "--import-only"], env=_worker_env(),
                       cwd=ROOT, check=True, capture_output=True, timeout=INVOCATION_TIMEOUT_S)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Pairs of calls, program and seed snapshot, on the same arguments.

    Other tenants on the host change its speed by up to 2x, for single calls
    and for minutes at a time, so raw times of runs made minutes apart do
    not compare.  The two calls of a pair see the same host, and their ratio
    does not depend on it: ``points_per_s`` and ``setup_s`` are the median
    pair ratio times the snapshot's own figure on the baseline machine.

    ``tol_headroom_log10`` is the worst non-canary row's log10(tolerance /
    residual) over the first ``min_pairs`` pairs.  Across seeds it spreads
    by 8-10% on verify-n3 and scan-n6 and from 2.5 to 5.8 on qdet-n4, as the
    draws change, so the metric is the snapshot's median over seeds 1-10
    plus the program's worst row minus the snapshot's on the same inputs: it
    moves only when the program's accuracy does.  The raw figures are
    reported too, under ``raw.`` and ``seed_snapshot.``.
    """
    workload = WORKLOADS[name]

    def pair(index: int, mode: str | None = None) -> tuple[Invocation, Invocation]:
        argv, ellr_seed = ellr_argv(name, seed, index)
        # alternate which side runs first, so that neither always follows the other
        order = (False, True) if index % 2 == 0 else (True, False)
        done = {ref: invoke(argv, ellr_seed, False, ref, mode) for ref in order}
        return done[False], done[True]

    start = time.monotonic()
    setup = []
    for index in range(SETUP_PAIRS):
        prog, ref = pair(index, mode="setup")
        if not (prog.record and ref.record):
            raise BenchError(f"a set-up-only call failed: {prog.error or ref.error}")
        setup.append(prog.setup_s / ref.setup_s)
    pairs: list[tuple[tuple[Invocation, Verdict], tuple[Invocation, Verdict]]] = []
    while len(pairs) < workload.min_pairs or time.monotonic() - start < seconds:
        prog, ref = pair(len(pairs))
        pairs.append(((prog, check_output(workload, prog)), (ref, check_output(workload, ref))))
    broken = sorted({p for _, (_, verdict) in pairs for p in verdict.problems})
    if broken:
        raise BenchError(f"the seed snapshot's reports are broken: {broken}")

    program = [inv for (inv, _), _ in pairs if inv.record]
    snapshot = [inv for _, (inv, _) in pairs]
    # a program call with a broken report completed no points
    speed = [ref.compute_s / inv.compute_s if verdict.ok else 0.0
             for (inv, verdict), (ref, _) in pairs]
    setup += [inv.setup_s / ref.setup_s for (inv, _), (ref, _) in pairs if inv.record]
    verdicts = [verdict for (_, verdict), _ in pairs]
    # over a fixed prefix of pairs, so that it depends on the seed only
    headroom = worst_headroom(verdicts[:workload.min_pairs])
    snapshot_headroom = worst_headroom([v for _, (_, v) in pairs[:workload.min_pairs]])
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    metrics = {
        "points_per_s": (workload.seed_points_per_s * statistics.median(speed), "1/s"),
        "setup_s": (workload.seed_setup_s * statistics.median(setup), "s"),
        "peak_rss_mb": (_median(inv.record["maxrss_kb"] / 1024 for inv in program), "MiB"),
        "fail_frac": (failed / attempted, "ratio"),
        "tol_headroom_log10": (None if headroom is None else
                               workload.seed_headroom_log10 + headroom - snapshot_headroom, "log10"),
        "raw.points_per_s": (_median(workload.points / inv.compute_s for inv in program), "1/s"),
        "raw.setup_s": (_median(inv.setup_s for inv in program), "s"),
        "raw.tol_headroom_log10": (headroom, "log10"),
        "seed_snapshot.points_per_s": (
            statistics.median(workload.points / inv.compute_s for inv in snapshot), "1/s"),
        "seed_snapshot.setup_s": (statistics.median(inv.setup_s for inv in snapshot), "s"),
        "seed_snapshot.tol_headroom_log10": (snapshot_headroom, "log10"),
    }
    return metrics, [inv_verdict for pair in pairs for inv_verdict in pair]


def _layer_metrics(traced: list[Invocation], untraced: list[Invocation], workload: Workload) -> dict:
    first = traced[0].record
    calls, counts = first["calls"], first["counts"]
    for inv in traced[1:]:
        if inv.record["calls"] != calls or inv.record["counts"] != counts:
            raise BenchError("traced invocations of one seed recorded different counts")
    silent = [key for key in workload.must_call if calls.get(key, 0) == 0]
    if silent:
        raise BenchError(f"layers the workload must exercise recorded no calls: {silent}")

    def med(fn):
        return statistics.median(fn(inv.record) for inv in traced)

    def module_self(record, module):
        return sum(v for k, v in record["self_s"].items() if k.startswith(module + "."))

    metrics = {}
    for module in worker.MODULES:
        metrics[f"{module}.self_s"] = (med(lambda r, m=module: module_self(r, m)), "s")
        metrics[f"{module}.self_share"] = (
            med(lambda r, m=module: module_self(r, m) / sum(r["self_s"].values())), "ratio")
    for key in sorted(calls):
        metrics[f"{key}.self_s"] = (med(lambda r, k=key: r["self_s"][k]), "s")
        metrics[f"{key}.calls"] = (calls[key], "count")
    build_calls = calls["rmatrix_builders.build_r"]
    metrics["rmatrix_builders.build_r.ms_per_call"] = (
        1000 * metrics["rmatrix_builders.build_r.self_s"][0] / build_calls, "ms")
    metrics["rmatrix_builders.scalars.self_s"] = (
        med(lambda r: sum(r["self_s"][f"rmatrix_builders.{s}"] for s in SCALARS)), "s")
    for kind in KINDS:
        key = f"rmatrix_builders.build_r.calls.{kind}"
        metrics[key] = (counts.get(key, 0), "count")
    metrics["tensor_algebra.embed.bytes"] = (
        counts.get("tensor_algebra.embed.bytes", 0), "bytes-computed")
    cache = first["poch_cache"]
    lookups = cache["hits"] + cache["misses"] if cache else 0
    metrics["special_functions.poch_cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else None, "ratio")
    metrics["cli.output_bytes"] = (len(traced[0].stdout), "bytes")
    traced_wall = statistics.median(inv.main_s for inv in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(inv.main_s for inv in untraced), "s")
    # cli.main is the outermost span, so its self time holds whatever no named
    # layer covers; coverage is the share of the traced wall time outside it.
    metrics["trace.coverage"] = (
        med(lambda r: (sum(r["self_s"].values()) - r["self_s"]["cli.main"])
            / (r["t_main_end"] - r["t_main_start"])), "ratio")
    return metrics


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, list]:
    workload = WORKLOADS[name]
    argv, ellr_seed = ellr_argv(name, seed, 0)
    invocations: list[tuple[Invocation, Verdict]] = []
    start = time.monotonic()
    while len(invocations) < 4 or time.monotonic() - start < seconds:
        for traced in (False, True):
            inv = invoke(argv, ellr_seed, traced=traced)
            invocations.append((inv, check_output(workload, inv)))
    if any(not verdict.ok for _, verdict in invocations):
        return {}, invocations
    outputs = {inv.stdout for inv, _ in invocations}
    if len(outputs) != 1:
        raise BenchError("same-seed invocations produced different reports")
    traced = [inv for inv, _ in invocations if inv.traced]
    untraced = [inv for inv, _ in invocations if not inv.traced]
    return _layer_metrics(traced, untraced, workload), invocations


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    if not (SRC / "elliptic_rmatrix" / "cli.py").is_file():
        raise BenchError(f"no elliptic_rmatrix sources under {SRC}")
    size_guard(workload.argv)
    env = environment()
    _warm_up()
    metrics, invocations = (per_layer if trace else end_to_end)(name, seed, seconds)
    verdicts = [v for inv, v in invocations if not inv.reference]
    problems = sorted({p for v in verdicts for p in v.problems})
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "correct": all(v.ok for v in verdicts),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "problems": problems,
        "invocations": [
            {"ellr_seed": inv.seed, "traced": inv.traced, "reference": inv.reference,
             "rc": inv.rc, "main_s": inv.main_s if inv.record else None,
             "compute_s": inv.compute_s if inv.record and not inv.traced else None,
             "setup_s": inv.setup_s if inv.record and not inv.traced else None,
             "failed": v.failed}
            for inv, v in invocations
        ],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def save(result: dict) -> Path:
    folder = RESULTS / result["workload"]
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def summary_line(result: dict, names: list[str]) -> str:
    metrics = {name: result["metrics"][name] for name in names if name in result["metrics"]}
    return json.dumps({
        "correct": result["correct"] and len(metrics) == len(names),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def metric_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(result: dict) -> None:
    print(f"# {result['workload']} seed {result['seed']} trace {int(result['trace'])} "
          f"blas_threads {result['environment']['blas_threads']} nproc {result['environment']['nproc']}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{key:60s} {shown:>14s} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    save(result)
    print_table(result)
    print(summary_line(result, metric_names(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
