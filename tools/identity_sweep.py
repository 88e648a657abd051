"""Compare every `ellr` output of this tree with those of another revision.

    python tools/identity_sweep.py --against REV

checks REV out with ``git worktree`` into a temporary directory, runs one
fixed command list (:func:`command_list`) in both trees with one BLAS
thread, and prints, per command, ``identical`` or what differs: the exit
code, each report row whose residual or verdict changed (with the largest
residual change), each row only one side has (with its verdict and residual),
and for ``matrix`` dumps the largest entry change.  The worktree is removed
afterwards.  Exit status 1 when a command's exit code changed, a row's
pass/fail verdict flipped or the set of rows changed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "1"

# what a differing command can show beyond moved values; each makes the exit status 1
FLIP = "a flip or exit-code change"
ROW_SET = "row set changed"

# Draws that fail at every revision so far (ROADMAP, known failing draws); the
# scan ones are in the scan list already.
KNOWN_FAILING = [
    ["qdet", "--n", "4", "--points", "2", "--seed", seed, "--format", "json"]
    for seed in ("152062143", "3328858614", "1506946534", "1242427736", "88274865", "4261092569",
                 "3533503040", "3918328718")
]

# The benchmark's own argument shapes (bench/run.py): verify-n3 pins (q, p) as
# literals of moduli 0.55 and 0.275, so it takes the literal path with its
# coarser genericity margin; scan-n6 runs YBE over an 8x8 grid at N = 6.
BENCH_SHAPED = [
    ["verify", "--n", "3", "--points", "10", "--seed", SEED,
     "--q=-0.51516495763854764-0.19262675416793329i",
     "--p=-0.22064090143665704-0.16414198918381429i", "--format", "json"],
    ["scan", "--n", "6", "--check", "ybe", "--grid", "8x8", "--seed", SEED, "--format", "json"],
]


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: str
    stderr: str


def command_list() -> list[list[str]]:
    """scan at N = 3 and 6 for each check and kind (eight-vertex at N = 2), matrix
    for every kind, limits at N = 2 and 3 as json and as its own text table,
    verify at N = 2..4, qdet at N = 2..4, verify at N = 3 as csv and text and
    qdet at N = 3 as csv, qdet at one drawn and at one literal point, the known
    failing draws and the benchmark-shaped commands."""
    sys.path.insert(0, str(ROOT / "src"))
    from elliptic_rmatrix.property_suite import CHECKS
    from elliptic_rmatrix.rmatrix_builders import RKind

    commands = []
    for name, check in CHECKS.items():
        for kind in check.kinds:
            for n in (3, 6) if kind.exists_at(3) else (2,):
                commands.append(["scan", "--n", str(n), "--check", name, "--kind", kind.value,
                                 "--grid", "3x3", "--seed", SEED, "--format", "json"])
    for kind in RKind:
        for n in (2, 3) if kind.exists_at(3) else (2,):
            commands.append(["matrix", "--n", str(n), "--kind", kind.value, "--seed", SEED])
    for n in (2, 3):
        commands.append(["limits", "--n", str(n), "--seed", SEED, "--format", "json"])
        commands.append(["limits", "--n", str(n), "--seed", SEED, "--format", "text"])
    for n in (2, 3, 4):
        commands.append(["verify", "--n", str(n), "--seed", SEED, "--format", "json"])
        commands.append(["qdet", "--n", str(n), "--points", "2", "--seed", SEED,
                         "--format", "json"])
    # the formats json's writer does not serve
    commands += [["verify", "--n", "3", "--seed", SEED, "--format", fmt] for fmt in ("csv", "text")]
    commands.append(["qdet", "--n", "3", "--points", "2", "--seed", SEED, "--format", "csv"])
    commands.append(["qdet", "--n", "3", "--points", "1", "--seed", SEED, "--format", "json"])
    commands.append(["qdet", "--n", "2", "--z", "1.1+0.2i", "--seed", SEED, "--format", "json"])
    return commands + KNOWN_FAILING + BENCH_SHAPED


def ellr_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_ellr(src: Path, argv: list[str]) -> Outcome:
    proc = subprocess.run([sys.executable, "-m", "elliptic_rmatrix", *argv], capture_output=True,
                          text=True, env=ellr_env(src), cwd=src.parent, timeout=600)
    return Outcome(proc.returncode, proc.stdout, proc.stderr)


def _rows(stdout: str) -> list[dict] | None:
    try:
        return json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError):
        return None


def _name(row: dict) -> str:
    cell = row.get("detail", {}).get("cell")
    return row["check"] + (f" cell {cell}" if cell is not None else "")


def _label(index: int, row: dict) -> str:
    return f"#{index} {_name(row)}"


def _keyed(rows: list[dict]) -> dict[tuple[str, int], tuple[int, dict]]:
    """Each row with its index, keyed by its name and its rank among the rows of that name."""
    seen: Counter[str] = Counter()
    keyed = {}
    for index, row in enumerate(rows):
        name = _name(row)
        keyed[name, seen[name]] = index, row
        seen[name] += 1
    return keyed


def _row_lines(old: list[dict], new: list[dict]) -> tuple[list[str], set[str]]:
    """The rows that differ, largest residual change first, then the rows only one
    side has; and which of FLIP and ROW_SET they show.  Rows pair up by name."""
    old_rows, new_rows = _keyed(old), _keyed(new)
    changed = []
    flipped = False
    for key, (index, a) in old_rows.items():
        if key not in new_rows or a == new_rows[key][1]:
            continue
        b = new_rows[key][1]
        flip = a["passed"] != b["passed"]
        flipped |= flip
        change = abs(b["residual"] - a["residual"])
        line = (f"{_label(index, a)}: residual {a['residual']:.6e} -> {b['residual']:.6e} "
                f"(change {change:.2e})" if change else f"{_label(index, a)}: detail differs")
        line += " FLIP" if flip else ""
        changed.append((change, line))
    changed.sort(key=lambda item: -item[0])
    lines = [line for _, line in changed]
    only = [f"{word} {_label(index, row)}: {'passed' if row['passed'] else 'failed'}, "
            f"residual {row['residual']:.6e}"
            for word, rows, other in (("removed", old_rows, new_rows), ("added", new_rows, old_rows))
            for key, (index, row) in rows.items() if key not in other]
    kinds = {FLIP} if flipped else set()
    if only:
        kinds.add(ROW_SET)
        lines += [f"row count {len(old)} -> {len(new)}", *only]
    return lines, kinds


def _entries(stdout: str) -> list[complex]:
    entries = []
    for line in stdout.splitlines():
        if line and not line.startswith("#"):
            _, _, re, im = line.split(", ")
            entries.append(complex(float(re), float(im)))
    return entries


def compare(old: Outcome, new: Outcome) -> tuple[list[str], set[str]]:
    """What differs between two runs of one command, and which of FLIP (exit code
    or verdict) and ROW_SET it shows; no lines when they are identical."""
    if old == new:
        return [], set()
    lines = []
    kinds = {FLIP} if old.rc != new.rc else set()
    if kinds:
        lines.append(f"exit code {old.rc} -> {new.rc}")
    if old.stderr != new.stderr:
        lines.append(f"stderr {old.stderr.strip()[-200:]!r} -> {new.stderr.strip()[-200:]!r}")
    if old.stdout != new.stdout:
        old_rows, new_rows = _rows(old.stdout), _rows(new.stdout)
        if old_rows is not None and new_rows is not None:
            row_lines, row_kinds = _row_lines(old_rows, new_rows)
            lines.extend(row_lines or ["rows equal, formatting differs"])
            kinds |= row_kinds
        else:
            try:
                a, b = _entries(old.stdout), _entries(new.stdout)
            except ValueError:
                a = b = None
            if a is not None and len(a) == len(b):
                scale = max(abs(v) for v in a) or 1.0
                worst = max(abs(u - v) for u, v in zip(a, b))
                moved = sum(u != v for u, v in zip(a, b))
                lines.append(f"{moved} of {len(a)} entries moved, largest change "
                             f"{worst:.2e} ({worst / scale:.2e} of max |entry|)")
            else:
                lines.append("output differs")
    return lines, kinds


def sweep(other_src: Path, commands: list[list[str]]) -> bool:
    """Print one verdict per command; True when nothing flipped and no row set changed."""
    found: set[str] = set()
    identical = 0
    for argv in commands:
        lines, kinds = compare(run_ellr(other_src, argv), run_ellr(ROOT / "src", argv))
        found |= kinds
        identical += not lines
        print(("identical  " if not lines else "differs    ") + " ".join(argv), flush=True)
        for line in lines:
            print(f"    {line}")
    summary = "; ".join(kind for kind in (FLIP, ROW_SET) if kind in found)
    print(f"{identical} of {len(commands)} commands identical; "
          f"{summary or 'no flip or exit-code change'}")
    return not found


def main(argv: list[str] | None = None, commands: list[list[str]] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    commands = command_list() if commands is None else commands
    with tempfile.TemporaryDirectory(prefix="identity-sweep-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.against], check=True)
        try:
            clean = sweep(tree / "src", commands)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
