"""Compare every `ellr` output of this tree with those of another revision.

    python tools/identity_sweep.py --against REV

checks REV out with ``git worktree`` into a temporary directory, runs one
fixed command list (:func:`command_list`) in both trees with one BLAS
thread, and prints, per command, ``identical`` or what differs: the exit
code, each report row whose residual or verdict changed (with the largest
residual change), and for ``matrix`` dumps the largest entry change.  The
worktree is removed afterwards.  Exit status 1 when a command's exit code
changed or a row's pass/fail verdict flipped, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "1"

# Draws that fail at every revision so far (ROADMAP, known failing draws); the
# scan ones are in the scan list already.
KNOWN_FAILING = [
    ["qdet", "--n", "4", "--points", "2", "--seed", seed, "--format", "json"]
    for seed in ("152062143", "3328858614", "1506946534", "1242427736")
]


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: str
    stderr: str


def command_list() -> list[list[str]]:
    """scan at N = 3 and 6 for each check and kind (eight-vertex at N = 2), matrix
    for every kind, limits and verify at N = 2 and 3, qdet at N = 2..4, and the
    known failing draws."""
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
        commands.append(["verify", "--n", str(n), "--seed", SEED, "--format", "json"])
    for n in (2, 3, 4):
        commands.append(["qdet", "--n", str(n), "--points", "2", "--seed", SEED, "--format", "json"])
    return commands + KNOWN_FAILING


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


def _label(index: int, row: dict) -> str:
    cell = row.get("detail", {}).get("cell")
    return f"#{index} {row['check']}" + (f" cell {cell}" if cell is not None else "")


def _row_lines(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """The rows that differ, largest residual change first, and whether a verdict flipped."""
    if len(old) != len(new):
        return [f"row count {len(old)} -> {len(new)}"], True
    changed = []
    flipped = False
    for index, (a, b) in enumerate(zip(old, new)):
        if a == b:
            continue
        flip = a["passed"] != b["passed"]
        flipped |= flip
        change = abs(b["residual"] - a["residual"])
        line = (f"{_label(index, a)}: residual {a['residual']:.6e} -> {b['residual']:.6e} "
                f"(change {change:.2e})" if change else f"{_label(index, a)}: detail differs")
        line += " FLIP" if flip else ""
        changed.append((change, line))
    changed.sort(key=lambda item: -item[0])
    return [line for _, line in changed], flipped


def _entries(stdout: str) -> list[complex]:
    entries = []
    for line in stdout.splitlines():
        if line and not line.startswith("#"):
            _, _, re, im = line.split(", ")
            entries.append(complex(float(re), float(im)))
    return entries


def compare(old: Outcome, new: Outcome) -> tuple[list[str], bool]:
    """What differs between two runs of one command, and whether it is a flip
    (exit code or verdict); no lines when they are identical."""
    if old == new:
        return [], False
    lines = []
    flipped = old.rc != new.rc
    if flipped:
        lines.append(f"exit code {old.rc} -> {new.rc}")
    if old.stderr != new.stderr:
        lines.append(f"stderr {old.stderr.strip()[-200:]!r} -> {new.stderr.strip()[-200:]!r}")
    if old.stdout != new.stdout:
        old_rows, new_rows = _rows(old.stdout), _rows(new.stdout)
        if old_rows is not None and new_rows is not None:
            row_lines, row_flip = _row_lines(old_rows, new_rows)
            lines.extend(row_lines or ["rows equal, formatting differs"])
            flipped |= row_flip
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
    return lines, flipped


def sweep(other_src: Path, commands: list[list[str]]) -> bool:
    """Print one verdict per command; True when nothing flipped."""
    clean = True
    identical = 0
    for argv in commands:
        lines, flipped = compare(run_ellr(other_src, argv), run_ellr(ROOT / "src", argv))
        clean &= not flipped
        identical += not lines
        print(("identical  " if not lines else "differs    ") + " ".join(argv), flush=True)
        for line in lines:
            print(f"    {line}")
    print(f"{identical} of {len(commands)} commands identical; "
          f"{'no' if clean else 'a'} flip or exit-code change")
    return clean


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
