"""tools/identity_sweep.py: same outputs report identical, a perturbed tree is caught,
and a changed row set is named as such."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# trigonometric kinds only: no theta, so only a change to that path would move them
SHORT = [
    ["matrix", "--n", "2", "--kind", "principal", "--seed", "1"],
    ["scan", "--n", "2", "--check", "ybe", "--kind", "homogeneous", "--grid", "1x2",
     "--seed", "1", "--format", "json"],
]

# loaded first by the perturbed tree's interpreter: entry [0, 0] of every R-matrix
# scaled by 1 + 1e-6, in each module that imported build_r
PERTURBATION = """
import sys
import elliptic_rmatrix
from elliptic_rmatrix.rmatrix_builders import TensorOperator, build_r as real

def build_r(params, kind, log_z, **kwargs):
    op = real(params, kind, log_z, **kwargs)
    entries = op.entries.copy()
    entries[0, 0] *= 1 + 1e-6
    return TensorOperator(op.local_dim, op.arity, entries)

for name, module in list(sys.modules.items()):
    if name.startswith("elliptic_rmatrix") and getattr(module, "build_r", None) is real:
        module.build_r = build_r
"""


def in_git_work_tree() -> bool:
    try:
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"],
                               capture_output=True, text=True)
    except OSError:
        return False
    return probe.returncode == 0 and probe.stdout.strip() == "true"


needs_git = pytest.mark.skipif(not in_git_work_tree(), reason="needs the repository's git history")


@pytest.fixture
def sweep_tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("identity_sweep", ROOT / "tools" / "identity_sweep.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks it up
    spec.loader.exec_module(module)
    return module


@needs_git
def test_head_against_itself_is_identical(sweep_tool, capsys):
    assert sweep_tool.main(["--against", "HEAD"], commands=SHORT) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[:-1]] == ["identical", "identical"]
    assert out[-1] == "2 of 2 commands identical; no flip or exit-code change"


@needs_git
def test_perturbed_tree_is_reported(sweep_tool, capsys, monkeypatch, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(PERTURBATION)
    real_env = sweep_tool.ellr_env

    def env(src):
        out = real_env(src)
        if src == ROOT / "src":  # this tree; the worktree of HEAD runs unperturbed
            out["PYTHONPATH"] = os.pathsep.join([str(tmp_path), out["PYTHONPATH"]])
        return out

    monkeypatch.setattr(sweep_tool, "ellr_env", env)
    assert sweep_tool.main(["--against", "HEAD"], commands=SHORT) == 1
    out = capsys.readouterr().out
    assert "differs    matrix --n 2 --kind principal" in out
    assert "1 of 16 entries moved" in out
    assert "exit code 0 -> 1" in out
    assert out.count("FLIP") == 2  # both grid cells now fail ybe
    assert out.rstrip().endswith("0 of 2 commands identical; a flip or exit-code change")


def run_of(sweep_tool, rows, rc=0):
    """A synthetic json run of one command with these report rows."""
    return sweep_tool.Outcome(rc, json.dumps({"reports": rows}), "")


def row(check, residual, passed=True):
    return {"check": check, "residual": residual, "passed": passed, "detail": {}}


def test_a_dropped_row_is_listed_and_not_called_a_flip(sweep_tool):
    old = [row("qdet[sum_vs_product]", 1e-14), row("qdet[z_spread]", 2e-13),
           row("qdet[inverse_product]", 3e-9)]
    lines, kinds = sweep_tool.compare(run_of(sweep_tool, old), run_of(sweep_tool, old[::2]))
    assert kinds == {sweep_tool.ROW_SET}
    assert lines == ["row count 3 -> 2", "removed #1 qdet[z_spread]: passed, residual 2.000000e-13"]


def test_a_flip_beside_a_changed_row_set_is_both(sweep_tool):
    old = [row("ybe", 1e-14), row("unitarity", 2e-14)]
    new = [row("ybe", 2e-7, passed=False), row("unitarity", 2e-14), row("crossing", 5e-2, passed=False)]
    lines, kinds = sweep_tool.compare(run_of(sweep_tool, old), run_of(sweep_tool, new))
    assert kinds == {sweep_tool.FLIP, sweep_tool.ROW_SET}
    assert lines == ["#0 ybe: residual 1.000000e-14 -> 2.000000e-07 (change 2.00e-07) FLIP",
                     "row count 2 -> 3", "added #2 crossing: failed, residual 5.000000e-02"]


def test_sweep_summary_names_a_row_set_change(sweep_tool, capsys, monkeypatch):
    rows = [row("ybe", 1e-14), row("unitarity", 2e-14)]

    def run(src, argv):
        return run_of(sweep_tool, rows if src == sweep_tool.ROOT / "src" else rows[:1])

    monkeypatch.setattr(sweep_tool, "run_ellr", run)
    assert not sweep_tool.sweep(Path("other"), [["verify"], ["qdet"]])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "differs    verify" and out[1] == "    row count 1 -> 2"
    assert out[-1] == "0 of 2 commands identical; row set changed"
