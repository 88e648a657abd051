"""tools/identity_sweep.py: same outputs report identical, a perturbed tree is caught."""

import importlib.util
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

def build_r(params, kind, log_z):
    op = real(params, kind, log_z)
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


pytestmark = pytest.mark.skipif(not in_git_work_tree(), reason="needs the repository's git history")


@pytest.fixture
def sweep_tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("identity_sweep", ROOT / "tools" / "identity_sweep.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks it up
    spec.loader.exec_module(module)
    return module


def test_head_against_itself_is_identical(sweep_tool, capsys):
    assert sweep_tool.main(["--against", "HEAD"], commands=SHORT) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[:-1]] == ["identical", "identical"]
    assert out[-1] == "2 of 2 commands identical; no flip or exit-code change"


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
