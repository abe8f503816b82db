import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("argv", [
    ["scripts/itd_direction_grid.py", "--step", "90"],
    ["scripts/rt60_sweep.py", "--scenes", "2"],
], ids=["itd_direction_grid", "rt60_sweep"])
def test_experiment_script_runs(argv):
    _run(argv)


def test_demo_dataset_script_runs(tmp_path):
    # the README quick-start, cut to three entries
    proc = _run(["scripts/make_demo_dataset.py", "--entries", "3", "--out", str(tmp_path / "demo")])
    assert "synthesized 3 clips, 0 failures" in proc.stdout
