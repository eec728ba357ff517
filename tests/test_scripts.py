"""The example scripts in scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, outputs", [
    ("chain_overlay.py", ["--n-env", "4", "--realizations", "4", "--n-temps", "3", "-o", "overlay"],
     ["overlay.csv", "overlay.dat", "overlay.gp"]),
    ("relaxation_trace.py", ["--n-env", "4", "--t-max", "2", "-o", "relax"],
     [f"relax_{start}{ext}" for start in ("x", "ududy") for ext in (".csv", ".dat", ".gp")]),
])
def test_script_runs(script, args, outputs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
