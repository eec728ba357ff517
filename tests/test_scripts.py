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
    ("chain_overlay.py", ["--n-env", "4", "--realizations", "4", "--n-temps", "3",
                          "-o", "sub/overlay"],
     ["sub/overlay.csv", "sub/overlay.dat", "sub/overlay.gp"]),
])
def test_script_runs(script, args, outputs, tmp_path):
    (tmp_path / "sub").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
    # a script names its data file without a directory, as `spinbath plot` does
    for name in (Path(n) for n in outputs if n.endswith(".gp")):
        script_text = (tmp_path / name).read_text()
        assert f"'{name.stem}.dat'" in script_text and "/" not in script_text, name


def _bench_record():
    """scripts/bench_record.py as a module (scripts/ is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_record(declared):
    """A complete BENCH_<pr>.json document with made-up numbers, no benchmark run."""
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in declared["end_to_end"]}
    record = {"git_sha": "0" * 40, "nproc": 2, "blas_threads": "1"}
    return {"pr": 0, "calibration": {"gemm_gflops": 50.0, "python_loop_s": 0.27,
                                     "random_state_per_s": 2350.0},
            "workloads": {w["name"]: {"correct": True, "metrics": dict(metrics),
                                      "record": dict(record)} for w in declared["workloads"]}}


def test_bench_record_validator(tmp_path):
    import json

    bench_record = _bench_record()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = _stub_record(declared)
    assert bench_record.validate(doc, declared) == []
    first, *_ = doc["workloads"]
    broken = json.loads(json.dumps(doc))
    del broken["workloads"][first]["metrics"]["sweep_s"]
    broken["workloads"][first]["record"]["blas_threads"] = None
    broken["calibration"]["gemm_gflops"] = float("nan")
    del broken["workloads"][declared["workloads"][-1]["name"]]
    assert sorted(bench_record.validate(broken, declared)) == sorted([
        f"{first}: no median of sweep_s", f"{first}: run record lacks blas_threads",
        "calibration: gemm_gflops is not a positive number",
        f"{declared['workloads'][-1]['name']}: not recorded"])
    assert bench_record.validate({"workloads": doc["workloads"]}, declared) == ["no calibration block"]
    # the command line checks files without starting the benchmark
    good, bad = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    good.write_text(json.dumps(doc))
    bad.write_text(json.dumps(broken))
    cmd = [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--check"]
    assert subprocess.run([*cmd, str(good)], capture_output=True, timeout=60).returncode == 0
    done = subprocess.run([*cmd, str(good), str(bad)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "no median of sweep_s" in done.stdout
