#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians in BENCH_<pr>.json, with a host calibration.

Runs ``benchmark/run.py --workload W`` once for every workload that
BENCHMARK.json declares and keeps each run's end-to-end medians, its
correctness flag and its run record (git sha, nproc, the BLAS and its
thread count, the versions).  A calibration block measured in the same
session says how fast the host was, so files recorded on different hosts
can be read against each other:

- ``gemm_gflops``: a 1024 x 1024 x 512 real GEMM, best of 5;
- ``python_loop_s``: a 2 * 10^6-step pure-Python loop, best of 5;
- ``random_state_per_s``: spinbath's random_state(4096) draws per second.

The calibration runs with one BLAS thread, as the benchmark's sweeps do.
``--root`` measures another checkout (its benchmark and its sources), so
two trees can be recorded in one session.  ``--parent DIR`` records DIR
and the ``--root`` tree interleaved, workload by workload: PAIRS (10)
pairs of runs, as many as a claimed gain is judged on, one run of each
tree, the first tree alternating from pair to pair, so drift of the
host's speed over the session falls on both alike.  It writes one pair of files, BENCH_<pr>.json for the tree and
BENCH_<pr>.parent.json for DIR, sharing one calibration; each workload's
medians are the medians of its runs' medians, and ``runs`` keeps every
run's metrics in pair order.  ``--check`` validates recorded files against
this repository's BENCHMARK.json without running anything.

    python scripts/bench_record.py --pr 16
    python scripts/bench_record.py --pr 15 --root ../parent -o BENCH_15.json
    python scripts/bench_record.py --pr 36 --parent ../parent
    python scripts/bench_record.py --check BENCH_*.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20160902          # benchmark/run.py's default master seed
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CALIBRATION = ("gemm_gflops", "python_loop_s", "random_state_per_s")
RECORD_KEYS = ("git_sha", "nproc", "blas_threads")
PAIRS = 10                       # pairs of runs per workload with --parent


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _python_loop(steps: int = 2_000_000) -> int:
    total = 0
    for i in range(steps):
        total += i
    return total


def calibrate(src: Path) -> dict:
    """Host speed in this session: GEMM, interpreter and random-state throughput."""
    os.environ.update(ONE_THREAD)       # before numpy loads its BLAS
    sys.path.insert(0, str(src))
    import numpy as np
    from spinbath.propagate import random_state

    rng = np.random.default_rng(0)
    a, b = rng.random((1024, 512)), rng.random((512, 1024))
    gemm_s = _best(lambda: a @ b, 5)
    draws = 256
    draws_s = _best(lambda: [random_state(4096, (DEFAULT_SEED, "calibration", i))
                             for i in range(draws)], 3)
    return {"gemm_gflops": 2 * 1024 * 1024 * 512 / gemm_s / 1e9,
            "python_loop_s": _best(_python_loop, 5),
            "random_state_per_s": draws / draws_s}


def run_workload(root: Path, workload: str) -> dict:
    """One untraced benchmark run: its end-to-end medians and its run record."""
    done = subprocess.run([sys.executable, str(root / "benchmark" / "run.py"),
                           "--workload", workload, "--seed", str(DEFAULT_SEED)],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"benchmark/run.py --workload {workload} failed:\n{done.stderr[-4000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    saved = root / "benchmark" / "runs" / f"{workload}-seed{DEFAULT_SEED}-trace0.json"
    record = json.loads(saved.read_text())["record"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"], "record": record}


def run_interleaved(roots: tuple, workload: str, pairs: int) -> list:
    """Each root's entry for one workload from ``pairs`` pairs of runs, the first root alternating.

    An entry is run_workload's with each metric the median of the runs'
    medians and ``runs`` the runs' metrics in pair order; it is correct
    when every run is.
    """
    runs = ([], [])
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for i in order:
            runs[i].append(run_workload(roots[i], workload))
    entries = []
    for tree in runs:
        metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in tree),
                          "unit": unit["unit"]} for name, unit in tree[0]["metrics"].items()}
        entries.append({"correct": all(r["correct"] for r in tree),
                        "attempted": sum(r["attempted"] for r in tree),
                        "failed": sum(r["failed"] for r in tree), "metrics": metrics,
                        "record": tree[0]["record"], "runs": [r["metrics"] for r in tree]})
    return entries


def validate(doc: dict, declared: dict) -> list:
    """Problems of one recorded file against BENCHMARK.json; empty when it is complete."""
    problems = []

    def number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value)

    calibration = doc.get("calibration")
    if not isinstance(calibration, dict):
        problems.append("no calibration block")
    else:
        problems.extend(f"calibration: {key} is not a positive number" for key in CALIBRATION
                        if not (number(calibration.get(key)) and calibration[key] > 0))
    workloads = doc.get("workloads") or {}
    for w in (w["name"] for w in declared["workloads"]):
        entry = workloads.get(w)
        if not isinstance(entry, dict):
            problems.append(f"{w}: not recorded")
            continue
        metrics = entry.get("metrics") or {}
        problems.extend(f"{w}: no median of {m['name']}" for m in declared["end_to_end"]
                        if not number((metrics.get(m["name"]) or {}).get("value")))
        record = entry.get("record") or {}
        problems.extend(f"{w}: run record lacks {key}" for key in RECORD_KEYS
                        if record.get(key) in (None, ""))
    return problems


def check(paths: list) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for path in paths:
        try:
            problems = validate(json.loads(Path(path).read_text()), declared)
        except (OSError, ValueError) as exc:
            problems = [f"unreadable: {exc}"]
        for p in problems:
            print(f"{path}: {p}")
        status |= 1 if problems else 0
        if not problems:
            print(f"{path}: ok")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="number of the change being recorded")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this repository)")
    parser.add_argument("--parent", type=Path,
                        help="checkout to record interleaved with --root, into a pair of files")
    parser.add_argument("-o", "--output", type=Path, help="default: BENCH_<pr>.json here")
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="validate recorded files instead of recording")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    if args.pr is None:
        parser.error("--pr is required to record")
    root = args.root.resolve()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    output = args.output or ROOT / f"BENCH_{args.pr}.json"
    if args.parent is None:
        recorded = {output: {w: run_workload(root, w) for w in names}}
    else:
        entries = {w: run_interleaved((root, args.parent.resolve()), w, PAIRS) for w in names}
        parent_output = output.with_name(output.stem + ".parent" + output.suffix)
        recorded = {output: {w: e[0] for w, e in entries.items()},
                    parent_output: {w: e[1] for w, e in entries.items()}}
    calibration = calibrate(root / "src")
    status = 0
    for path, workloads in recorded.items():
        doc = {"pr": args.pr, "seed": DEFAULT_SEED,
               "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "calibration": calibration, "workloads": workloads}
        if args.parent is not None:
            doc["pairs"] = PAIRS
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
        problems = validate(doc, declared)
        for p in problems:
            print(f"{path}: incomplete: {p}", file=sys.stderr)
        status |= 1 if problems or not all(w["correct"] for w in workloads.values()) else 0
    return status


if __name__ == "__main__":
    raise SystemExit(main())
