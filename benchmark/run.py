"""spinbath benchmark: time seeded sweeps of spinbath.bench.run and check them.

    python3 benchmark/run.py --workload exact_fig8 [--seed N] [--seconds S] [--trace 0|1]

Every sweep runs in a fresh process (sweep.py) with one BLAS thread and
SPINBATH_WORKERS=1.  Sweeps repeat until the next one would end after
``--seconds`` (default: BENCHMARK.json's run_seconds); there is always at
least one.  With ``--trace 0`` the end-to-end metrics come from untraced
sweeps, and extra processes that stop right before the sweep call make up
the set-up samples to SETUP_SAMPLES.  With ``--trace 1`` untraced and
traced sweeps alternate, and the traced ones give the per-layer metrics.
Every sweep's outputs are checked; a wrong one counts as failed and is not
timed.  The last stdout line is one JSON object; the lines above it print
every metric by name with its unit.
See benchmark/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sweep import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_fig8", "cheb_ring16", "trace_ring12")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170                # a run must end within 180 s
REFERENCE = HERE / "reference.json"
REFERENCE_RTOL = 1e-9
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "SPINBATH_WORKERS": "1"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run sweep.py once and return its JSON record plus its wall time."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--spawned-at", repr(t0)]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(deadline - t0, 0.1))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} process still running at the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.monotonic() - t0
    return record


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (needs 11 samples, has {n})"
    return f"p{100.0 * (n - 10) / n:.0f} = {sorted(values)[n - 11]:.6g}"


def check(sweeps: list, reference: dict | None) -> list:
    """Mark wrong sweeps; return the problems shared by the whole run."""
    problems = []
    baseline = next((s for s in sweeps if s["error"] is None), None)
    for s in sweeps:
        own = list(s.get("problems", []))
        if s["error"] is not None:
            own.append(f"sweep raised {s['error']}")
        elif s["failed_points"]:
            own.append(f"{s['failed_points']} failed sweep points")
        elif s["csv_sha256"] != baseline["csv_sha256"]:
            own.append("CSV bytes differ between repeats")
        if s["error"] is None and reference is not None:
            for key, ref in reference.items():
                got = s["means"].get(key)
                if got is None or any(abs(g - r) > REFERENCE_RTOL * abs(r) for g, r in zip(got, ref)):
                    own.append(f"point {key}: mean (sigma, delta) {got} != reference {ref}")
        s["wrong"] = own
    traced = [s for s in sweeps if "layers" in s]
    orders = {(s["layers"]["metrics"]["propagate.imag_order_sum"],
               s["layers"]["metrics"]["propagate.real_order_sum"]) for s in traced}
    if len(orders) > 1:
        problems.append(f"Chebyshev order counts differ between repeats: {sorted(orders)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed of the sweep (default: the acceptance suite's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start no sweep that is expected to end after this many seconds "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spinbath" / "__init__.py").is_file():
        print(f"no spinbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds

    modes = ("sweep", "traced") if args.trace else ("sweep",)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    sweeps = []
    try:
        while True:
            for mode in modes:
                sweeps.append(spawn(args.workload, args.seed, mode, deadline))
            per_round = sum(statistics.median(s["wall_s"] for s in sweeps if s["mode"] == m)
                            for m in modes)
            if time.monotonic() - start + per_round > seconds:
                break
        setups = [s["setup_s"] for s in sweeps if s["mode"] == "sweep"]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "setup", deadline)["setup_s"])
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
        if reference is None:
            print(f"benchmark failed: no reference values for {args.workload}", file=sys.stderr)
            return 1
    problems = check(sweeps, reference)
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["attempted"] if s["wrong"] else s["failed_points"] for s in sweeps)

    def timed(mode):
        runs = [s for s in sweeps if s["mode"] == mode]
        return [s for s in runs if not s["wrong"]] or runs

    untraced, traced = timed("sweep"), timed("traced")

    record = {"workload": args.workload, "seed": args.seed, "git_sha": git_sha(),
              "nproc": len(os.sched_getaffinity(0)), **sweeps[0]["record"]}
    print("run record: " + ", ".join(f"{k}={v}" for k, v in record.items()))
    for i, s in enumerate(sweeps):
        label = "traced" if s["mode"] == "traced" else "untraced"
        problems.extend(f"{label} sweep {i}: {p}" for p in s["wrong"])
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if "closed_form_worst_se" in sweeps[0]:
        print(f"closed form: worst deviation {sweeps[0]['closed_form_worst_se']:.2f} se")
    if "stationarity_std" in sweeps[0]:
        print(f"stationarity: max |sigma(t) - mean| = {sweeps[0]['stationarity_std']:.2f} std")
    times = [s["sweep_s"] for s in untraced]
    print(f"sweep_s: median {statistics.median(times):.6g} s over {len(times)} sweeps, "
          f"tail {tail(times)}; failed_frac {failed / attempted:.6g} ({failed}/{attempted} points)")

    if args.trace:
        metrics = {name: statistics.median(s["layers"]["metrics"][name] for s in traced)
                   for name in traced[0]["layers"]["metrics"]}
        metrics["failed_frac"] = failed / attempted
        metrics["trace.overhead_frac"] = (statistics.median(s["sweep_s"] for s in traced)
                                          / statistics.median(times) - 1.0)
    else:
        metrics = {
            "sweep_s": statistics.median(times),
            "samples_per_s": statistics.median(s.get("sample_rows", 0) / s["sweep_s"]
                                               for s in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"benchmark failed: metrics {sorted(set(units) ^ set(metrics))} are measured "
              "but not declared in BENCHMARK.json, or declared but not measured", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    correct = not problems and failed == 0
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "problems": problems, "setup_s": setups, "sweeps": sweeps}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
