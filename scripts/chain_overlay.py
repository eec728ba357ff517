#!/usr/bin/env python3
"""Sweep the two-chain entirety over temperature and overlay the closed form.

Reproduces the uncoupled-prediction comparison at desk scale: Monte Carlo
sigma and delta for isotropic chains (system of n_sys spins joined end to end
with an environment of n_env spins) against the partition-function-ratio
formulas, one curve per coupling strength.  Writes a CSV plus gnuplot
data/script files.

Example:
    python scripts/chain_overlay.py --n-env 8 --realizations 200 -o chain_overlay
"""

import argparse
from pathlib import Path

import numpy as np

from spinbath import bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-sys", type=int, default=4)
    parser.add_argument("--n-env", type=int, default=8)
    parser.add_argument("--j", type=float, default=1.0, help="system chain coupling")
    parser.add_argument("--omega", type=float, default=1.0, help="environment chain coupling")
    parser.add_argument("--lambdas", type=float, nargs="+", default=[0.0, 0.1, 0.5, 1.0])
    parser.add_argument("--t-min", type=float, default=0.02, help="lowest T/|J|")
    parser.add_argument("--t-max", type=float, default=10.0, help="highest T/|J|")
    parser.add_argument("--n-temps", type=int, default=12)
    parser.add_argument("--realizations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("-o", "--output", default="chain_overlay")
    args = parser.parse_args()

    betas = tuple(1.0 / t for t in np.geomspace(args.t_min, args.t_max, args.n_temps))
    config = bench.ExperimentConfig(
        mode="theory_overlay", model="chain",
        j_iso=args.j, omega_iso=args.omega, delta_iso=1.0,
        n_sys_list=(args.n_sys,), n_env_list=(args.n_env,),
        lambda_list=tuple(args.lambdas), beta_list=betas,
        n_realizations=args.realizations, master_seed=args.seed,
    )
    Path(args.output + ".config").write_text(bench.render_config(config))
    table = bench.run(config)
    table.save(args.output + ".csv")
    bench.write_plot(table, args.output)
    print(f"wrote {args.output}.csv / .dat / .gp ({len(table.rows)} rows)")
    return 1 if table.failed_points else 0


if __name__ == "__main__":
    raise SystemExit(main())
