#!/usr/bin/env python3
"""Time traces of the decoherence measure for canonical vs product starts.

Evolves a ring entirety from (a) a canonical thermal state of the whole ring
("x") and (b) the system in an up-down-up-... basis state with a thermal
environment ("ududy"), recording sigma(t), delta(t) and the fitted b(t).
The canonical start stays flat up to fluctuations; the product start decays
toward a stationary value at a slightly different effective temperature.

Example:
    python scripts/relaxation_trace.py --n-env 8 --t-max 300 -o relax
"""

import argparse

from spinbath import bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-sys", type=int, default=4)
    parser.add_argument("--n-env", type=int, default=8)
    parser.add_argument("--beta", type=float, default=0.9)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--t-max", type=float, default=300.0)
    parser.add_argument("--dt", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("-o", "--output", default="relax")
    args = parser.parse_args()

    status = 0
    for initial in ("x", "ududy"):
        config = bench.ExperimentConfig(
            mode="time_trace", model="ring", j_system=-1.0,
            coupling_seed=args.seed + 1, env_seed=args.seed + 2,
            n_sys_list=(args.n_sys,), n_env_list=(args.n_env,),
            lambda_list=(args.lam,), beta_list=(args.beta,),
            t_max=args.t_max, dt=args.dt, initial_state=initial,
            master_seed=args.seed,
        )
        table = bench.run(config)
        name = f"{args.output}_{initial}"
        table.save(name + ".csv")
        bench.write_plot(table, name)
        print(f"wrote {name}.csv / .dat / .gp")
        status |= 1 if table.failed_points else 0
    return status


if __name__ == "__main__":
    raise SystemExit(main())
