"""Command line interface: run sweeps, export plots, run the acceptance suite."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import ResultTable, parse_config, run, write_plot
from .errors import SpinBathError


def _cmd_run(args) -> int:
    text = Path(args.config).read_text()
    config = parse_config(text)
    table = run(config)
    out = args.output or config.output
    table.save(out)
    failed = table.failed_points
    print(f"wrote {out} ({len(table.rows)} rows)")
    if failed:
        print(f"{failed} sweep point(s) failed; see the error column", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args) -> int:
    table = ResultTable.from_csv(Path(args.table).read_text())
    dat_path, gp_path = write_plot(table, args.output or str(Path(args.table).with_suffix("")))
    print(f"wrote {dat_path} and {gp_path}")
    return 0


def _cmd_check(args) -> int:
    from . import acceptance

    n = len(acceptance.CRITERIA)
    if args.criterion is not None and not 1 <= args.criterion <= n:
        print(f"error: --criterion must be between 1 and {n}, got {args.criterion}", file=sys.stderr)
        return 2
    results = acceptance.run_all(only=args.criterion)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Finite-temperature decoherence and thermalization sweeps "
                    "for spin-1/2 system+bath models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep config and write its CSV")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default=None, help="override the config's output path")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="export gnuplot data + script for a result CSV")
    p_plot.add_argument("table")
    p_plot.add_argument("-o", "--output", default=None, help="output path prefix")
    p_plot.set_defaults(func=_cmd_plot)

    p_check = sub.add_parser("check", help="run the built-in acceptance suite")
    p_check.add_argument("--criterion", type=int, default=None,
                         help="run a single criterion (1-9)")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpinBathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
