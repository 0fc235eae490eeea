"""Command-line entry points: experiment runs and standalone analyses."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, TpjcError, TruncationTooSmall
from .experiment import (
    APPROX_TABLE_MAX_J,
    ORACLE_CHECK_BOUND,
    ORACLE_CHECK_DIM,
    ORACLE_CHECK_SEED,
    ORACLE_CHECK_TRIALS,
    approx_error_table,
    approx_table_csv,
    emit_approx_table_csv,
    emit_oracle_report,
    load_config,
    oracle_check,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpjc",
        description="Two-photon Jaynes-Cummings photon addition/subtraction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the closed-form propagator with the dense oracle"
    )
    p_oracle.add_argument("--dim", type=int, default=ORACLE_CHECK_DIM)
    p_oracle.add_argument("--trials", type=int, default=ORACLE_CHECK_TRIALS)
    p_oracle.add_argument("--seed", type=int, default=ORACLE_CHECK_SEED)
    p_oracle.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_table = sub.add_parser(
        "approx-table", help="emit the linearized-Rabi relative-error table as CSV"
    )
    p_table.add_argument("--max-j", type=int, default=APPROX_TABLE_MAX_J)
    p_table.add_argument("--out", default=None, help="write the CSV here instead of stdout")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    result, written = run_experiment(load_config(args.config), args.out)
    last_k, last_f = result.fidelity_series[-1]
    q = "undefined" if result.mandel_q_final is None else f"{result.mandel_q_final:.6f}"
    print(f"mean photon: {result.mean_photon_initial:.6f} -> {result.mean_photon_final:.6f}")
    print(f"F({last_k}) = {last_f:.6f}, Mandel Q = {q}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    report = oracle_check(dim=args.dim, trials=args.trials, seed=args.seed)
    if args.out:
        emit_oracle_report(report, args.out)
        print(f"wrote {args.out}")
    else:
        print(
            f"dim={report.dim} trials={report.trials} seed={report.seed} "
            f"comparisons={report.comparisons} max_deviation={report.max_deviation:.3e}"
        )
    if not report.passed:
        print(
            f"FAIL: max deviation {report.max_deviation:.3e} exceeds {ORACLE_CHECK_BOUND:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_approx_table(args: argparse.Namespace) -> int:
    rows = approx_error_table(args.max_j)
    if args.out:
        emit_approx_table_csv(rows, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(approx_table_csv(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        return _cmd_approx_table(args)
    except ConfigInvalid as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except TruncationTooSmall as exc:
        print(f"error: truncation too small: {exc}", file=sys.stderr)
        return 3
    except TpjcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
