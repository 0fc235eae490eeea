"""Command-line entry points: experiment runs and standalone analyses."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigInvalid, IoFailure, TpjcError, TruncationTooSmall
from .experiment import (
    APPROX_TABLE_MAX_J,
    ORACLE_CHECK_BOUND,
    ORACLE_CHECK_DIM,
    ORACLE_CHECK_SEED,
    ORACLE_CHECK_TRIALS,
    _write_all,
    approx_error_table,
    approx_table_csv,
    load_config,
    oracle_check,
    oracle_report_json,
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


def _print_or_write(text: str, out: str | None) -> None:
    """A standalone report: its text on stdout, or written to ``out``. A new or regular file,
    or a symlink to one, is written as a run's files are; any other target, such as /dev/null,
    a pipe or a directory, is opened and written in place."""
    if out:
        path = Path(out)
        try:
            in_place = path.exists() and not path.is_file()
            if in_place:
                path.write_text(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {out}: {exc}") from exc
        if not in_place:
            _write_all(path.parent, {path.name: text})
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    report = oracle_check(dim=args.dim, trials=args.trials, seed=args.seed)
    _print_or_write(oracle_report_json(report), args.out)
    if not report.passed:
        print(
            f"FAIL: max deviation {report.max_deviation:.3e} exceeds {ORACLE_CHECK_BOUND:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_approx_table(args: argparse.Namespace) -> int:
    _print_or_write(approx_table_csv(approx_error_table(args.max_j)), args.out)
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
