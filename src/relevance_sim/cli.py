"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 failed
oracle check, 4 failed run (an episode raised; the message names its
scheme, budget and replication, and the exception, on any worker count).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

from .harness import (
    PRESET_NAMES,
    SEED_CONTRACT,
    ConfigError,
    ExperimentSpec,
    emit_csv,
    parse_config,
    preset,
    resolved_config_lines,
    run_sweep,
    with_value,
)
from .schemes import oracle_mismatch_count

USAGE_ERROR, CONFIG_ERROR, CHECK_FAILED, RUN_FAILED = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # configuration problems, so remap usage errors to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        if (value := int(raw)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="relevance-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep and write results.csv")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in figure preset")
    src.add_argument("--config", metavar="FILE", help="configuration file")
    run.add_argument("--out", metavar="DIR", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="master seed override")
    run.add_argument("--replications", type=int, default=None, help="replication override")
    run.add_argument("--slots", type=int, default=None, help="slots-per-episode override")
    run.add_argument("--quiet", action="store_true", help="suppress progress output")

    val = sub.add_parser("validate", help="parse a configuration and echo the resolved spec")
    val.add_argument("--config", metavar="FILE", required=True)

    orc = sub.add_parser("oracle", help="cross-check ideal selection against brute force")
    orc.add_argument("--instances", type=_int_at_least(1), default=1000)
    orc.add_argument("--seed", type=_int_at_least(0), default=2024)
    return parser


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        return parse_config(text)
    return preset(args.preset)


def _cmd_run(args: argparse.Namespace) -> int:
    # `--out` is made only after the sweep, so refuse first a path that cannot
    # become a directory: an empty one, or one whose nearest existing part is
    # not a directory or cannot be written.
    if not args.out:
        print("error: --out must not be empty", file=sys.stderr)
        return USAGE_ERROR
    existing = os.path.abspath(args.out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        print(f"error: --out {args.out} is not a directory", file=sys.stderr)
        return USAGE_ERROR
    if not os.access(existing, os.W_OK | os.X_OK):
        print(f"error: --out {args.out} is not writable", file=sys.stderr)
        return USAGE_ERROR
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    spec = configured = _load_spec(args)
    for key, value in (("run.seed", args.seed), ("run.replications", args.replications),
                       ("run.slots", args.slots)):
        if value is not None:
            spec = with_value(spec, key, value)
    started = time.perf_counter()
    try:
        rows = run_sweep(spec, progress=progress)
    except RuntimeError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return RUN_FAILED
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "results.csv")
    emit_csv(rows, csv_path)
    log_path = os.path.join(args.out, "run.log")
    with open(log_path, "w", encoding="utf-8") as f:
        f.write(f"source = {args.preset or args.config}\nseed_contract = {SEED_CONTRACT}\n")
        f.write("\n".join(resolved_config_lines(spec, configured)) + "\n")
        f.write(f"rows = {len(rows)}\nelapsed_seconds = {time.perf_counter() - started:.1f}\n")
    if not args.quiet:
        print(f"wrote {csv_path} ({len(rows)} rows); parameters in {log_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    print(f"# seed_contract = {SEED_CONTRACT}")
    print("\n".join(resolved_config_lines(spec)))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    mismatches = oracle_mismatch_count(args.instances, args.seed)
    print(f"oracle: {args.instances} instances, {mismatches} mismatches")
    return CHECK_FAILED if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "validate": _cmd_validate, "oracle": _cmd_oracle}[args.command]
    try:
        return command(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
