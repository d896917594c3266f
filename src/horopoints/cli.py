"""Command-line front end.

Every experiment, the sample dump of ``generate`` included, is stated by
one JSON config file (``--config``), whose kind must match the subcommand;
the payload format is the config's ``format`` key.  Output goes to
``--out``, the config's ``out_dir``, or the HOROPOINTS_OUT environment
variable, in that order of precedence.  The exit status is 1 when an
experiment in the exact-equality class reports a failed check, and 2 with
one line when the config is invalid, exceeds a guard, names an output
directory that cannot be made, or leaves the float reduction's range, or
when ``plot`` cannot read an equidist report from its inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    KINDS,
    ConfigInvalid,
    ResourceExhausted,
    emit_plot,
    load_config,
    run,
)
from .sl2 import NumericalDegeneracy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horopoints",
        description="rational points on expanding horocycles: experiments and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one subcommand per experiment kind, in the order of KINDS
    for kind in KINDS:
        command = kind.replace("_", "-")
        p = sub.add_parser(command, help=(
            "dump point-set samples to CSV or JSON" if kind == "generate"
            else f"run a {command} experiment"))
        p.add_argument("--config", type=Path, help="experiment config (JSON)")
        p.add_argument("--out", type=Path, help="output directory")

    pl = sub.add_parser("plot", help="render equidist reports as a log-log SVG")
    pl.add_argument("reports", nargs="+", type=Path, help="equidist.json files")
    pl.add_argument("--out", type=Path, required=True, help="output SVG path")
    return parser


def _run_config_command(args, kind: str) -> int:
    if args.config is None:
        print(f"error: {kind} requires --config", file=sys.stderr)
        return 2
    cfg = load_config(args.config)
    if cfg.kind != kind:
        raise ConfigInvalid(f"config kind {cfg.kind!r} does not match command {kind!r}")
    manifest = run(cfg, out_dir=args.out)
    status = "pass" if manifest.all_passed else "FAIL"
    print(f"{kind}: {status} -> {manifest.out_dir}")
    if not manifest.all_passed and KINDS[kind].hard:
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command == "plot":
            try:
                out = emit_plot(args.reports, args.out)
            except (OSError, ValueError, KeyError) as exc:
                # a missing or non-JSON report, a record without its series,
                # or no observables at all (NoData)
                print(f"plot error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 2
            print(f"plot -> {out}")
            return 0
        return _run_config_command(args, command.replace("-", "_"))
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhausted as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracy as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
