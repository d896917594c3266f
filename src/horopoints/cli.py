"""Command-line front end.

Every experiment runs from a JSON config (``--config``); ``generate`` also
accepts direct flags for quick sample dumps.  Output goes to ``--out``, the
config's ``out_dir``, or the HOROPOINTS_OUT environment variable, in that
order of precedence.  The exit status is 1 when an experiment in the
exact-equality class reports a failed check, and 2 with one line when the
config is invalid, exceeds a guard, or leaves the float reduction's range,
or when ``plot`` cannot read an equidist report from its inputs.
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
from .points import VARIANTS
from .sl2 import NumericalDegeneracy


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="experiment config (JSON)")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), help="payload format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horopoints",
        description="rational points on expanding horocycles: experiments and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one subcommand per experiment kind, in the order of KINDS
    for kind in KINDS:
        command = kind.replace("_", "-")
        _add_common(sub.add_parser(command, help=(
            "dump point-set samples to CSV or JSON" if kind == "generate"
            else f"run a {command} experiment")))
    g = sub.choices["generate"]
    g.add_argument("--n", type=int, action="append", help="modulus (repeatable)")
    g.add_argument("--alpha", default="1/2", help="expansion exponent, e.g. 1/2")
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--a", type=int, default=1)
    g.add_argument("--b", type=int, default=1)
    g.add_argument("--c", type=int, default=1)
    g.add_argument("--variant", choices=tuple(VARIANTS), default="monomial")

    pl = sub.add_parser("plot", help="render equidist reports as a log-log SVG")
    pl.add_argument("reports", nargs="+", type=Path, help="equidist.json files")
    pl.add_argument("--out", type=Path, required=True, help="output SVG path")
    return parser


def _apply_flags(cfg, args):
    """The config with --format in its raw keys, so the manifest hash covers it."""
    if args.format:
        return load_config({**cfg.raw, "format": args.format})
    return cfg


def _config_of(args, kind: str):
    """The config of --config; else, for generate, the config of its flags."""
    if args.config is not None:
        return load_config(args.config)
    if kind == "generate" and args.n:
        return load_config({
            "schema_version": 1,
            "kind": "generate",
            "n_schedule": args.n,
            "point_set": {
                "alpha": args.alpha, "d": args.d, "a": args.a,
                "b": args.b, "c": args.c, "variant": args.variant,
            },
        })
    return None


def _run_config_command(args, kind: str) -> int:
    cfg = _config_of(args, kind)
    if cfg is None:
        need = "--n or --config" if kind == "generate" else "--config"
        print(f"error: {kind} requires {need}", file=sys.stderr)
        return 2
    if cfg.kind != kind:
        raise ConfigInvalid(f"config kind {cfg.kind!r} does not match command {kind!r}")
    manifest = run(_apply_flags(cfg, args), out_dir=args.out)
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
