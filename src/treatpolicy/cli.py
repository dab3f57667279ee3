"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 data/schema error, 4 stage failure.
All state lives in the config file and the output directory, so any
subcommand can rerun its stage against artifacts produced earlier.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import layout
from .config import load_config
from .errors import ConfigError, DataError, SchemaError, TreatPolicyError
from .pipeline import RunManifest, run_pipeline, run_stages


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treatpolicy",
        description="Learn, stress-test, and evaluate treatment policies with deferral.",
        epilog=(
            "Config precedence: built-in defaults < config file < --set overrides. "
            "Values after --set parse as JSON (bare words stay strings)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON pipeline config")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key by dotted path, e.g. "
            "--set evaluation.bootstrap_b=200 (repeatable, wins over the file)",
        )
        p.add_argument("--output-dir", help="shorthand for --set output_dir=...")
        return p

    add("validate-config", "resolve the config, print its echo and hash, run nothing")
    for name, help_text in layout.STAGES:
        add(name, help_text)
    add("all", "run every configured stage in order")
    return parser


def _print_warnings(manifest: RunManifest) -> None:
    for w in manifest.warnings:
        print(f"warning [{w['stage']}/{w['kind']}]: {w['message']}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        overrides = list(args.overrides)
        if args.output_dir:
            overrides.append(f"output_dir={json.dumps(args.output_dir)}")
        cfg = load_config(args.config, overrides)
        if args.command == "validate-config":
            print(f"config hash: {cfg.hash}")
            print(json.dumps(cfg.echo, indent=2, sort_keys=True))
            return 0
        if args.command == "all":
            manifest = run_pipeline(cfg)
        else:
            manifest = run_stages(cfg, [args.command])
        _print_warnings(manifest)
        print(
            f"{args.command}: ok - {len(manifest.artifacts)} artifact(s) under {cfg.out_dir}"
        )
        return 0
    except ConfigError as exc:
        message, code = f"config error: {exc}", 2
    except (SchemaError, DataError) as exc:
        message, code = f"data error: {exc}", 3
    except TreatPolicyError as exc:
        message, code = f"stage failure: {exc}", 4
    if cfg is not None:  # the warnings recorded before the failure often say why
        _print_warnings(RunManifest.load_or_fresh(cfg))
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
