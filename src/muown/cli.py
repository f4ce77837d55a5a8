"""Command-line entry point.

    muown run <preset> [--config FILE] [--set key=value ...] --out DIR

Exit codes: 0 when every preset assertion passes, 1 on assertion failure,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError
from .harness import PRESETS, apply_overrides, config_from_dict, run_preset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="muown")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("preset", choices=PRESETS)
    run.add_argument("--config", help="JSON config file", default=None)
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config field (dotted path)")
    run.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    try:
        raw = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    raw = json.load(fh)
            except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise ConfigError(f"--config: cannot read {args.config!r}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"--config: {args.config!r} must hold a JSON object")
        raw = apply_overrides(raw, args.overrides)
        cfg = config_from_dict(raw, preset=args.preset)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot make directory {args.out!r}: "
                              f"{exc.strerror}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    verdict = run_preset(cfg, args.out)
    for item in verdict["assertions"]:
        status = "PASS" if item["pass"] else "FAIL"
        print(f"[{status}] {item['name']}: {item['detail']}")
    print(f"verdict: {'PASS' if verdict['pass'] else 'FAIL'} ({args.out})")
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
