"""Command-line front end.

    hss-stab <command> --scenario <file> [options]

Commands: eig, htf, sweep, classify, spurious.  Exit codes: 0 success,
2 usage, validation/configuration or shape error, 3 numerical error, 4
instability detected while --fail-on-unstable is set.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from .errors import ConfigurationError, HssError, NumericalError
from .runner import COMMANDS, export_results, run_command
from .scenario import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_UNSTABLE = 4


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigurationError, so it ends in the JSON record."""

    def error(self, message):
        raise ConfigurationError(message)


def _comma_list(convert):
    """argparse type: a comma-separated list, blank entries dropped."""

    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",") if v.strip()]

    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


#: dests that main reads itself; every other dest is a run_command option
MAIN_FLAGS = ("command", "scenario", "out", "format", "hmax", "no_timestamp", "fail_on_unstable")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hss-stab",
        description="Harmonic stability assessment of converter-dominated grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--hmax", type=int, default=None, help="override scenario hmax")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="suppress the timestamp header for byte-reproducible output",
        )
        if name == "eig":
            p.add_argument(
                "--fail-on-unstable",
                action="store_true",
                help="exit with code 4 when the verdict is unstable",
            )
        if name == "htf":
            p.add_argument("--s", type=complex, required=True, help="Laplace point, e.g. '1+6j'")
            p.add_argument(
                "--port",
                dest="ports",
                action="append",
                default=None,
                help="disturbance port(s) to include (default: all)",
            )
        if name == "sweep":
            p.add_argument("--sweep", dest="sweep_name", default=None)
            p.add_argument("--param", dest="parameter", default=None)
            p.add_argument(
                "--values", type=_comma_list(float), default=None, help="comma-separated values"
            )
        if name == "classify":
            for kind in ("control", "hardware"):
                p.add_argument(
                    f"--{kind}-params",
                    dest=f"{kind}_parameters",
                    type=_comma_list(str),
                    default=None,
                    help="comma-separated paths",
                )
            p.add_argument("--epsilon", type=float, default=None)
        if name == "spurious":
            p.add_argument("--hmax-probe", type=int, default=None)
            p.add_argument("--delta", type=float, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        options = {k: v for k, v in vars(args).items() if k not in MAIN_FLAGS}
        for dest, value in options.items():  # the numeric flags: --s, --values, --epsilon, --delta
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, (float, complex)) and not cmath.isfinite(v) for v in values):
                raise ConfigurationError(f"argument --{dest}: numbers must be finite, got {value}")
        scenario = load_scenario(args.scenario)
        if args.hmax is not None:
            scenario = scenario.with_hmax(args.hmax)
        results = run_command(args.command, scenario, **options)
        destination = args.out if args.out else sys.stdout
        export_results(
            results, args.format, destination, timestamp=not args.no_timestamp
        )
    except HssError as exc:
        code = EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code
    if getattr(args, "fail_on_unstable", False) and not results.meta.get("stable", True):
        return EXIT_UNSTABLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
