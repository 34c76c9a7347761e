"""Command-line front end.

    hss-stab <command> --scenario <file> [options]

Commands: eig, htf, sweep, classify, spurious.  Exit codes: 0 success,
2 validation/configuration or shape error, 3 numerical error, 4
instability detected while --fail-on-unstable is set.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigurationError, HssError, NumericalError, ShapeError
from .runner import COMMANDS, export_results, run_command
from .scenario import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_UNSTABLE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--jobs", type=int, default=1, help="parallel sweep and classify rebuilds")
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
            p.add_argument("--s", required=True, help="Laplace point, e.g. '1+6j'")
            p.add_argument(
                "--port",
                action="append",
                default=None,
                help="disturbance port(s) to include (default: all)",
            )
        if name == "sweep":
            p.add_argument("--sweep", dest="sweep_name", default=None)
            p.add_argument("--param", dest="parameter", default=None)
            p.add_argument("--values", default=None, help="comma-separated values")
            p.add_argument(
                "--no-refine",
                action="store_true",
                help="disable step bisection near suspected crossings",
            )
        if name == "classify":
            p.add_argument("--control-params", default=None, help="comma-separated paths")
            p.add_argument("--hardware-params", default=None, help="comma-separated paths")
            p.add_argument("--epsilon", type=float, default=None)
        if name == "spurious":
            p.add_argument("--hmax-probe", type=int, default=None)
            p.add_argument("--delta", type=float, default=None)
    return parser


def _parse(convert, text: str, flag: str):
    try:
        return convert(text)
    except ValueError:
        raise ConfigurationError(f"{flag}: cannot read '{text}' as a {convert.__name__}") from None


def _options(args) -> dict:
    opts = {"jobs": args.jobs}
    if args.command == "htf":
        opts["s"] = _parse(complex, args.s, "--s")
        opts["ports"] = tuple(args.port) if args.port else None
    if args.command == "sweep":
        opts["sweep_name"] = args.sweep_name
        opts["parameter"] = args.parameter
        if args.values is not None:
            values = [v for v in args.values.split(",") if v.strip()]
            opts["values"] = [_parse(float, v, "--values") for v in values]
        opts["refine_on_crossing"] = not args.no_refine
    if args.command == "classify":
        if args.control_params:
            opts["control_parameters"] = [p for p in args.control_params.split(",") if p]
        if args.hardware_params:
            opts["hardware_parameters"] = [p for p in args.hardware_params.split(",") if p]
        opts["epsilon"] = args.epsilon
    if args.command == "spurious":
        opts["hmax_probe"] = args.hmax_probe
        opts["delta"] = args.delta
    return opts


def _error_record(exc: HssError, code: int) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
        sort_keys=True,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.hmax is not None:
            scenario = scenario.with_hmax(args.hmax)
        results = run_command(args.command, scenario, **_options(args))
        destination = args.out if args.out else sys.stdout
        export_results(
            results, args.format, destination, timestamp=not args.no_timestamp
        )
    except (ConfigurationError, ShapeError) as exc:
        print(_error_record(exc, EXIT_VALIDATION), file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(_error_record(exc, EXIT_NUMERICAL), file=sys.stderr)
        return EXIT_NUMERICAL
    if (
        args.command == "eig"
        and getattr(args, "fail_on_unstable", False)
        and not results.meta.get("stable", True)
    ):
        return EXIT_UNSTABLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
