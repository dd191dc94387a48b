"""Command-line entry points.

    otflow run <config|name> [--grid NxM] [--seed S] [--stop-tol T] [--out DIR]
    otflow audit-convexity <config|name> [--out DIR]
    otflow audit-harnack <trajectory-dir>
    otflow audit-km <trajectory-dir>
    otflow replay-diagnostics <trajectory-dir>

<config|name> is a JSON file path or a bundled scenario name. The output
root defaults to ./runs and can be set with the OTFLOW_OUTPUT_ROOT
environment variable. Exit codes: 0 success, 2 validation/config failure,
1 runtime failure. A failed run writes error.json to its run directory, a
failed audit-convexity to its --out directory, and a config that fails to
parse or validate (overrides included) to <root>/<config stem or name>.
The audit sweeps are fixed Sobol prefixes: the seed is recorded in
manifest.json but selects no sample.
"""

import argparse
import os
import sys

from . import runner, serialize
from .config import ConfigError, bundled_scenario_names, load_scenario
from .errors import OTFlowError, ScenarioNotFound


def _parse_grid(text):
    try:
        n_r, n_s = text.lower().split("x")
        return int(n_r), int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like 64x128")


def build_parser():
    p = argparse.ArgumentParser(prog="otflow",
                                description="parabolic transport-flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="validate and run a scenario")
    run.add_argument("config", help="config file or bundled scenario name")
    run.add_argument("--grid", type=_parse_grid, default=None,
                     help="override grid as NxM (radial x angular)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--stop-tol", type=float, default=None)
    run.add_argument("--out", default=None, help="output root directory")

    conv = sub.add_parser("audit-convexity",
                          help="boundary convexity and bi-twist audit")
    conv.add_argument("config")
    conv.add_argument("--out", default=None)

    for name in ("audit-harnack", "audit-km", "replay-diagnostics"):
        s = sub.add_parser(name)
        s.add_argument("trajectory", help="finished trajectory directory")

    sub.add_parser("list", help="list bundled scenarios")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (OTFlowError, FileNotFoundError) as exc:
        sys.stderr.write(serialize.dumps(serialize.error_record(exc)) + "\n")
        return 2 if isinstance(exc, (ConfigError, FileNotFoundError)) else 1


def _dispatch(args):
    if args.command == "list":
        for name in bundled_scenario_names():
            print(name)
        return 0

    if args.command == "run":
        try:
            config = load_scenario(args.config).with_overrides(
                grid=args.grid, seed=args.seed, stop_tol=args.stop_tol)
        except ScenarioNotFound:
            raise
        except ConfigError as exc:
            # no validated config names the run: its directory is named
            # after the config argument
            name = os.path.splitext(os.path.basename(args.config))[0]
            result = runner.config_failure(name, exc, output_root=args.out)
        else:
            result = runner.run_scenario(config, output_root=args.out)
        if result.status == 0:
            print(serialize.dumps({"outdir": result.outdir,
                                   "summary": result.summary}))
        else:
            sys.stderr.write(serialize.dumps(result.error) + "\n")
        return result.status

    if args.command == "audit-convexity":
        out = args.out
        try:
            config = load_scenario(args.config)
            spec, _ = config.build_problem()
            report = runner.convexity_audit(spec, seed=config.seed)
        except OTFlowError as exc:
            if out and not isinstance(exc, ScenarioNotFound):
                serialize.write_error(out, exc)
            raise
        if out:
            os.makedirs(out, exist_ok=True)
            serialize.write_json(os.path.join(out, "convexity.json"), report)
        print(serialize.dumps(report))
        return 0

    trajectory_dir = args.trajectory
    if args.command == "replay-diagnostics":
        summary = runner.replay_diagnostics(trajectory_dir)
        print(serialize.dumps(summary))
        return 0

    trajectory, manifest = serialize.load_trajectory(trajectory_dir)
    audit_dir = os.path.join(trajectory_dir, "audits")
    os.makedirs(audit_dir, exist_ok=True)
    if args.command == "audit-harnack":
        runner.harnack_audit(trajectory, audit_dir)
        print(os.path.join(audit_dir, "harnack.csv"))
    elif args.command == "audit-km":
        runner.km_audit(trajectory, audit_dir)
        print(os.path.join(audit_dir, "km.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
