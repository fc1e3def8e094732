"""The ``python -m repro.scenarios`` command line.

Three subcommands:

``run``
    Execute a campaign: ``--count`` scenarios off the ``--seed`` master
    stream, steered unless ``--no-steer``, JSON report via
    ``--json-output``.  Exit 1 when any scenario diverged.
``replay``
    Re-execute exactly one scenario by its *scenario* seed (the seeds a
    failing campaign prints), with full detail on stdout.
``report``
    Re-render a saved JSON campaign report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description=(
            "scenario synthesis + coverage-guided differential campaigns"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a campaign")
    run.add_argument("--count", type=int, default=200,
                     help="scenarios to execute (default 200)")
    run.add_argument("--seed", type=int, default=0,
                     help="master seed of the scenario stream")
    run.add_argument("--workers", type=int, default=4,
                     help="scenarios in flight, the calling thread "
                          "included")
    run.add_argument("--round-size", type=int, default=32,
                     help="scenarios per steering round")
    run.add_argument("--t-end", type=float, default=0.25,
                     help="simulated seconds per differential run")
    run.add_argument("--no-steer", action="store_true",
                     help="disable coverage steering (pure stream order)")
    run.add_argument("--backend", action="append", dest="backends",
                     metavar="NAME",
                     help="compiled backend to compare (repeatable; "
                          "default: auto-detect)")
    run.add_argument("--mutate-seed", action="append", type=int,
                     dest="mutate_seeds", metavar="SEED", default=[],
                     help="corrupt this scenario seed's comparison "
                          "(self-test: the campaign must catch it)")
    run.add_argument("--json-output", metavar="PATH",
                     help="write the JSON campaign report here")
    run.add_argument("--work-dir", metavar="DIR",
                     help="spool directory for fault-family checkpoints")
    run.add_argument("--cluster", metavar="URL",
                     help="execute scenarios on a running repro.cluster "
                          "HTTP endpoint instead of in-process workers")

    rep = sub.add_parser("replay", help="re-execute one scenario seed")
    rep.add_argument("--seed", type=int, required=True,
                     help="the scenario seed to replay")
    rep.add_argument("--t-end", type=float, default=0.25)
    rep.add_argument("--mutate", action="store_true",
                     help="corrupt the comparison (must then diverge)")
    rep.add_argument("--json", action="store_true", dest="as_json",
                     help="print the outcome as JSON")

    show = sub.add_parser("report", help="render a saved JSON report")
    show.add_argument("path", help="a --json-output file from `run`")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios.campaign import CampaignConfig, CampaignRunner

    config = CampaignConfig(
        count=args.count,
        seed=args.seed,
        workers=args.workers,
        round_size=args.round_size,
        t_end=args.t_end,
        steer=not args.no_steer,
        backends=args.backends,
        work_dir=args.work_dir,
        mutate_seeds=frozenset(args.mutate_seeds),
    )
    runner = CampaignRunner(config)
    if args.cluster:
        report = runner.run_over_cluster(args.cluster)
    else:
        report = runner.run()
    if args.json_output:
        report.save(args.json_output)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.scenarios.campaign import CampaignConfig, replay
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec.from_seed(args.seed)
    config = CampaignConfig(
        t_end=args.t_end,
        mutate_seeds=frozenset([args.seed]) if args.mutate
        else frozenset(),
    )
    outcome = replay(args.seed, config)
    if args.as_json:
        print(json.dumps(
            {"spec": json.loads(spec.to_json()),
             "outcome": outcome.to_dict()},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"scenario seed {spec.seed}: family {spec.family}, "
              f"params {dict(spec.params)}")
        if outcome.ok:
            print("outcome: OK (no divergence)")
        else:
            print(f"outcome: DIVERGED — {outcome.detail}")
    return 0 if outcome.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.scenarios.campaign import CampaignReport

    try:
        report = CampaignReport.load(args.path)
    except OSError as exc:
        print(f"cannot read report {args.path!r}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(
            f"not a campaign report: {args.path!r} ({exc})",
            file=sys.stderr,
        )
        return 2
    print(report.render())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.print_help(sys.stderr)
    return 2
