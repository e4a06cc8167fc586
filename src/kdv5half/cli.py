"""Command-line entry point.

Three subcommands, all driven by a scenario JSON file:

    kdv5half solve SCENARIO [--out DIR] [--seed N] [--depth D]
    kdv5half verify SCENARIO [--out DIR] [--seed N] [--depth D]
    kdv5half probe-bilinear SCENARIO [--out DIR] [--seed N] [--depth D]

Exit status is 0 exactly when every check requested by the scenario passed,
1 when one failed, 2 for an invalid scenario or configuration, 3 when a
numerical guard tripped, and 4 for an internal error of the harness itself.
With --out, summary.json / report.json / plot data land in that directory;
the summary is canonically serialized so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys

from .boundary import AccuracyError, PreconditionError
from .fixed_point import NonContractionError
from .grids import canonical_json
from .scenarios import ScenarioError, run_scenario
from .verification import HarnessError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdv5half",
        description="Half-line fifth-order KdV solver and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "run the solver pipeline named by the scenario"),
        ("verify", "run the pipeline plus every verification check requested"),
        ("probe-bilinear", "random ensemble search for the bilinear-estimate ratio"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--out", default=None, help="directory for summary/report/plot artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--depth", type=int, default=None, help="override the quadrature depth")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, summary = run_scenario(
            args.scenario,
            out_dir=args.out,
            seed=args.seed,
            depth=args.depth,
            command=args.command,
        )
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except NonContractionError as exc:
        print(f"iteration did not contract: {exc}", file=sys.stderr)
        return 3
    except HarnessError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    print(canonical_json(summary, indent=2))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
