"""Command-line experiment runner: ``python -m repro.experiments <name>``."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.experiments import (
    ablations,
    figure7,
    figure8,
    multihop,
    survivability,
    validation,
)
from repro.experiments.common import ExperimentSettings


def build_settings(args) -> ExperimentSettings:
    if args.quick:
        base = ExperimentSettings.quick()
    else:
        base = ExperimentSettings()
    overrides = {}
    if args.no_calibration:
        overrides["calibrate_load"] = False
    if overrides:
        base = dataclasses.replace(base, **overrides)
    return base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and the extra experiments.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "figure7",
            "figure8",
            "validation",
            "ablation-policies",
            "ablation-workload",
            "survivability",
            "multihop",
            "all",
        ],
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer requests / one seed"
    )
    parser.add_argument(
        "--no-calibration",
        action="store_true",
        help="use the paper's load formula verbatim (load_scale=1)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write the figure series as CSV into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep points over N worker processes (results are "
        "bit-identical to a serial run; default 1)",
    )
    args = parser.parse_args(argv)
    settings = build_settings(args)
    jobs = args.jobs

    runners = {
        "figure7": lambda: figure7.main(settings, csv_dir=args.csv, jobs=jobs),
        "figure8": lambda: figure8.main(settings, csv_dir=args.csv, jobs=jobs),
        "validation": lambda: validation.main(),
        "ablation-policies": lambda: ablations.main_policies(settings, jobs=jobs),
        "ablation-workload": lambda: ablations.main_workload(settings, jobs=jobs),
        "survivability": lambda: survivability.main(
            settings, csv_dir=args.csv, jobs=jobs
        ),
        "multihop": lambda: multihop.main(
            settings, csv_dir=args.csv, jobs=jobs
        ),
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        # perf_counter: monotonic, reporting-only (whitelisted under RL001).
        t0 = time.perf_counter()
        print(runners[name]())
        print(f"\n[{name} finished in {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
