"""Command-line interface.

Subcommands: ``fit`` (non-parametric relative risk with risk difference,
NNT and bootstrap interval), ``ppr-fit`` (parametric EU competitor),
``cox`` (two-group hazard-ratio cross-check), ``simulate`` (write
replicate datasets for a scenario), ``study`` (run a scenario grid and
emit the metric table), ``plotdata`` (per-time data series for plotting).

Exit codes: 0 success, 1 stdout closed before the output was written,
2 validation error, 3 estimation failure (empty usable event-time set),
4 non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .bootstrap import MAX_RESAMPLES, BootstrapConfig, percentile_bootstrap
from .errors import EstimationError, ValidationError
from .models import cox_two_group, fit_ppr
from .nppr import fit_tables, nppr_fit
from .reporting import (
    build_report,
    cox_report,
    emit_report,
    ppr_report,
    read_dataset_csv,
    report_to_json,
    write_dataset_csv,
    write_grid_csv,
)
from .simulate import default_grid, load_grid, reseed, simulate_dataset
from .study import run_scenario
from .survival import event_grid

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3
EXIT_CONVERGENCE = 4


def _cmd_fit(args) -> int:
    if not 0.0 < args.level < 1.0:
        raise ValidationError("--level must be in (0, 1)")
    if args.bootstrap != 0 and not 2 <= args.bootstrap <= MAX_RESAMPLES:
        raise ValidationError("--bootstrap must be 0 (no interval) or from 2 to 2**32")
    _check_seed(args)
    data = read_dataset_csv(args.data)
    result = nppr_fit(data)
    boot = None
    if args.bootstrap > 0:
        boot = percentile_bootstrap(
            data, BootstrapConfig(n_resamples=args.bootstrap, level=args.level, seed=args.seed)
        )
    sys.stdout.write(emit_report(build_report(result, boot), args.format))
    return EXIT_OK


def _check_seed(args) -> None:
    if args.seed < 0:
        raise ValidationError("--seed must be non-negative")


def _check_reps_seed(args) -> None:
    if args.reps < 1:
        raise ValidationError("--reps must be at least 1")
    _check_seed(args)


def _cmd_model(args) -> int:
    fit = args.fit(read_dataset_csv(args.data))
    print(report_to_json(args.report(fit)))
    return EXIT_OK if fit.converged else EXIT_CONVERGENCE


def _cmd_simulate(args) -> int:
    _check_reps_seed(args)
    scenarios = load_grid(args.scenario)
    if len(scenarios) != 1:
        raise ValidationError("scenario file must contain exactly one scenario")
    scenario = reseed(scenarios, args.seed)[0]
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for rep in range(args.reps):
            write_dataset_csv(simulate_dataset(scenario, rep), out_dir / f"replicate_{rep:04d}.csv")
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.reps} dataset(s) to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_study(args) -> int:
    if not 2 <= args.bootstrap <= MAX_RESAMPLES:
        raise ValidationError("--bootstrap must be from 2 to 2**32")
    _check_reps_seed(args)
    scenarios = default_grid() if args.grid == "default" else load_grid(args.grid)
    scenarios = reseed(scenarios, args.seed)
    results = []
    for i, scenario in enumerate(scenarios):
        print(
            f"scenario {i + 1}/{len(scenarios)}: {scenario.model.value} "
            f"effect={scenario.effect_beta} censoring={scenario.censor_rate} "
            f"n={scenario.n_participants}",
            file=sys.stderr,
        )
        results.append(
            run_scenario(
                scenario,
                args.reps,
                with_coverage=args.coverage,
                bootstrap_config=BootstrapConfig(n_resamples=args.bootstrap),
            )
        )
    write_grid_csv(results, sys.stdout)
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    data = read_dataset_csv(args.data)
    writer = csv.writer(sys.stdout)
    if args.series == "cdf":
        # the fit's Kaplan-Meier CDFs exist even where the NPPR window is empty
        grid = event_grid(data)
        cdf = 1.0 - fit_tables(grid.table()[None]).surv[0]
        writer.writerow(["time", "cdf_treatment", "cdf_control"])
        writer.writerows(zip(grid.event_times.tolist(), cdf[:, 1].tolist(), cdf[:, 0].tolist()))
        return EXIT_OK

    # columns of the fit report; csv.writer writes None as an empty cell
    doc = build_report(nppr_fit(data), None)
    pointwise, rd = doc["pointwise_series"], doc["rd_nnt_series"]
    if args.series == "beta_t":
        writer.writerow(["time", "beta_t"])
        writer.writerows((t, b) for t, b, _ in pointwise)
    elif args.series == "weights":
        writer.writerow(["time", "weight"])
        writer.writerows((t, w) for t, _, w in pointwise)
    else:  # nnt
        writer.writerow(["time", "rd", "nnt"])
        writer.writerows(zip(rd["times"], rd["rd"], rd["nnt"]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proprisk",
        description="Relative risk, risk difference and NNT for two-group "
        "right-censored time-to-event data under proportional risks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="non-parametric relative-risk analysis")
    p.add_argument("--data", required=True, help="CSV with columns time,status,group")
    p.add_argument("--bootstrap", type=int, default=500, metavar="B",
                   help="bootstrap resamples for the CI (0 disables; default 500)")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "delimited", "structured"], default="table")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ppr-fit", help="parametric proportional-risk (EU) fit")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_model, fit=fit_ppr, report=ppr_report)

    p = sub.add_parser("cox", help="two-group Cox hazard ratio (validation)")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_model, fit=cox_two_group, report=cox_report)

    p = sub.add_parser("simulate", help="write simulated datasets for one scenario")
    p.add_argument("--scenario", required=True, help="JSON file with one scenario")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("study", help="run a simulation-study scenario grid")
    p.add_argument("--grid", required=True,
                   help="JSON grid file, or 'default' for the built-in 90-cell grid")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--coverage", action="store_true",
                   help="also estimate CI coverage (slow: bootstrap per replicate)")
    p.add_argument("--bootstrap", type=int, default=500, metavar="B")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("plotdata", help="per-time data series for plotting")
    p.add_argument("--data", required=True)
    p.add_argument("--series", choices=["cdf", "beta_t", "weights", "nnt"], required=True)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point it at devnull so the
        # interpreter's final flush stays quiet (the recipe in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    return code


if __name__ == "__main__":
    sys.exit(main())
