"""Command-line interface: estimate, identify, and simulate subcommands.

Exit codes: 0 success, 1 I/O, parse or option-value failure, 2
identification or diagnostic failure (and argparse usage errors), 3
optimizer non-convergence.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict

from . import io as mio
from .baselines import naive_bias_diag, ols, relevance_test, wald_iv
from .data import Mode, cell_stats, param_names, validate
from .exceptions import (
    MislateError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .gmm import GmmConfig, estimate as gmm_estimate
from .identification import check_support_points, identify, nonsingularity_diag
from .simulation import DesignSpec, run_study, true_params

EXIT_OK = 0
EXIT_IO = 1
EXIT_DIAG = 2
EXIT_NOCONV = 3


def _version() -> str:
    # imported here: importlib.metadata loads the email package, which only
    # a report needs
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("mislate")
    except PackageNotFoundError:
        return "unknown"


def _meta(args: argparse.Namespace) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"command": args.command, "args": echo,
            "software": {"package": "mislate", "version": _version()}}


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--outcome", required=True, help="outcome column name")
    p.add_argument("--treatment", required=True, help="binary treatment column")
    p.add_argument("--instrument", required=True, help="binary instrument column")
    p.add_argument("--exogenous", required=True, help="exogenous variable column")
    p.add_argument("--mode", choices=["case-i", "case-ii"], default="case-ii")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--v-support", default=None,
                   help="comma-separated support order for the exogenous column")


def _add_output_flags(p: argparse.ArgumentParser):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", default=True)
    fmt.add_argument("--text", dest="as_json", action="store_false")


def _load(args) -> tuple:
    schema = mio.CsvSchema(
        y_col=args.outcome, t_col=args.treatment, z_col=args.instrument,
        v_col=args.exogenous, delimiter=args.delimiter,
    )
    if args.v_support == "":
        raise ValidationError("--v-support names no label")
    support = ([label.strip() for label in args.v_support.split(",")]
               if args.v_support is not None else None)
    mode = Mode(args.mode)
    ds = mio.load_csv(args.data, schema, mode, v_support=support)
    return ds, mode


def _support_points(text, mode: Mode, k: int):
    """Parse --support-points: a pair "i,j" in case-ii, two triples
    "a,b,c;d,e,f" (one per z) in case-i, checked as identify checks its
    support_points. Raises ValidationError on any other form."""
    if text is None:
        return None
    case_i = mode is Mode.CASE_I
    shape = "two triples a,b,c;d,e,f" if case_i else "a pair i,j"
    groups = [[part.strip() for part in group.split(",")]
              for group in text.split(";")]
    if len(groups) != (2 if case_i else 1) or any(
            len(parts) != (3 if case_i else 2)
            or not all(re.fullmatch(r"[0-9]+", part) for part in parts)
            for parts in groups):
        raise ValidationError(f"--support-points must be {shape} of integer "
                              f"indices in {mode.value}, got {text!r}")
    out = [tuple(int(part) for part in parts) for parts in groups]
    points = tuple(out) if case_i else out[0]
    try:
        check_support_points(points, k, mode)
    except ValidationError as exc:
        raise ValidationError(f"--support-points: {exc}") from None
    return points


def _dataset_summary(stats) -> dict:
    cells = [{"z": z, "v": str(stats.v_support[k]), "count": int(stats.n_zv[z, k]),
              "p": float(stats.p_zv[z, k]), "tau": float(stats.tau_zv[z, k])}
             for z in (0, 1) for k in range(stats.k)]
    return {"n": stats.n, "k": stats.k,
            "v_support": [str(v) for v in stats.v_support],
            "r_hat": stats.r_hat,
            "p_z": stats.p_z, "mu_z": stats.mu_z, "cells": cells}


def _slope(fit) -> dict:
    """The slope and its robust SE of a baseline regression."""
    return {"coef": float(fit.coef[1]), "robust_se": float(fit.robust_se[1])}


def _diagnostics(stats, hc1: bool) -> dict:
    """Determinants and relevance regressions (HC1 with hc1) of a valid table."""
    dets = nonsingularity_diag(stats, stats.mode)
    rel = relevance_test(stats, hc1=hc1)
    return {
        "validation": [],
        "determinants": [{"candidate": str(k), "det": float(v)}
                         for k, v in dets.items()],
        "relevance": {str(z): {**_slope(r), "n": r.n} for z, r in rel.items()},
    }


def _tabulate(ds, report: dict, hc1: bool):
    """Cell table of a validated sample, with its dataset summary and
    diagnostics added to the report; raises ValidationError listing every
    problem validate finds."""
    stats = cell_stats(ds)
    problems = validate(stats)
    if problems:
        raise ValidationError("; ".join(problems))
    report["dataset"] = _dataset_summary(stats)
    report["diagnostics"] = _diagnostics(stats, hc1)
    return stats


def _emit(report: dict, as_json: bool):
    sys.stdout.write(mio.report_json(report) + "\n" if as_json
                     else mio.report_text(report))


def cmd_estimate(args) -> int:
    try:
        cfg = GmmConfig(weighting=args.weight, ci_level=args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        ds, mode = _load(args)
    except (OSError, ParseError, SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = _meta(args)
    try:
        stats = _tabulate(ds, report, hc1=args.hc1)
        est = gmm_estimate(stats, cfg)
    except MislateError as exc:
        report["error"] = str(exc)
        _emit(report, args.as_json)
        return EXIT_DIAG

    report["estimate"] = {
        "weighting": est.weighting,
        "converged": est.converged,
        "objective": est.objective,
        "params": [{"name": name, "estimate": x, "se": se, "ci": ci}
                   for name, x, se, ci in zip(est.param_names, est.theta_flat,
                                              est.se, est.ci)],
        "vcov": est.vcov,
    }
    report["j_test"] = {"stat": est.j_stat, "dof": est.j_dof,
                        "pvalue": est.j_pvalue}
    try:
        iv = wald_iv(stats, hc1=args.hc1)
        report["baselines"] = {"wald_iv": _slope(iv),
                               "ols": _slope(ols(stats, hc1=args.hc1))}
        if mode is Mode.CASE_II:
            theta = est.theta_hat
            report["baselines"]["naive_bias"] = asdict(naive_bias_diag(
                float(theta.beta_star), float(theta.m0[0]), float(theta.m1[0]), iv))
    except MislateError as exc:
        report["baselines"] = {"error": str(exc)}
    _emit(report, args.as_json)
    return EXIT_OK if est.converged else EXIT_NOCONV


def cmd_identify(args) -> int:
    try:
        ds, mode = _load(args)
        support_points = _support_points(args.support_points, mode, ds.k)
    except (OSError, ParseError, SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = _meta(args)
    try:
        stats = _tabulate(ds, report, hc1=False)
        result = identify(stats, mode, support_points=support_points)
    except MislateError as exc:
        report["error"] = str(exc)
        _emit(report, args.as_json)
        return EXIT_DIAG
    names = param_names(stats.k, mode)
    flat = result.theta.pack()
    report["identify"] = {
        "params": [{"name": names[i], "estimate": float(flat[i])}
                   for i in range(flat.size)],
        "s": result.s,
        "support_points": str(result.support_points),
        "discriminants": list(result.discriminants),
        "candidates": [{"candidate": str(k), "det": float(v)}
                       for k, v in result.determinants.items()],
    }
    _emit(report, args.as_json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        design = DesignSpec(args.design)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = _meta(args)
    try:
        summary = run_study(design, n=args.n, reps=args.reps, seed=args.seed,
                            ci_level=args.level, workers=args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: the study does not fit in memory ({exc or 'no detail'})",
              file=sys.stderr)
        return EXIT_IO
    truth = true_params(design)
    report["simulate"] = {
        "design": summary.design, "n": summary.n, "reps": summary.reps,
        "seed": summary.seed, "n_failed": summary.n_failed,
        "failures": summary.failures,
        "true": {"beta_star": truth.beta_star,
                 "delta_p_star": truth.delta_p_star,
                 "m0": float(truth.m0[0]), "m1": float(truth.m1[0])},
        "rows": [asdict(r) for r in summary.rows],
    }
    _emit(report, args.as_json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mislate",
        description="LATE estimation with a misclassified binary treatment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="GMM estimation from a CSV file")
    _add_data_flags(p_est)
    p_est.add_argument("--weight", choices=["identity", "optimal"],
                       default="identity")
    p_est.add_argument("--level", type=float, default=0.95)
    p_est.add_argument("--hc1", action="store_true",
                       help="small-sample HC1 correction for the SEs of the "
                            "naive IV, OLS and relevance regressions")
    _add_output_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_id = sub.add_parser("identify", help="closed-form identification only")
    _add_data_flags(p_id)
    p_id.add_argument("--support-points", default=None,
                      help="comma-separated support indices pinning the "
                           "closed-form solver (pair for case-ii; two triples "
                           "z0;z1 for case-i)")
    _add_output_flags(p_id)
    p_id.set_defaults(func=cmd_identify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study")
    p_sim.add_argument("--design", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker processes; at most min(N, CPU count, "
                            "reps) run")
    _add_output_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
