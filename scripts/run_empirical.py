#!/usr/bin/env python3
"""Estimate the misclassification-corrected LATE from a CSV file and print
the corrected estimate next to the naive IV and OLS baselines.

It calls the library directly and adds what the `mislate estimate` report
does not carry: the naive OLS outcome regression and a compact
human-readable summary. Column names are passed explicitly:

    python3 scripts/run_empirical.py --data wages.csv \
        --outcome lwage --treatment college --instrument near4 \
        --exogenous near2

Exit codes follow the CLI: 0 success, 1 an unreadable or malformed CSV or
an option value out of range such as `--level 1.5` (`error: ...` on
stderr), 2 a validation, baseline or estimation failure.
"""
import argparse
import sys

from mislate.baselines import ols, relevance_test, wald_iv
from mislate.cli import EXIT_DIAG, EXIT_IO, EXIT_OK
from mislate.data import Mode, cell_stats, validate
from mislate.exceptions import (MislateError, ParseError, SchemaError,
                                ValidationError)
from mislate.gmm import GmmConfig, estimate
from mislate.io import CsvSchema, load_csv


def _summary(stats, cfg, args) -> None:
    """Print the baselines and the corrected estimate for a validated table."""
    print(f"n = {stats.n}, treated share = {stats.p_zv.mean():.3f}, "
          f"instrument share = {stats.r_hat:.3f}")

    o = ols(stats, "y", ("t",), hc1=args.hc1)
    iv = wald_iv(stats, hc1=args.hc1)
    print(f"naive OLS   : {o.coef[1]: .3f}  ({o.robust_se[1]:.3f})")
    print(f"naive IV    : {iv.coef[1]: .3f}  ({iv.robust_se[1]:.3f})")
    for z, r in relevance_test(stats, hc1=args.hc1).items():
        print(f"relevance z={z}: {r.coef[1]: .3f}  ({r.robust_se[1]:.3f})  "
              f"n={r.n}")

    est = estimate(stats, cfg)
    print(f"converged = {est.converged}, objective = {est.objective:.3e}")
    for i, name in enumerate(est.param_names):
        print(f"{name:>16}: {est.theta_flat[i]: .3f}  ({est.se[i]:.3f})  "
              f"[{est.ci[i, 0]: .3f}, {est.ci[i, 1]: .3f}]")
    if est.j_pvalue is not None:
        print(f"overid test: stat = {est.j_stat:.3f}, dof = {est.j_dof}, "
              f"p = {est.j_pvalue:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True)
    ap.add_argument("--outcome", required=True)
    ap.add_argument("--treatment", required=True)
    ap.add_argument("--instrument", required=True)
    ap.add_argument("--exogenous", required=True)
    ap.add_argument("--mode", choices=["case-i", "case-ii"], default="case-ii")
    ap.add_argument("--weight", choices=["identity", "optimal"],
                    default="identity")
    ap.add_argument("--level", type=float, default=0.95)
    ap.add_argument("--hc1", action="store_true",
                    help="small-sample HC1 correction for the baseline SEs")
    args = ap.parse_args(argv)

    try:
        cfg = GmmConfig(weighting=args.weight, ci_level=args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    schema = CsvSchema(y_col=args.outcome, t_col=args.treatment,
                       z_col=args.instrument, v_col=args.exogenous)
    try:
        ds = load_csv(args.data, schema, Mode(args.mode))
    except (OSError, ParseError, SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    stats = cell_stats(ds)
    problems = validate(stats)
    if problems:
        print("validation: " + "; ".join(problems), file=sys.stderr)
        return EXIT_DIAG

    try:
        _summary(stats, cfg, args)
    except MislateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
