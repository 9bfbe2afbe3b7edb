#!/usr/bin/env python3
"""Run the six-design Monte Carlo study and print the three summary tables
(LATE, first stage, error rates) in bias / SD / RMSE / CP format.

Example:
    python3 scripts/run_montecarlo.py --n 1000 --reps 500 --seed 2024

Each design's `done` line on stderr counts its failed replications and
names their errors. A row whose estimator failed in every replication
prints `.` in place of its numbers. Exit codes follow the CLI: 0 success,
1 a bad option value (`--workers` below 1, a design outside 1..6) or a
study that does not fit in memory, with `error: ...` on stderr.
"""
import argparse
import sys

from mislate.cli import EXIT_IO, EXIT_OK
from mislate.simulation import DesignSpec, run_study

STATS = ("true", "bias", "sd", "rmse", "cp")


def fmt(x):
    return f"{'.':>6}" if x is None else f"{x: .3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--designs", type=int, nargs="+", default=list(range(1, 7)))
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    studies = {}
    for d in args.designs:
        try:
            studies[d] = run_study(DesignSpec(d), n=args.n, reps=args.reps,
                                   seed=args.seed, workers=args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except MemoryError as exc:
            print(f"error: the study does not fit in memory "
                  f"({exc or 'no detail'})", file=sys.stderr)
            return EXIT_IO
        causes = ", ".join(f"{count} {cause}"
                           for cause, count in studies[d].failures.items())
        print(f"design {d}: done ({studies[d].n_failed} failed reps"
              f"{': ' + causes if causes else ''})", file=sys.stderr)

    blocks = [
        ("LATE (beta*)", [("gmm", "beta_star"), ("iv", "beta_star")]),
        ("first stage (delta p*)", [("gmm", "delta_p_star"),
                                    ("ols", "delta_p_star")]),
        ("error rates", [("gmm", "m0"), ("gmm", "m1")]),
    ]
    for title, rows in blocks:
        print(f"\n== {title} ==  n={args.n} reps={args.reps} seed={args.seed}")
        print(f"{'design':>6} {'estimator':>9} {'param':>12} "
              f"{'true':>7} {'bias':>7} {'sd':>7} {'rmse':>7} {'cp':>7}")
        for d in args.designs:
            for est, param in rows:
                try:
                    r = studies[d].row(param, est)
                except KeyError:  # every replication failed
                    r = None
                vals = " ".join(fmt(None if r is None else getattr(r, f))
                                for f in STATS)
                print(f"{d:>6} {est:>9} {param:>12} {vals}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
