#!/usr/bin/env python3
"""Compare this source tree's numbers with those of another git revision.

Example:
    python3 scripts/golden.py --against HEAD~1

The revision is extracted with `git archive` into a temporary directory.
One fixed battery then runs in each tree, each in its own process with that
tree's `src` on the path, and the two sets of outputs are compared:

- `study`: `run_study` over designs 1-6 x seeds 0-1 (n = 1000, 200 reps, one
  worker): each summary row, `n_failed` and `failures`; and each
  replication's identity-weighted fit (its packed estimate, vcov,
  `converged` and error class), from one `gmm._fit` of the study's stacked
  tables.
- `overid`: `estimate` on the K = 3 tables of CASE_I and CASE_II, rng seeds
  1-20, n = 20 000 (`random_theta` and `simulate_from_theta` of
  `tests/conftest.py`), identity and optimal weighting: theta, vcov, J,
  the objective, `converged` or the error class, and the solver's calls,
  `nfev`, `njev` and `status`.
- `identify`: `identify` on the forward tables of `random_theta` draws (rng
  seeds 1-10) and on samples of them (n = 5000), CASE_I and CASE_II with
  K = 2, 3 and 4, each alone and the 20 of a mode and K as one stack: every
  field of the result or the error class and message; and `mislate
  identify --json` on the CSVs below, plain and with `--support-points 1,0`.
- `cli`: `mislate estimate --json` on generated CSVs (designs 1-6 and a
  three-label V, each weighting), apart from the report's `software`, with
  the exit code and the number of solver calls.

The tables and the CSVs are built once, in this tree, and both trees read
the same ones. An output is bit-identical when every field has the same
bits, NaN included, and every flag (`converged`, an error class, an exit
code) is equal. For the others the report gives the worst relative drift of
a numeric field, the drift of theta in units of the revision's standard
errors, and the ratio of the objectives; a flag that differs is listed,
never dropped. Exit code 0 when every output is bit-identical, 1 when one
is not, 2 when the revision cannot be extracted or a battery fails to run.
"""
import argparse
import contextlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DESIGNS, SEEDS, STUDY_N, STUDY_REPS = range(1, 7), (0, 1), 1000, 200
OVERID_SEEDS, OVERID_N, OVERID_K = range(1, 21), 20_000, 3
IDENTIFY_SEEDS, IDENTIFY_N, IDENTIFY_KS = range(1, 11), 5000, (2, 3, 4)
WEIGHTINGS = ("identity", "optimal")


# ---------------------------------------------------------------- inputs

def build_inputs(workdir: Path) -> Path:
    """The overidentified tables' sums and the CLI's CSVs, built in this
    tree; returns the path of the pickled inputs."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    from dataclasses import replace

    from conftest import random_theta, simulate_from_theta, stack_tables
    from mislate.data import Mode, cell_stats
    from mislate.identification import forward_cell_stats
    from mislate.simulation import DesignSpec, generate

    def sums(t):
        return dict(n_zvt=t.n_zvt, sum_y=t.sum_y, ss_y=t.ss_y,
                    mode=t.mode.value, v_support=t.v_support)

    tables, identified = {}, {}
    for mode in (Mode.CASE_I, Mode.CASE_II):
        for seed in OVERID_SEEDS:
            rng = np.random.default_rng(seed)
            theta = random_theta(rng, mode, OVERID_K)
            ds = replace(simulate_from_theta(theta, OVERID_N, rng), mode=mode)
            tables[f"{mode.value} seed {seed}"] = sums(cell_stats(ds))
        for k in IDENTIFY_KS:
            group = {}
            for seed in IDENTIFY_SEEDS:
                rng = np.random.default_rng(seed)
                theta = random_theta(rng, mode, k)
                ds = replace(simulate_from_theta(theta, IDENTIFY_N, rng), mode=mode)
                group[f"forward seed {seed}"] = forward_cell_stats(theta)
                group[f"sampled seed {seed}"] = cell_stats(ds)
            group["stack"] = stack_tables(list(group.values()))
            identified |= {f"{mode.value} K = {k} {name}": sums(t)
                           for name, t in group.items()}

    csvs = {}
    for design in DESIGNS:
        ds, _ = generate(DesignSpec(design), 2000, seed=0)
        csvs[f"design {design}"] = _write_csv(workdir / f"d{design}.csv", ds.v, ds)
    # V split into three labels: CASE_II with K = 3, overidentified
    ds, _ = generate(DesignSpec(3), 4000, seed=0)
    csvs["design 3, K = 3"] = _write_csv(
        workdir / "d3_k3.csv", ds.v + (ds.v == 1) * (np.arange(ds.n) % 2), ds)

    path = workdir / "inputs.pkl"
    path.write_bytes(pickle.dumps({"tables": tables, "identify": identified,
                                   "csvs": csvs}))
    return path


def _write_csv(path: Path, v, ds) -> str:
    with open(path, "w") as fh:
        fh.write("y,t,z,v\n")
        fh.writelines(f"{y!r},{t},{z},{w}\n" for y, t, z, w in
                      zip(ds.y.tolist(), ds.t.tolist(), ds.z.tolist(), v.tolist()))
    return str(path)


# --------------------------------------------------------------- battery

def run_battery(inputs: Path, out: Path):
    """Run every battery in the tree whose src is on the path; write the
    outputs, name -> fields, to out."""
    from mislate import cli, gmm
    from mislate.data import CellStats, Mode, cell_stats
    from mislate.exceptions import MislateError
    from mislate.gmm import GmmConfig, estimate
    from mislate.identification import identify
    from mislate.simulation import DesignSpec, generate, run_study

    data = pickle.loads(inputs.read_bytes())

    def table(sums):
        return CellStats(sums["n_zvt"], sums["sum_y"], sums["ss_y"],
                         Mode(sums["mode"]), sums["v_support"])

    def cli_record(argv):
        del solves[:]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        report = json.loads(buf.getvalue())
        report.pop("software", None)
        record = {"exit": code, "solver_calls": len(solves)}
        params = report.get("estimate", {}).get("params", [])
        if params:
            record["theta"] = np.array([p["estimate"] for p in params])
            record["se"] = np.array([p["se"] for p in params])
        for key, value in _leaves(report):
            # a bool is not a number
            record[key] = np.float64(value) if type(value) in (int, float) else value
        return record

    def identified(stats):
        """identify's every field on a table or a stack, or its error."""
        try:
            r = identify(stats, stats.mode)
        except MislateError as exc:
            return {"error": type(exc).__name__, "message": str(exc)}
        return {"error": None, "x": r.theta.pack(), "s": np.float64(r.s),
                "discriminants": np.float64(r.discriminants),
                "support_points": str(r.support_points), "failed": np.asarray(r.failed),
                **{f"det {key}": np.float64(d) for key, d in r.determinants.items()}}

    solves = []
    trf = gmm.trf
    gmm.trf = lambda *a, **kw: solves.append(trf(*a, **kw)) or solves[-1]
    outputs = {}

    for design in DESIGNS:
        for seed in SEEDS:
            tag = f"study d{design} s{seed}"
            study = run_study(DesignSpec(design), n=STUDY_N, reps=STUDY_REPS,
                              seed=seed, workers=1)
            outputs[f"{tag} failed"] = {"n_failed": study.n_failed,
                                        "failures": dict(study.failures)}
            for row in study.rows:
                outputs[f"{tag} {row.parameter} {row.estimator}"] = {
                    f: np.float64(getattr(row, f))
                    for f in ("true", "bias", "sd", "rmse", "cp")}
            stats = cell_stats(generate(DesignSpec(design), STUDY_N, seed,
                                        range(STUDY_REPS))[0])
            fit = gmm._fit(stats, "identity")
            for rep in range(STUDY_REPS):
                error = fit.errors[rep]
                outputs[f"{tag} rep {rep}"] = {
                    "x": fit.x[rep], "vcov": fit.vcov[rep],
                    "converged": bool(fit.converged[rep]),
                    "error": None if error is None else type(error).__name__}

    for name, sums in data["tables"].items():
        for weighting in WEIGHTINGS:
            del solves[:]
            record = {}
            try:
                est = estimate(table(sums), GmmConfig(weighting=weighting))
                record.update(theta=est.theta_flat, se=est.se, vcov=est.vcov,
                              j_stat=np.float64(est.j_stat),
                              objective=np.float64(est.objective),
                              converged=est.converged, error=None)
            except MislateError as exc:
                record.update(converged=None, error=type(exc).__name__)
            record.update(
                solver_calls=len(solves),
                nfev=np.array([s.nfev for s in solves], dtype=float),
                njev=np.array([s.njev for s in solves], dtype=float),
                status=np.array([s.status for s in solves], dtype=float))
            outputs[f"overid {name} {weighting}"] = record

    for name, sums in data["identify"].items():
        outputs[f"identify {name}"] = identified(table(sums))

    for name, path in data["csvs"].items():
        columns = ["--data", path, "--outcome", "y", "--treatment", "t",
                   "--instrument", "z", "--exogenous", "v", "--json"]
        for weighting in WEIGHTINGS:
            outputs[f"cli {name} {weighting}"] = cli_record(
                ["estimate", *columns, "--weight", weighting])
        for pin, flags in (("plain", []), ("pinned", ["--support-points", "1,0"])):
            outputs[f"identify cli {name} {pin}"] = cli_record(
                ["identify", *columns, *flags])

    out.write_bytes(pickle.dumps(outputs))


def _leaves(node, prefix=""):
    """(path, value) of each leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{prefix}[{i}]")
    else:
        yield prefix, node


# ------------------------------------------------------------ comparison

def _numeric(value) -> bool:
    return isinstance(value, (np.ndarray, np.floating))


def _drift(new, old) -> float:
    """max |new - old| / max |old| over the finite entries (absolute where
    old is 0); inf where the shapes or the NaN and infinity patterns
    differ."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    if new.shape != old.shape:
        return np.inf
    finite = np.isfinite(old)
    if not (np.array_equal(finite, np.isfinite(new))
            and np.array_equal(new[~finite], old[~finite], equal_nan=True)):
        return np.inf
    if not finite.any():
        return 0.0
    scale = np.abs(old[finite]).max()
    return float(np.abs(new[finite] - old[finite]).max() / (scale or 1.0))


def compare(new: dict, old: dict) -> tuple:
    """(report lines, every output bit-identical)."""
    lines, all_same = [], True
    for battery in ("study", "overid", "identify", "cli"):
        names = sorted(n for n in set(new) | set(old) if n.startswith(battery + " "))
        same, flags, worst = 0, [], {}
        worst_se, ratios = (0.0, ""), []
        for name in names:
            if name not in new or name not in old:
                flags.append(f"{name}: only in {'this tree' if name in new else 'the revision'}")
                continue
            a, b = new[name], old[name]
            identical = True
            for field in sorted(set(a) | set(b)):
                if field not in a or field not in b:
                    identical = False
                    flags.append(f"{name}: {field} only in one tree")
                    continue
                x, y = a[field], b[field]
                if _numeric(x) and _numeric(y):
                    if np.shape(x) == np.shape(y) and (
                            np.asarray(x).tobytes() == np.asarray(y).tobytes()):
                        continue
                    identical = False
                    key = re.sub(r"\[\d+\]", "[]", field)
                    worst[key] = max(worst.get(key, (0.0, "")), (_drift(x, y), name))
                elif x != y:
                    identical = False
                    flags.append(f"{name}: {field} {y!r} -> {x!r}")
            if "theta" in a and "theta" in b:
                with np.errstate(divide="ignore", invalid="ignore"):
                    se_drift = np.abs(a["theta"] - b["theta"]) / b["se"]
                worst_se = max(worst_se, (float(np.nanmax(se_drift)), name))
            if "objective" in a and "objective" in b and a["objective"] != b["objective"]:
                ratios.append((float(a["objective"] / b["objective"]), name))
            same += identical
        all_same &= same == len(names) and not flags
        lines.append(f"{battery}: {same} of {len(names)} outputs bit-identical")
        for key, (drift, name) in sorted(worst.items()):
            lines.append(f"  {key}: worst relative drift {drift:.2g} ({name})")
        if worst_se[0] > 0:
            lines.append(f"  theta in SE units: worst drift {worst_se[0]:.2g} ({worst_se[1]})")
        if ratios:
            lines.append(f"  objective, this tree / revision, over the {len(ratios)} "
                         f"fits where it moved: 1 {min(ratios)[0] - 1:+.2g} "
                         f"({min(ratios)[1]}) to 1 {max(ratios)[0] - 1:+.2g} "
                         f"({max(ratios)[1]})")
        lines.extend(f"  differs: {flag}" for flag in flags)
    return lines, all_same


# ------------------------------------------------------------------ main

def _battery_in(tree: Path, inputs: Path, out: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--battery",
                    str(inputs), str(out)], env=env, check=True, cwd=tree)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", metavar="REV",
                    help="the git revision to compare this tree with")
    ap.add_argument("--battery", nargs=2, metavar=("INPUTS", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.battery:
        run_battery(Path(args.battery[0]), Path(args.battery[1]))
        return 0
    if not args.against:
        ap.error("--against REV is required")

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        tmp = Path(tmp)
        other = tmp / "revision"
        other.mkdir()
        try:
            archive = subprocess.run(["git", "archive", args.against],
                                     cwd=REPO, check=True, capture_output=True)
            subprocess.run(["tar", "-x", "-C", str(other)], input=archive.stdout,
                           check=True)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot extract {args.against}: "
                  f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        inputs = build_inputs(tmp)
        try:
            _battery_in(REPO, inputs, tmp / "new.pkl")
            _battery_in(other, inputs, tmp / "old.pkl")
        except subprocess.CalledProcessError as exc:
            print(f"error: a battery failed ({exc})", file=sys.stderr)
            return 2
        new = pickle.loads((tmp / "new.pkl").read_bytes())
        old = pickle.loads((tmp / "old.pkl").read_bytes())

    lines, all_same = compare(new, old)
    print(f"golden: this tree against {args.against}")
    print("\n".join(lines))
    print(f"{'every output bit-identical' if all_same else 'outputs differ'} "
          f"({time.perf_counter() - start:.0f} s)")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
