"""The workloads: their inputs, one op each, and the correctness checks.

Every workload draws its inputs from a fixed pool whose reference outputs are
stored in ``reference.json``; a run makes whole passes over its workload's
pool and ``--seed`` orders the inputs.  Ops reach the program through module
attributes looked up at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io as _io
import json
import math
import random
from pathlib import Path

import jsonschema
import numpy as np

import mislate.cli
import mislate.simulation
from mislate import io as mio
from mislate.data import Mode, cell_stats
from mislate.identification import identify
from mislate.simulation import DesignSpec

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

CLI_DESIGN = 3
# rows of each CSV; a run makes whole passes over all of them.  Mixed sizes
# keep the median op off the gap between a host's fast and slow states.
CLI_ROWS = (70_000, 90_000, 110_000, 130_000)
CLI_POOL = len(CLI_ROWS)
MC_N = 1000
MC_REPS = 10
MC_DESIGNS = (1, 2, 3, 4, 5, 6)
MC_POOL = 2            # study seeds; a run makes whole passes over all 12 inputs

RTOL = 1e-6            # reference match: math.isclose(got, ref, RTOL, ATOL)
ATOL = 1e-9
CLOSED_FORM_TOL = 1e-8

CLI_COLUMNS = ("y", "t", "z", "v")


def input_order(seed: int, pool: int) -> list:
    """The pool indices a run uses, in the order it uses them."""
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return order


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _close(got, ref) -> bool:
    return math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL)


def _mismatches(label: str, got, ref) -> list:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} != reference {ref.shape}"]
    bad = [i for i, (g, r) in enumerate(zip(got.ravel(), ref.ravel()))
           if not _close(float(g), float(r))]
    if bad:
        i = bad[0]
        return [f"{label}[{i}]: {got.ravel()[i]!r} != reference {ref.ravel()[i]!r}"]
    return []


# -- cli_estimate ----------------------------------------------------------

def write_cli_csv(csv_id: int, path: Path) -> None:
    """Design-3 sample of CLI_ROWS[csv_id] rows, keyed by csv_id, as a y,t,z,v CSV."""
    ds, _ = mislate.simulation.generate(DesignSpec(CLI_DESIGN), CLI_ROWS[csv_id],
                                        csv_id)
    with open(path, "w") as fh:
        fh.write(",".join(CLI_COLUMNS) + "\n")
        fh.writelines(f"{y!r},{t},{z},{v}\n" for y, t, z, v in
                      zip(ds.y.tolist(), ds.t.tolist(), ds.z.tolist(),
                          ds.v.tolist()))


def cli_argv(path: Path) -> list:
    y, t, z, v = CLI_COLUMNS
    return ["estimate", "--data", str(path), "--outcome", y, "--treatment", t,
            "--instrument", z, "--exogenous", v]


def run_cli(argv: list) -> tuple:
    """One op: (exit code, report text written to the discarded stream)."""
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = mislate.cli.main(argv)
    return rc, out.getvalue()


def cli_closed_form(path: Path) -> np.ndarray:
    """identify()'s closed form on the CSV, packed like the report's params."""
    schema = mio.CsvSchema(*CLI_COLUMNS)
    ds = mio.load_csv(path, schema, Mode.CASE_II)
    return identify(cell_stats(ds), Mode.CASE_II).theta.pack()


def cli_summary(report: dict) -> dict:
    """The report values the reference stores."""
    params = report["estimate"]["params"]
    return {
        "names": [p["name"] for p in params],
        "estimate": [p["estimate"] for p in params],
        "se": [p["se"] for p in params],
        "wald_iv": report["baselines"]["wald_iv"]["coef"],
    }


def check_cli(rc: int, text: str, closed_form, ref: dict, schema: dict) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
        jsonschema.validate(report, schema)
        got = cli_summary(report)
    except (ValueError, KeyError, jsonschema.ValidationError) as exc:
        return [f"report: {type(exc).__name__}: {str(exc).splitlines()[0]}"]
    problems = []
    diff = np.max(np.abs(np.array(got["estimate"]) - closed_form))
    if not diff <= CLOSED_FORM_TOL:
        problems.append(f"estimate differs from the closed form by {diff!r}")
    if got["names"] != ref["names"]:
        problems.append(f"parameter names {got['names']} != reference")
    problems += _mismatches("estimate", got["estimate"], ref["estimate"])
    problems += _mismatches("se", got["se"], ref["se"])
    problems += _mismatches("wald_iv", got["wald_iv"], ref["wald_iv"])
    return problems


# -- mc_study --------------------------------------------------------------

def mc_key(design: int, study_seed: int) -> str:
    return f"{design}:{study_seed}"


def run_mc(design: int, study_seed: int):
    return mislate.simulation.run_study(DesignSpec(design), n=MC_N, reps=MC_REPS,
                                        seed=study_seed, workers=1)


def mc_summary(summary) -> dict:
    return {
        "n_failed": summary.n_failed,
        "rows": [[r.parameter, r.estimator, r.true, r.bias, r.sd, r.rmse, r.cp]
                 for r in summary.rows],
    }


def check_mc(summary, ref: dict) -> list:
    got = mc_summary(summary)
    if got["n_failed"] != ref["n_failed"]:
        return [f"n_failed {got['n_failed']} != reference {ref['n_failed']}"]
    if [r[:2] for r in got["rows"]] != [r[:2] for r in ref["rows"]]:
        return ["row labels differ from the reference"]
    problems = []
    for g, r in zip(got["rows"], ref["rows"]):
        problems += _mismatches(f"{g[0]}/{g[1]}", g[2:], r[2:])
    return problems
