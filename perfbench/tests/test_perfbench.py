"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They run short benchmark runs as subprocesses, so they take about two minutes.
"""
import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, moment_passes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2          # warm-up plus one timed op
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    metrics = _result(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["moments.moment_matrix.calls"] > 0
    assert values["gmm.least_squares.nfev"] > 0
    assert 0 < values["gmm.fd_pass_share"] < 1
    # io and cli are reached only by cli_estimate, generate only by mc_study
    assert (values["io.load_csv.rows"] > 0) == (workload == "cli_estimate")
    assert (values["cli.main.self_s"] > 0) == (workload == "cli_estimate")
    assert (values["simulation.generate.calls"] > 0) == (workload == "mc_study")


def _traced_study(design=5, study_seed=0):
    with Tracer() as tracer:
        with tracer.span("op"):
            W.run_mc(design, study_seed)
        return tracer.take()


def test_self_times_sum_to_root_duration():
    spans = _traced_study()
    root = spans[0]
    assert root.name == "op" and root.parent is None
    assert len(spans) > 100
    assert math.isclose(sum(s.self_s for s in spans), root.duration, rel_tol=1e-9)
    assert all(s.self_s >= 0 for s in spans)


def test_tracer_restores_the_program():
    import mislate.gmm
    import mislate.moments

    before = (mislate.gmm.moment_matrix, mislate.moments.moment_matrix,
              mislate.gmm.optimize)
    spans = _traced_study()
    assert (mislate.gmm.moment_matrix, mislate.moments.moment_matrix,
            mislate.gmm.optimize) == before
    names = {s.name for s in spans}
    assert {"simulation.run_study", "simulation.generate", "gmm.estimate",
            "gmm.least_squares", "moments.moment_matrix",
            "moments.moment_jacobian", "identification.identify"} <= names
    fd, passes = moment_passes(spans)
    assert 0 < fd < passes


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    value, pct = bench_run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert bench_run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _perturbed(values, i=0):
    values = list(values)
    values[i] = values[i] * (1 + 1e-4) + 1e-6
    return values


def test_mc_check_fails_when_reference_is_perturbed():
    reference = W.load_reference()["mc_study"][W.mc_key(5, 1)]
    summary = W.run_mc(5, 1)
    assert W.check_mc(summary, reference) == []
    bad = copy.deepcopy(reference)
    bad["rows"][0][3] = _perturbed([bad["rows"][0][3]])[0]
    assert W.check_mc(summary, bad)
    bad = copy.deepcopy(reference)
    bad["n_failed"] += 1
    assert W.check_mc(summary, bad)


def test_cli_check_fails_when_reference_is_perturbed(tmp_path):
    reference = W.load_reference()["cli_estimate"]["2"]
    schema = json.loads((ROOT / "schema" / "report.schema.json").read_text())
    path = tmp_path / "cli.csv"
    W.write_cli_csv(2, path)
    rc, text = W.run_cli(W.cli_argv(path))
    closed_form = W.cli_closed_form(path)
    assert W.check_cli(rc, text, closed_form, reference, schema) == []
    for field in ("estimate", "se"):
        bad = copy.deepcopy(reference)
        bad[field] = _perturbed(bad[field], 1)
        assert W.check_cli(rc, text, closed_form, bad, schema)
    assert W.check_cli(rc, text, np.asarray(closed_form) + 1e-6, reference, schema)
    assert W.check_cli(rc, text.replace('"mislate"', '"other"'), closed_form,
                       reference, schema)


def _checkout_copy(dest: Path, with_program: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "schema", dest / "schema")
    return dest


def test_run_fails_on_wrong_output(tmp_path):
    dest = _checkout_copy(tmp_path, with_program=True)
    ref_path = dest / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    for entry in reference["mc_study"].values():
        entry["rows"][0][3] += 1e-3       # bias of the first row
    ref_path.write_text(json.dumps(reference))
    proc = _run("mc_study", 0, cwd=dest)
    assert proc.returncode == 1
    assert _result(proc)["correct"] is False


def test_run_fails_without_the_program(tmp_path):
    dest = _checkout_copy(tmp_path, with_program=False)
    proc = _run("mc_study", 0, cwd=dest)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not list(dest.glob(".perfbench-*"))
