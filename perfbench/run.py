"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_estimate --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout.  The workloads and the metric names and
units come from BENCHMARK.json at that root.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
details: seed, environment, the tail percentile and its sample count,
the failed and wrong fractions, the set-up samples and the completed ops per
second of each timed pass.  Generated inputs go
to a temporary directory inside the checkout, removed at the end.  The exit
code is 0 only when every op completed and its output passed its check.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Workload processes use one BLAS/OpenMP thread: one client on a shared
# 2-core box, so a second thread would mostly add noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4      # fresh processes timed besides the workload process
RUN_LIMIT_S = 170     # every child is killed by then


def tail(durations: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten ops
    beyond it.  With ten ops or fewer it is the slowest op, at 100."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict, setup_samples: list) -> dict:
    durations = result["durations"]
    value, _ = tail(durations)
    return {
        "op_p50_s": statistics.median(durations),
        "op_tail_s": value,
        "ops_per_s": statistics.median(result["pass_rates"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _probe_setup(deadline: float) -> float:
    start = time.monotonic()
    out = subprocess.run([sys.executable, str(WORKER), "--probe"], check=True,
                         capture_output=True, text=True,
                         timeout=_remaining(deadline))
    return float(out.stdout) - start


def _prepare_inputs(cfg: dict, tmp: Path) -> None:
    """Write the inputs the program receives; only cli_estimate has files."""
    if cfg["workload"] != "cli_estimate":
        return
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    cfg["csv"] = [str(tmp / f"cli-{i}.csv") for i in range(workloads.CLI_POOL)]
    for i, path in enumerate(cfg["csv"]):
        workloads.write_cli_csv(i, Path(path))


def run(args, spec: dict, tmp: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    section = "per_layer" if args.trace else "end_to_end"
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace),
           "layer_metrics": [m["name"] for m in spec["per_layer"]]}
    setup_samples = ([] if args.trace else
                     [_probe_setup(deadline) for _ in range(SETUP_PROBES)])
    _prepare_inputs(cfg, tmp)
    cfg_path, result_path = tmp / "config.json", tmp / "result.json"
    cfg_path.write_text(json.dumps(cfg))
    spawned = time.monotonic()
    subprocess.run([sys.executable, str(WORKER), str(cfg_path), str(result_path)],
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=_remaining(deadline))
    result = json.loads(result_path.read_text())
    setup_samples.append(result["ready"] - spawned)

    values = result["layers"] if args.trace else end_to_end(result, setup_samples)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    if args.workload == "mc_study":
        failed_frac = result["failed_reps"] / max(1, result["reps"])
    else:
        failed_frac = failed / attempted
    _, percentile = tail(result["durations"])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "op_tail": {"percentile": percentile, "samples": len(result["durations"])},
        "pass_rates": result["pass_rates"],
        "failed_frac": failed_frac,
        "wrong_frac": wrong / max(1, attempted - failed),
        "reps": result["reps"], "failed_reps": result["failed_reps"],
        "problems": result["problems"],
        "setup_samples_s": setup_samples,
        "cpu_probe_ms": result["cpu_probe_ms"],
        "environment": result["environment"],
    }
    correct = failed == 0 and wrong == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    needed = [spec_path, ROOT / "src" / "mislate" / "__init__.py",
              ROOT / "schema" / "report.schema.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a mislate checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.update(THREAD_ENV)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, spec, tmp)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
