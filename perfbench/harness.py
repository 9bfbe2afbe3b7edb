"""The closed loop a workload process runs, and what it reports.

One client sends its next op only after the previous one returned.  A run
makes one untimed warm-up op, so lazy set-up is done before timing, then:

- untraced (``--trace 0``): ops for ``seconds``; their durations give the
  end-to-end metrics;
- traced (``--trace 1``): ops for ``seconds / 2`` untraced, then the same
  inputs again for ``seconds / 2`` under the tracer.  Layer times are per op
  over every traced op; layer counts are per op over the first traced pass,
  so that they repeat exactly however fast the machine is.

Every op's output is checked; the checks feed ``wrong``.
"""
from __future__ import annotations

import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy
import scipy

import workloads as W
from mislate.exceptions import MislateError
from spans import Tracer, moment_passes, summarize

ROOT = Path(__file__).resolve().parent.parent

# A phase ends only between batches, and a batch is a pass over the
# workload's whole input pool: an op's cost depends strongly on its input (35
# to about 190 moment passes per fit; 7e4 to 1.3e5 CSV rows), so every run
# times the same inputs and the seed only orders them.
BATCH = {"cli_estimate": W.CLI_POOL, "mc_study": W.MC_POOL * len(W.MC_DESIGNS)}


@dataclass(frozen=True)
class Op:
    run: Callable
    is_failed: Callable      # output -> bool: the op did not complete
    check: Callable          # output -> list of problems with a completed op
    replications: Callable = lambda out: (0, 0)   # output -> (reps, failed reps)


def op_stream(workload: str, cfg: dict, reference: dict) -> Callable:
    """A function giving the workload's endless ops in the run's input order;
    each phase calls it to start over."""
    if workload == "cli_estimate":
        schema = json.loads((ROOT / "schema" / "report.schema.json").read_text())
        pool = [_cli_op(Path(path), reference["cli_estimate"][str(i)], schema)
                for i, path in enumerate(cfg["csv"])]
        order = W.input_order(cfg["seed"], W.CLI_POOL)
        return lambda: (pool[i] for i in itertools.cycle(order))
    if workload == "mc_study":
        return lambda: _mc_ops(cfg["seed"], reference["mc_study"])
    raise ValueError(f"unknown workload {workload!r}")


def _cli_op(path: Path, ref: dict, schema: dict) -> Op:
    closed_form = W.cli_closed_form(path)
    argv = W.cli_argv(path)
    return Op(run=lambda: W.run_cli(argv),
              is_failed=lambda out: out[0] != 0,
              check=lambda out: W.check_cli(*out, closed_form, ref, schema))


def _mc_ops(seed: int, reference: dict):
    for study_seed in itertools.cycle(W.input_order(seed, W.MC_POOL)):
        for design in W.MC_DESIGNS:
            ref = reference[W.mc_key(design, study_seed)]
            yield Op(run=lambda d=design, s=study_seed: W.run_mc(d, s),
                     is_failed=lambda summary: False,
                     check=lambda summary, ref=ref: W.check_mc(summary, ref),
                     replications=lambda summary: (summary.reps, summary.n_failed))


class Phase:
    """Runs ops in a closed loop, recording each op."""

    def __init__(self, ops: Iterator, tracer=None):
        self._ops = ops
        self._tracer = tracer
        self.durations: list = []
        self.op_spans: list = []        # traced phases: each op's spans
        self.failed = 0
        self.wrong = 0
        self.problems: list = []
        self.reps = 0
        self.failed_reps = 0
        self.pass_rates: list = []      # completed ops per second of each pass

    def run_one(self) -> None:
        op = next(self._ops)
        if self._tracer is not None:
            self._tracer.take()     # drop spans of input preparation
        start = time.perf_counter()
        try:
            if self._tracer is None:
                out = op.run()
            else:
                with self._tracer.span("op"):
                    out = op.run()
        except MislateError as exc:
            out = exc
        self.durations.append(time.perf_counter() - start)
        if self._tracer is not None:
            self.op_spans.append(self._tracer.take())
        if isinstance(out, MislateError) or op.is_failed(out):
            self.failed += 1
            self._note([f"op {len(self.durations)} failed: {out!r:.200}"])
            return
        reps, failed_reps = op.replications(out)
        self.reps += reps
        self.failed_reps += failed_reps
        problems = op.check(out)
        if problems:
            self.wrong += 1
            self._note(problems)

    def _note(self, problems: list) -> None:
        self.problems += problems[: max(0, 5 - len(self.problems))]

    def run_for(self, seconds: float, batch: int) -> "Phase":
        pass_start = time.perf_counter()
        deadline = pass_start + seconds
        pass_failed = 0
        while True:
            self.run_one()
            if len(self.durations) % batch == 0:
                now = time.perf_counter()
                completed = batch - (self.failed - pass_failed)
                self.pass_rates.append(completed / (now - pass_start))
                pass_start, pass_failed = now, self.failed
                if now >= deadline:
                    break
        return self


def layer_metrics(names: list, traced: Phase, untraced: Phase, count_ops: int) -> dict:
    """Per-op value of each named per-layer metric.

    ``<layer>.<function>.self_s`` is that span's self time, and
    ``<layer>.<function>.<count>`` a count recorded at it (``calls``, or one
    of ``spans.COUNTERS``).
    """
    times = summarize(s for spans in traced.op_spans for s in spans)
    first = [s for spans in traced.op_spans[:count_ops] for s in spans]
    counts = summarize(first)
    fd, passes = moment_passes(first)
    out = {}
    for name in names:
        if name == "gmm.fd_pass_share":
            value = fd / passes if passes else 0.0
        elif name == "trace.overhead_frac":
            value = (statistics.median(traced.durations)
                     / statistics.median(untraced.durations) - 1.0)
        elif name == "simulation.failed_reps":
            value = counts.get("simulation.run_study", {}).get("failed_reps", 0) / count_ops
        else:
            span, field = name.rsplit(".", 1)
            if field == "self_s":
                value = times.get(span, {}).get("self_s", 0.0) / len(traced.op_spans)
            else:
                value = counts.get(span, {}).get(field, 0) / count_ops
        out[name] = value
    return out


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs now.

    Shared hosts change speed by up to a factor of two within a minute; this
    number, taken before and after timing, tells such a swing from a program
    change.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def environment() -> dict:
    """Interpreter, library and BLAS facts of this process."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def run(cfg: dict) -> dict:
    workload, seconds = cfg["workload"], cfg["seconds"]
    ops = op_stream(workload, cfg, W.load_reference())
    batch = BATCH[workload]
    warm = Phase(ops())
    warm.run_one()
    result = {"cpu_probe_ms": [cpu_probe_ms()]}
    if cfg["trace"]:
        untraced = Phase(ops()).run_for(seconds / 2, batch)
        with Tracer() as tracer:
            timed = Phase(ops(), tracer).run_for(seconds / 2, batch)
        result["layers"] = layer_metrics(cfg["layer_metrics"], timed, untraced,
                                         batch)
        phases = [warm, untraced, timed]
    else:
        timed = Phase(ops()).run_for(seconds, batch)
        phases = [warm, timed]
    result["cpu_probe_ms"].append(cpu_probe_ms())
    result.update({
        "durations": timed.durations,
        "pass_rates": timed.pass_rates,
        "attempted": sum(len(p.durations) for p in phases),
        "failed": sum(p.failed for p in phases),
        "wrong": sum(p.wrong for p in phases),
        "problems": [q for p in phases for q in p.problems][:5],
        "reps": sum(p.reps for p in phases),
        "failed_reps": sum(p.failed_reps for p in phases),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    })
    return result
