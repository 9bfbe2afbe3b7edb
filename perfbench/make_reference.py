"""Write reference.json: the output of every pooled input of every workload.

    python3 perfbench/make_reference.py

The stored values are what the program computed when the benchmark was
defined; later runs must reproduce them within workloads.RTOL/ATOL.  Rerun
this only when the benchmark's inputs change, never to make a check pass.
"""
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402


def main() -> int:
    ref = {"cli_estimate": {}, "mc_study": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-") as tmp:
        path = Path(tmp) / "cli.csv"
        for csv_id in range(W.CLI_POOL):
            W.write_cli_csv(csv_id, path)
            rc, text = W.run_cli(W.cli_argv(path))
            if rc != 0:
                raise SystemExit(f"cli_estimate input {csv_id}: exit code {rc}")
            ref["cli_estimate"][str(csv_id)] = W.cli_summary(json.loads(text))
    for study_seed in range(W.MC_POOL):
        for design in W.MC_DESIGNS:
            summary = W.run_mc(design, study_seed)
            ref["mc_study"][W.mc_key(design, study_seed)] = W.mc_summary(summary)
    W.REFERENCE_PATH.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
