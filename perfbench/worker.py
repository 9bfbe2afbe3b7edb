"""The workload process: one client running one workload in a closed loop.

    python3 perfbench/worker.py CONFIG.json RESULT.json
    python3 perfbench/worker.py --probe

The process first imports the program and notes the moment it is ready for
its first op (``time.monotonic`` is system-wide, so the parent subtracts the
moment it spawned the process).  Only then does it import the benchmark's own
modules.  ``--probe`` stops after the import and prints that moment; the
parent uses it to time set-up again.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_program() -> float:
    sys.path.insert(0, str(HERE.parent / "src"))
    import mislate  # noqa: F401
    import mislate.cli  # noqa: F401
    return time.monotonic()


def main(argv: list) -> int:
    if argv[1:] == ["--probe"]:
        print(repr(_import_program()))
        return 0
    ready = _import_program()
    sys.path.insert(0, str(HERE))
    import harness

    result = harness.run(json.loads(Path(argv[1]).read_text()))
    result["ready"] = ready
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
