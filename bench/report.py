"""Every end-to-end metric of every workload, in one table.

    python3 bench/report.py [--seed N]

Runs ``run.py`` once per workload, untraced and for BENCHMARK.json's
``run_seconds``, and prints each metric by name with its unit, plus
``fail_frac``.  Exits 1 if any run failed its answer
checks or could not be made.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import plan  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    status = 0
    print(f"{'workload':<14} {'metric':<12} {'value':>12} unit")
    for workload in plan.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{workload:<14} run failed: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<12} {metric['value']:>12.6g} {metric['unit']}")
        print(f"{workload:<14} {'fail_frac':<12} {result['failed'] / result['attempted']:>12.6g} frac")
    return status


if __name__ == "__main__":
    sys.exit(main())
