"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

For each workload, on a two-item pass of seed 1:

- an untraced run passes every answer gate and prints every end-to-end
  metric of BENCHMARK.json;
- a traced run prints every per-layer metric, with no point counting on
  verify_sweep and chain_poset;
- a run whose first stored digest is deliberately wrong reports the item as
  failed (``fail_frac`` > 0) and exits 1.

Then a copy of the benchmark without the package must fail without printing
a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import plan  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "1", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout + proc.stderr


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    problems = []

    def check(ok: bool, what: str, output: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)
            print(output)

    for workload in plan.WORKLOADS:
        code, result, out = run("--workload", workload, "--trace", "0", "--smoke")
        check(
            code == 0 and result is not None and result["correct"] and result["failed"] == 0
            and sorted(result["metrics"]) == sorted(end_to_end),
            f"{workload}: clean run passes with every end-to-end metric",
            out,
        )
        code, result, out = run("--workload", workload, "--trace", "1", "--smoke")
        calls = result["metrics"].get("grass.point_count.calls", {}).get("value") if result else None
        check(
            code == 0 and result is not None and sorted(result["metrics"]) == sorted(per_layer)
            and (workload == "oracle_count") == (calls != 0),
            f"{workload}: traced run has every per-layer metric, point counting only on oracle_count",
            out,
        )
        code, result, out = run("--workload", workload, "--trace", "0", "--smoke", "--corrupt-digest")
        check(
            code == 1 and result is not None and not result["correct"] and result["failed"] > 0
            and result["metrics"]["ok_frac"]["value"] < 1 and "fail_frac" in out,
            f"{workload}: wrong stored digest gives fail_frac > 0",
            out,
        )

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, out = run("--workload", plan.WORKLOADS[0], "--trace", "0", cwd=bare)
    check(code != 0 and result is None, "without the package the run fails and prints no result", out)
    shutil.rmtree(bare)

    print("smoke check " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
