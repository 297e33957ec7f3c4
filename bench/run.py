"""quivergrass benchmark: one run of one workload.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; nothing needs building.  The seed picks the
run's items from ``bench/universe.json`` (see ``plan.py``) before anything is
timed.  A pass runs all items back to back in one fresh interpreter
(``worker.py``): one client, one process, closed loop, module caches cold as
in every CLI invocation.  Every pass runs the same items.  Passes repeat
until ``--seconds`` have gone by (at least three), and the run reports
medians over them.  A pass that would end more than half a pass after the
deadline is not started, so a run whose passes take at most a third of
``--seconds`` measures about ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:

- ``setup_s``: fresh interpreter to ``import quivergrass`` done, median of
  dedicated probes and of every pass's own start;
- ``wall_s``: first item start to last item checked, as the sum over items
  of each item's median span (start to checked) over the passes;
- ``item_p50_ms``: median over items of each item's median latency of its
  top-level calls over the passes;
- ``peak_rss_mb``: ``ru_maxrss`` of a pass's process, median over passes;
- ``ok_frac``: items that neither raised, were refused, nor gave a wrong
  answer, over items attempted.  Its complement ``fail_frac`` is printed.

With ``--trace 1`` passes alternate untraced and traced (``tracer.py``), at
least one pair, and the metrics are the per-layer ones, medians over the
traced passes, plus
``trace.overhead_frac``: traced wall over untraced wall (each as for
``wall_s``), minus 1.

The human-readable report goes to stdout; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
0 when every item passed its checks, 1 when some did not, and 2 (with no
result line) when the run could not be made.

``--smoke`` runs one pass (one pair when traced) of the first two items;
``--corrupt-digest`` replaces the first item's stored digest with a wrong
one.  ``smoke.py`` uses both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import plan  # noqa: E402

SETUP_PROBES = 7  # dedicated set-up probes per run, after one warm-up
MIN_PASSES = 3  # per-item medians over at least three passes
MIN_PAIRS = 1  # untraced/traced pairs in a traced run
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # no pass starts if it could end after this


class BenchError(RuntimeError):
    """The run could not be made (worker crashed, package missing, ...)."""


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, "-I", str(BENCH / "worker.py"), *args]


def probe_setup() -> float:
    start = time.monotonic()
    proc = subprocess.run(
        worker_cmd("--probe"), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def run_pass(spec: Path, out: Path, trace: Path | None) -> dict:
    cmd = worker_cmd(str(spec), str(out)) + (["--trace", str(trace)] if trace else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["import_done"] - start
    result["elapsed_s"] = time.monotonic() - start
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def per_item_median(passes: list[dict], key: str) -> list[float]:
    """For each item, the median of its value over the passes (None values skipped)."""
    columns = zip(*(p["items"] for p in passes))
    values = [[r[key] for r in column if r[key] is not None] for column in columns]
    return [statistics.median(v) for v in values if v]


def pass_wall(passes: list[dict]) -> float:
    """Wall time of a pass, robust to a slow spell in a minority of passes.

    Items run back to back, so a pass's wall time is the sum of its items'
    spans (start to checked).  Taking each item's median span over the
    passes before summing drops a slow spell of a shared machine that
    overlaps an item in fewer than half of the passes; a spell that lasts
    the whole run is not damped.
    """
    return sum(per_item_median(passes, "span_s"))


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    records = [r for p in passes for r in p["items"]]
    failed = sum(1 for r in records if r["problems"])
    return {
        "setup_s": median(setups),
        "wall_s": pass_wall(passes),
        "item_p50_ms": median(per_item_median(passes, "latency_s")) * 1000,
        "peak_rss_mb": median([p["maxrss_kb"] for p in passes]) / 1024,
        "ok_frac": 1 - failed / len(records),
    }


def per_layer(names: list[str], untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = pass_wall(traced) / pass_wall(untraced) - 1
        else:
            out[name] = median([p["layers"].get(name, 0) for p in traced])
    return out


def report(args, untraced: list[dict], traced: list[dict], setups, metrics: dict, units: dict) -> None:
    passes = untraced + traced
    records = [r for p in passes for r in p["items"]]
    failures = [r for r in records if r["problems"]]
    latencies = sorted(r["latency_s"] for r in records if r["latency_s"] is not None)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes of "
        f"{len(passes[0]['items'])} items, {len(records)} attempted, {len(failures)} failed"
    )
    if args.trace == 0:
        p90 = latencies[int(0.9 * (len(latencies) - 1))] * 1000 if latencies else 0.0
        print(f"  item latency p90 {p90:.3f} ms over {len(latencies)} calls; set-up samples {len(setups)}")
        print(f"  {'fail_frac':<14} {len(failures) / len(records):.6g} frac ({len(failures)}/{len(records)})")
    else:
        split = {k: median([p["split"][k] for p in traced]) for k in traced[0]["split"]}
        total = sum(split.values()) or 1.0
        print("  layer split (s, share): " + ", ".join(f"{k} {v:.3f} {v / total:.0%}" for k, v in split.items()))
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    for r in failures[:5]:
        print(f"  FAILED {r['id']}: {'; '.join(r['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-digest", action="store_true")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    run_start = time.monotonic()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    items = plan.generate(plan.load_universe(), args.workload, args.seed)
    if args.smoke:
        items = items[:2]
    if args.corrupt_digest:
        items[0] = dict(items[0], digest="0" * 16)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = out_dir / "spec.json"
    spec.write_text(json.dumps({"items": items, "check_digest": True}))

    probe_setup()  # warm-up: the first start in a fresh checkout compiles bytecode
    setups = [probe_setup() for _ in range(0 if args.smoke else SETUP_PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        index = len(untraced)
        untraced.append(run_pass(spec, out_dir / f"pass{index}.json", None))
        last = untraced[-1]["elapsed_s"]
        if args.trace:
            traced.append(run_pass(spec, out_dir / f"traced{index}.json", out_dir / f"trace{index}.json"))
            last += traced[-1]["elapsed_s"]
        now = time.monotonic()
        if args.smoke or now - run_start + last > RUN_LIMIT_S:
            break
        # stop when another pass would end more than half a pass past the deadline
        if len(untraced) >= (MIN_PAIRS if args.trace else MIN_PASSES) and now + last / 2 > deadline:
            break
    passes = untraced + traced
    setups += [p["setup_s"] for p in passes]

    if args.trace:
        metrics = per_layer(list(units), untraced, traced)
    else:
        metrics = end_to_end(untraced, setups)
    report(args, untraced, traced, setups, metrics, units)
    records = [r for p in passes for r in p["items"]]
    failed = sum(1 for r in records if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
