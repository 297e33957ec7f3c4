"""One pass of a workload in a fresh interpreter.

Usage (from ``run.py``; the interpreter runs with ``-I`` so only the
checkout's ``src`` provides quivergrass):

    python3 -I bench/worker.py SPEC OUT [--trace TRACE_FILE]
    python3 -I bench/worker.py --probe

SPEC is a JSON file with the pass's items and whether to compare their
digests with the stored ones (``build_universe.py`` does not).  OUT receives
the pass's result: the monotonic time at which ``import quivergrass``
finished; per item, the latency of its top-level calls, its span (start to
checked) and its failures; ``ru_maxrss`` before the first item and at the
end; and, when traced, the per-layer metrics.  ``--probe`` only imports the
package and prints the import-done time.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import quivergrass  # noqa: E402

IMPORT_DONE = time.monotonic()

if not Path(quivergrass.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"quivergrass imported from {quivergrass.__file__}, not from {SRC}")

import json  # noqa: E402
import resource  # noqa: E402


def run_pass(spec_path: Path, out_path: Path, trace_path: Path | None) -> None:
    import items as runner

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    work_dir = out_path.parent
    json_path = work_dir / f"verify-{out_path.stem}.json"
    prepared = [(item, runner.prepare(item)) for item in spec["items"]]

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rss_start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    clock = time.perf_counter
    records = []
    for item, args in prepared:
        start = clock()
        record = {"id": item["id"], "latency_s": None, "digest": None, "problems": []}
        try:
            latency, digest, problems = runner.execute(item, args, json_path)
        except Exception as exc:  # an item that raises, or is refused, is a failure
            record["problems"].append(f"{type(exc).__name__}: {exc}")
        else:
            record.update(latency_s=latency, digest=digest, problems=problems)
            if spec["check_digest"] and digest != item["digest"]:
                record["problems"].append(f"digest {digest} != stored {item['digest']}")
        checked = clock()
        record["span_s"] = checked - start
        if tracer is not None:
            tracer.item_span(item["id"], start, checked)
        records.append(record)

    result = {
        "import_done": IMPORT_DONE,
        "rss_start_kb": rss_start_kb,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": records,
    }
    if tracer is not None:
        tracer.write(trace_path)
        result["layers"] = tracer.metrics()
        result["split"] = tracer.layer_split()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv: list[str]) -> None:
    if argv == ["--probe"]:
        print(IMPORT_DONE)
        return
    spec, out = Path(argv[0]), Path(argv[1])
    trace = Path(argv[3]) if argv[2:3] == ["--trace"] else None
    run_pass(spec, out, trace)


if __name__ == "__main__":
    main(sys.argv[1:])
