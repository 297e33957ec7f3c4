"""Rebuild ``bench/universe.json``: every item the workloads may draw, with digests.

Run from the repository root:

    python3 bench/build_universe.py

Each item is kept under the package's own refusal budgets
(``VERIFY_WORK_BUDGET`` for verify sweeps, ``DEFAULT_ENUM_BUDGET`` for the
point-count oracle), so no item is refused at run time.  Every item is then
run once, alone, in a fresh interpreter through ``worker.py``: it must pass
its independent-route checks, and the run gives the digest of its results,
which later runs must reproduce bit for bit, its cold latency ``ms`` and its
peak memory growth ``kb``, which ``plan.py`` uses to draw passes of equal
cost and peak memory.  Rebuilding is only for changing the workloads, never
for accepting changed answers.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import plan  # noqa: E402
from quivergrass import cli, degen, grass, quiver, specialize  # noqa: E402

import items as runner  # noqa: E402

ORACLE_QUIVERS = ((2, 7), (3, 6), (4, 6))  # (vertices, largest total dimension)
ORACLE_BOUND = 4  # Grassmannian dimension bound sum e_i (d_i - e_i)
ORACLE_COST = (10_000, 100_000)  # enumeration cost band at the witness prime
ORACLE_PER_GROUP = 40
VERIFY_MAX_NODES = 10  # leaves out the 14- to 35-class posets of A4
# (quiver, d) of the chain posets: 439, 481 and 640 classes; the PBW poset
# (A4:FFF, d = 5,5,5,5) has 672.
CHAIN_POSETS = (("A5:FFBF", (4, 2, 4, 4, 2)), ("A4:BFF", (6, 6, 4, 3)), ("A5:BFBB", (3, 3, 3, 4, 2)))
CHAIN_DRAWS = 24
CHAIN_KEEP = 8
PBW_TUPLES = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def orientations(n: int):
    for flags in itertools.product("FB", repeat=n - 1):
        yield quiver.TypeAQuiver(n, "".join(flags))


def verify_items() -> list[dict]:
    out = []
    for n in (3, 4):
        for q in orientations(n):
            for d in quiver.vec_boxes((2,) * n):
                poset = degen.degeneration_poset(q, d)
                nodes = len(poset.nodes)
                if nodes > VERIFY_MAX_NODES:
                    continue
                work = nodes**2 + (nodes + len(poset.covers)) * len(quiver.vec_boxes(d))
                if work > specialize.VERIFY_WORK_BUDGET:
                    continue
                out.append({
                    "id": f"{q.label()}/{runner._vec(d)}",
                    "kind": "verify",
                    "quiver": q.label(),
                    "dim": list(d),
                    "group": f"A{n}",
                })
    return out


def oracle_items(rng: random.Random) -> list[dict]:
    by_group: dict[str, list[dict]] = {}
    for n, total in ORACLE_QUIVERS:
        for q in orientations(n):
            for d in itertools.product(range(total + 1), repeat=n):
                if sum(d) > total:
                    continue
                for m in quiver.enumerate_rep_classes(q, d):
                    for e in quiver.vec_boxes(d):
                        if sum(x * (y - x) for x, y in zip(e, d)) != ORACLE_BOUND:
                            continue
                        witness = grass.first_primes(ORACLE_BOUND + 2)[-1]
                        cost = grass._enum_cost(q, m, e, witness)
                        if not ORACLE_COST[0] <= cost <= ORACLE_COST[1]:
                            continue
                        if cost > grass.DEFAULT_ENUM_BUDGET:
                            continue
                        shape = sorted((a, b) for a, b in zip(d, e) if 0 < b < a)
                        group = "+".join(f"d{a}e{b}" for a, b in shape)
                        by_group.setdefault(group, []).append({
                            "id": f"{q.label()}/{m.text()}/e={runner._vec(e)}",
                            "kind": "oracle",
                            "quiver": q.label(),
                            "rep": m.text(),
                            "sub": list(e),
                            "group": group,
                        })
    out = []
    for group in sorted(by_group):
        pool = by_group[group]
        out += rng.sample(pool, min(ORACLE_PER_GROUP, len(pool)))
    return out


def chain_items() -> list[dict]:
    out = []
    for label, d in CHAIN_POSETS:
        q = cli.parse_quiver(label)
        out += chain_candidates(random.Random(f"{label}/{runner._vec(d)}"), q, d)
    for i in PBW_TUPLES:
        out.append({"id": f"pbw 4/{runner._vec(i)}", "kind": "pbw", "n": 4, "i": list(i), "group": "pbw"})
    return out


def chain_candidates(rng: random.Random, q: quiver.TypeAQuiver, d: tuple[int, ...]) -> list[dict]:
    """Seeded (m, n, e) in one poset whose chain checks cost about the same.

    Draws CHAIN_DRAWS random pairs m < n with random e <= d and keeps the
    CHAIN_KEEP whose strata work (chain links times the number of f <= e)
    is closest to the median, so that an item's cost is mostly its poset's
    and the seed barely moves it.
    """
    poset = degen.degeneration_poset(q, d)
    size = len(poset.nodes)
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j and poset.leq[i][j]]
    drawn = []
    for i, j in rng.sample(pairs, CHAIN_DRAWS):
        m, n = poset.nodes[i], poset.nodes[j]
        e = tuple(rng.randint(0, x) for x in d)
        links = len(specialize.saturated_chain(q, m, n)) - 1
        drawn.append((math.log(links * math.prod(x + 1 for x in e)), m, n, e))
    middle = sorted(t[0] for t in drawn)[len(drawn) // 2]
    kept = sorted(drawn, key=lambda t: abs(t[0] - middle))[:CHAIN_KEEP]
    label = f"{q.label()}/{runner._vec(d)}"
    return [
        {
            "id": f"{label}/{m.text()}->{n.text()}/e={runner._vec(e)}",
            "kind": "chain",
            "quiver": q.label(),
            "dim": list(d),
            "m": m.text(),
            "n": n.text(),
            "sub": list(e),
            "group": label,
        }
        for _, m, n, e in kept
    ]


def measure(items: list[dict], out_dir: Path) -> None:
    """Run each item alone in a fresh worker; store its digest, latency and memory growth."""
    spec, result = out_dir / "universe-spec.json", out_dir / "universe-result.json"
    for item in items:
        spec.write_text(json.dumps({"items": [item], "check_digest": False}))
        subprocess.run(
            [sys.executable, "-I", str(BENCH / "worker.py"), str(spec), str(result)],
            cwd=BENCH.parent,
            check=True,
            timeout=600,
        )
        run = json.loads(result.read_text())
        record = run["items"][0]
        if record["problems"]:
            raise SystemExit(f"{item['id']}: {record['problems']}")
        item["digest"] = record["digest"]
        item["ms"] = round(record["latency_s"] * 1000, 1)
        item["kb"] = run["maxrss_kb"] - run["rss_start_kb"]


def main(argv: list[str]) -> None:
    out_dir = BENCH.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    items_path = out_dir / "universe-items.json"
    if argv == ["--generate"]:
        rng = random.Random(20220621)
        universe = {
            "verify_sweep": verify_items(),
            "oracle_count": oracle_items(rng),
            "chain_poset": chain_items(),
        }
        items_path.write_text(json.dumps(universe))
        return
    # Generation holds every poset in memory; it runs in a child so that this
    # process stays small: a worker's ru_maxrss starts from its parent's.
    start = time.monotonic()
    subprocess.run([sys.executable, __file__, "--generate"], check=True)
    universe = json.loads(items_path.read_text())
    for name, items in universe.items():
        measure(items, out_dir)
        print(f"{name}: {len(items)} items, {time.monotonic() - start:.1f}s", flush=True)
    lines = []
    for name in plan.WORKLOADS:
        rows = ",\n".join("    " + json.dumps(item, sort_keys=True) for item in universe[name])
        lines.append(f'  "{name}": [\n{rows}\n  ]')
    plan.UNIVERSE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
