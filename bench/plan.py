"""Seeded workload generation from the stored item universe.

The universe (``universe.json``, rebuilt by ``build_universe.py``) lists every
item a workload may draw.  Each item carries the group it belongs to, its
cold latency ``ms`` and peak memory growth ``kb`` measured when the universe
was built, and the digest of its mathematical results.

A pass draws ``PICKS[workload][group]`` items from each group (``"*"`` is the
default): the group's items, sorted by memory band (``kb`` in steps of
``MEMORY_BAND_KB``) and then by ``ms``, are cut into that many bins of equal
count and the seed draws one item from each bin.  The pass runs the groups
in name order and each group's picks in bin order, so every seed gets a
pass of the same shape, nearly the same cost and the same peak memory (which
depends on what an item finds cached before it), and the run-to-run spread
stays low while the seed still changes the inputs.  Nothing here
imports quivergrass: inputs are made before the program under test starts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

UNIVERSE = Path(__file__).resolve().parent / "universe.json"

WORKLOADS = ("verify_sweep", "oracle_count", "chain_poset")

PICKS = {
    # verify_sweep: groups are A3 and A4 (all orientations, d <= 2); the
    # drawn items run grouped by quiver, so items on one quiver share caches.
    "verify_sweep": {"A3": 12, "A4": 88},
    # oracle_count: groups are the shapes of (d_v, e_v) at the vertices where
    # 0 < e_v < d_v, which fix the subspace enumerations.
    "oracle_count": {"*": 5},
    # chain_poset: groups are the three chain posets, one chain each, so no
    # item shares a poset with another; then ("pbw" sorts last) all seven PBW
    # flag degenerations.
    "chain_poset": {"pbw": 7, "*": 1},
}

# Peak memory follows the summed kb of a verify_sweep pass and the largest kb
# of an oracle_count pass (d5e4 items use 22 or 37 MB).  Sorting by band
# first keeps both nearly fixed; by cost alone, one oracle_count seed in
# eleven draws no 37 MB item and peaks about 15% lower.
MEMORY_BAND_KB = 1024


def load_universe() -> dict:
    with open(UNIVERSE, encoding="utf-8") as handle:
        return json.load(handle)


def bins(items: list[dict], k: int) -> list[list[dict]]:
    """Cut items, sorted by memory band and measured cost, into k bins of equal count."""
    ordered = sorted(items, key=lambda item: (item["kb"] // MEMORY_BAND_KB, item["ms"], item["id"]))
    n = len(ordered)
    if not 0 < k <= n:
        raise ValueError(f"cannot draw {k} items from a group of {n}")
    return [ordered[i * n // k : (i + 1) * n // k] for i in range(k)]


def generate(universe: dict, workload: str, seed: int) -> list[dict]:
    """The items of one pass of a workload, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    groups: dict[str, list[dict]] = {}
    for item in universe[workload]:
        groups.setdefault(item["group"], []).append(item)
    picks = PICKS[workload]
    items = []
    for group in sorted(groups):
        k = picks.get(group, picks.get("*"))
        if k is None:
            raise ValueError(f"no picks set for group {group!r} of {workload}")
        items += [rng.choice(b) for b in bins(groups[group], k)]
    if workload == "verify_sweep":
        return sorted(items, key=lambda item: (item["quiver"], item["dim"]))
    return items
