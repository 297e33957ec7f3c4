"""Running one benchmark item against quivergrass and checking its answer.

Every call into the package goes through a module attribute
(``grass.betti_oracle``, ``cli.main``, ...) looked up at call time, so a
tracer that rebinds those attributes sees the calls.

``prepare`` turns an item's text fields into quivergrass objects before
timing starts.  ``execute`` makes the item's top-level calls, timed, and
returns their latency, a digest of the mathematical results and the list of
independent-route checks that failed:

- verify: exit status 0 and ``failures == []``;
- oracle: ``betti_oracle == betti_recursion``;
- chain / pbw: ``monotone`` and ``identity_ok`` on every chain link and on
  the composite.

The digest is compared with the stored one by the caller.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from quivergrass import cli, grass, quiver, specialize


def digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _vec(values) -> str:
    return ",".join(str(x) for x in values)


def prepare(item: dict) -> tuple:
    kind = item["kind"]
    if kind == "verify":
        return (item["quiver"], _vec(item["dim"]))
    if kind == "pbw":
        return (item["n"], tuple(item["i"]))
    q = cli.parse_quiver(item["quiver"])
    sub = tuple(item["sub"])
    if kind == "oracle":
        return (q, cli.parse_rep(item["rep"], q), sub)
    if kind == "chain":
        return (q, cli.parse_rep(item["m"], q), cli.parse_rep(item["n"], q), sub)
    raise ValueError(f"unknown item kind {kind!r}")


def _report_results(report) -> tuple[dict, list[str]]:
    links = [
        [c.m.text(), c.n.text(), list(c.kernel.coeffs), c.monotone, c.identity_ok]
        for c in report.chain
    ]
    results = {
        "chain": [c.m.text() for c in report.chain] + [report.n.text()],
        "links": links,
        "p_m": list(report.p_m.coeffs),
        "p_n": list(report.p_n.coeffs),
        "kernel": list(report.kernel.coeffs),
    }
    problems = [
        f"link {m} -> {n}: monotone={mono} identity_ok={ident}"
        for m, n, _, mono, ident in links
        if not (mono and ident)
    ]
    if not (report.monotone and report.identity_ok):
        problems.append(f"composite: monotone={report.monotone} identity_ok={report.identity_ok}")
    return results, problems


def execute(item: dict, args: tuple, json_path: Path) -> tuple[float, str, list[str]]:
    """Run one item; return (latency in s, result digest, failed checks)."""
    kind = item["kind"]
    clock = time.perf_counter
    if kind == "verify":
        label, dim = args
        argv = ["verify", "--quiver", label, "--dim", dim, "--jobs", "1", "--json", str(json_path)]
        start = clock()
        status = cli.main(argv)
        latency = clock() - start
        with open(json_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload.pop("elapsed", None)
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        if payload.get("failures") != []:
            problems.append(f"failures: {payload.get('failures')}")
        return latency, digest(payload), problems
    if kind == "oracle":
        q, m, e = args
        start = clock()
        oracle = grass.betti_oracle(q, m, e)
        recursion = grass.betti_recursion(q, m, e)
        latency = clock() - start
        problems = [] if oracle == recursion else [f"oracle {oracle} != recursion {recursion}"]
        return latency, digest(list(oracle.coeffs)), problems
    if kind == "chain":
        q, m, n, e = args
        start = clock()
        report = specialize.check_degeneration(q, m, n, e)
        latency = clock() - start
    else:
        n_vertices, i_tuple = args
        start = clock()
        rep, _, e = specialize.pbw_rep(n_vertices, i_tuple)
        q = quiver.TypeAQuiver(n_vertices, "F" * (n_vertices - 1))
        flag = quiver.RepClass.from_pairs([(quiver.Interval(1, n_vertices), n_vertices + 1)])
        report = specialize.check_degeneration(q, flag, rep, e)
        latency = clock() - start
    results, problems = _report_results(report)
    return latency, digest(results), problems
