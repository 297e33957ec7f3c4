"""Command-line interface: parsing grammars, JSON/DOT reports.

Grammar: quivers are "A<n>:<flags>" with one F/B flag per edge (the colon
and flags may be omitted for n = 1); representations are comma-separated
interval terms "[a,b]" or "[a,b]x<k>"; dimension vectors are comma-separated
integers.  All outputs are deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from functools import cache

from .degen import bongartz_data, degeneration_poset
from .grass import (
    PoincarePoly,
    betti_oracle,
    betti_recursion,
    check_peel_depth,
    check_split_count,
    strata_table,
)
from .quiver import InternalCheckError, Interval, RepClass, TypeAQuiver
from .specialize import (
    VerifySummary,
    check_degeneration,
    default_jobs,
    pbw_rep,
    saturated_chain,
    verify_theorem,
)


class UsageError(ValueError):
    """Malformed command-line input; message carries the offending position."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors reach main as UsageError, not usage text."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_quiver(text: str) -> TypeAQuiver:
    match = re.fullmatch(r"A(\d+)(?::([FB]*))?", text)
    if match is None:
        for pos, ch in enumerate(text):
            if pos == 0 and ch != "A":
                raise UsageError(f"quiver string must start with 'A' (position {pos})")
            if pos >= 1 and not (ch.isdigit() or ch == ":" or ch in "FB"):
                raise UsageError(f"unexpected character {ch!r} in quiver string (position {pos})")
        raise UsageError(f"malformed quiver string {text!r}")
    n = int(match.group(1))
    flags = match.group(2) or ""
    if n < 1:
        raise UsageError("quiver needs at least one vertex")
    if len(flags) != n - 1:
        raise UsageError(
            f"A{n} needs {n - 1} orientation flags, got {len(flags)} (position {text.find(':') + 1})"
        )
    return TypeAQuiver(n, flags)


_TERM = re.compile(r"\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*(?:x\s*(\d+)\s*)?")


def parse_rep(text: str, q: TypeAQuiver) -> RepClass:
    if not text.strip():
        return RepClass.empty()
    pairs = []
    pos = 0
    while True:
        match = _TERM.match(text, pos)
        if match is None:
            raise UsageError(f"expected interval term at position {pos} of {text!r}")
        a, b = int(match.group(1)), int(match.group(2))
        k = int(match.group(3)) if match.group(3) else 1
        if k <= 0:
            raise UsageError(f"multiplicity must be positive at position {pos}")
        if not 1 <= a <= b <= q.n:
            raise UsageError(f"interval [{a},{b}] out of range for {q.label()} at position {pos}")
        pairs.append((Interval(a, b), k))
        pos = match.end()
        if pos == len(text):
            break
        if text[pos] != ",":
            raise UsageError(f"expected ',' at position {pos} of {text!r}")
        pos += 1
    return RepClass.from_pairs(pairs)


def parse_vec(text: str, n: int) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"expected {n} comma-separated entries, got {len(parts)}")
    bad = next((part for part in parts if not re.fullmatch(r"[+-]?\d+", part)), None)
    if bad is not None:
        raise UsageError(f"non-integer entry {bad!r} in vector {text!r}")
    vec = tuple(int(part) for part in parts)
    if any(x < 0 for x in vec):
        raise UsageError("vector entries must be non-negative")
    return vec


def _poly_json(p: PoincarePoly) -> dict:
    return {"coefficients": list(p.coeffs), "pretty": p.pretty()}


@contextlib.contextmanager
def _output(path: str | None):
    """The file at path, opened for writing, or stdout when path is empty or '-'."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(payload: dict, path: str | None) -> None:
    with _output(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _nested(value, level: int) -> str:
    """value as json.dumps(indent=2, sort_keys=True) lays it out nested level deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def _int_list(values, level: int) -> str:
    """A list of ints as json.dumps(indent=2) lays it out nested level deep."""
    if not values:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(map(str, values)) + "\n" + "  " * level + "]"


def _write_array(write, items) -> None:
    """Write pre-rendered items at depth 2 as the array at depth 1 that holds them."""
    sep = "[\n    "
    for item in items:
        write(sep + item)
        sep = ",\n    "
    write("[]" if sep == "[\n    " else "\n  ]")


def _write_verify(write, summary: VerifySummary) -> None:
    """Write the verify report, json.dumps(payload, indent=2, sort_keys=True) + "\\n", piece by piece.

    The payload has the keys checks (one per cover and e), counts, covers,
    dim, failures, nonzero_kernels, quiver and sub, written in that (sorted)
    order without building the payload or its text.  Each class text,
    e-vector and kernel is rendered once per call, the int lists and the
    kernel objects directly and the strings by json.dumps.
    """
    text = cache(lambda m: json.dumps(m.text()))
    vec = cache(lambda e: _int_list(e, 3))
    poly = cache(
        lambda p: f'{{\n        "coefficients": {_int_list(p.coeffs, 4)},'
        f'\n        "pretty": {json.dumps(p.pretty())}\n      }}'
    )

    def item(m, n, e, kernel, is_check):
        kind = '\n      "kind": "cover",' if is_check else ""
        return (
            f'{{\n      "e": {vec(e)},\n      "kernel": {poly(kernel)},{kind}'
            f'\n      "m": {text(m)},\n      "n": {text(n)}\n    }}'
        )

    counts = {
        "nodes": summary.nodes,
        "covers": summary.covers,
        "cover_checks": summary.cover_checks,
        "bound_checks": summary.bound_checks,
    }
    covers = dict.fromkeys((m, n) for m, n, _, _ in summary.kernels)
    write('{\n  "checks": ')
    _write_array(write, (item(m, n, e, kernel, True) for m, n, e, kernel in summary.kernels))
    write(f',\n  "counts": {_nested(counts, 1)},\n  "covers": ')
    _write_array(write, (f"[\n      {text(m)},\n      {text(n)}\n    ]" for m, n in covers))
    write(f',\n  "dim": {_int_list(summary.d, 1)},\n  "failures": {_nested(list(summary.failures), 1)}')
    write(',\n  "nonzero_kernels": ')
    _write_array(write, (item(m, n, e, kernel, False) for m, n, e, kernel in summary.kernels if kernel))
    write(f',\n  "quiver": {json.dumps(summary.quiver.label())},\n  "sub": null\n}}\n')


def _dot_of_poset(q: TypeAQuiver, poset) -> str:
    lines = ["digraph degeneration_poset {", "  rankdir=BT;"]
    for node in poset.nodes:
        label = node.text() or "0"
        lines.append(f'  "{label}";')
    for m, n in poset.covers:
        bd = bongartz_data(q, m, n)
        lines.append(
            f'  "{m.text() or "0"}" -> "{n.text() or "0"}" [label="({bd.x1},{bd.s1})"];'
        )
    lines.append("}")
    return "\n".join(lines)


def cmd_poset(args) -> int:
    if args.dot == "-" and args.json in (None, "-"):
        raise UsageError("--dot - needs --json FILE: stdout carries the JSON report")
    q = parse_quiver(args.quiver)
    d = parse_vec(args.dim, q.n)
    poset = degeneration_poset(q, d)
    dot = _dot_of_poset(q, poset)
    payload = {
        "quiver": q.label(),
        "dim": list(d),
        "nodes": [m.text() for m in poset.nodes],
        "covers": [[m.text(), n.text()] for m, n in poset.covers],
        "dot": dot,
    }
    if args.dot and args.dot != "-":
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
    _emit(payload, args.json)
    if args.dot == "-":
        print(dot)
    return 0


def cmd_betti(args) -> int:
    q = parse_quiver(args.quiver)
    m = parse_rep(args.rep, q)
    e = parse_vec(args.sub, q.n)
    payload = {"quiver": q.label(), "rep": m.text(), "sub": list(e), "method": args.method}
    status = 0
    # every refusal comes before any work: the peel depth, then the oracle,
    # whose budget check precedes its count; the recursion runs last
    if args.method == "both":
        check_peel_depth(q, m, e, e)
    count = betti_oracle(q, m, e) if args.method in ("count", "both") else None
    if args.method in ("recursion", "both"):
        payload["recursion"] = _poly_json(betti_recursion(q, m, e))
    if count is not None:
        payload["count"] = _poly_json(count)
    if args.method == "both":
        if payload["recursion"] == payload["count"]:
            payload["match"] = True
        else:
            payload["match"] = False
            status = 1
    key = "recursion" if args.method != "count" else "count"
    payload["coefficients"] = payload[key]["coefficients"]
    payload["pretty"] = payload[key]["pretty"]
    _emit(payload, args.json)
    return status


def cmd_strata(args) -> int:
    q = parse_quiver(args.quiver)
    m = parse_rep(args.m, q)
    n = parse_rep(args.n, q)
    e = parse_vec(args.sub, q.n)
    check_split_count(e)
    links = len(saturated_chain(q, m, n)) - 1
    if links != 1:
        raise UsageError(f"({m}, {n}) is not a cover; chain has {links} links")
    (check,) = check_degeneration(q, m, n, e).chain
    records = strata_table(bongartz_data(q, m, n), e)
    payload = {
        "quiver": q.label(),
        "m": m.text(),
        "n": n.text(),
        "sub": list(e),
        "p_m": _poly_json(check.p_m),
        "p_n": _poly_json(check.p_n),
        "kernel": _poly_json(check.kernel),
        "monotone": check.monotone,
        "identity_ok": check.identity_ok,
        "records": [
            {
                "f": list(rec.f),
                "g": list(rec.g),
                "i": rec.i,
                "shift": rec.shift,
                "base": _poly_json(rec.base_poly),
            }
            for rec in records
        ],
    }
    _emit(payload, args.json)
    return 0 if check.monotone and check.identity_ok else 1


def cmd_verify(args) -> int:
    q = parse_quiver(args.quiver)
    d = parse_vec(args.dim, q.n)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    summary = verify_theorem(q, d, jobs=args.jobs)
    with _output(args.json) as out:
        _write_verify(out.write, summary)
    return 0 if not summary.failures else 1


def cmd_pbw(args) -> int:
    i_tuple = parse_vec(args.i, args.i.count(",") + 1)
    rep, d, e = pbw_rep(args.n, i_tuple)
    q = TypeAQuiver(args.n, "F" * (args.n - 1))
    flag_class = RepClass.from_pairs([(Interval(1, args.n), args.n + 1)])
    report = check_degeneration(q, flag_class, rep, e)
    payload = {
        "n": args.n,
        "i": list(i_tuple),
        "rep": rep.text(),
        "dim": list(d),
        "sub": list(e),
        "flag_rep": flag_class.text(),
        "chain": [[c.m.text(), c.n.text()] for c in report.chain],
        "p_flag": _poly_json(report.p_m),
        "p_rep": _poly_json(report.p_n),
        "kernel": _poly_json(report.kernel),
        "monotone": report.monotone,
        "identity_ok": report.identity_ok,
    }
    _emit(payload, args.json)
    return 0 if report.monotone and report.identity_ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every main call.

    parse_args fills a fresh namespace on each call, so no call sees
    another's flags.
    """
    parser = _Parser(
        prog="quivergrass",
        description="Degeneration posets and quiver-Grassmannian Betti numbers for type A quivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="degeneration poset with Hasse diagram")
    p.add_argument("--quiver", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--dot", help="write DOT here ('-' for stdout, with --json FILE)")
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("betti", help="Betti numbers of a quiver Grassmannian")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--method", choices=["recursion", "count", "both"], default="both")
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("strata", help="stratum table of a minimal degeneration")
    p.add_argument("--quiver", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("verify", help="sweep all covers and subdimensions")
    p.add_argument("--quiver", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pbw", help="degenerate flag variety checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", required=True, help="comma-separated strictly increasing tuple")
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_pbw)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": {"type": "usage", "message": str(exc)}}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": {"type": "value", "message": str(exc)}}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": {"type": "io", "message": str(exc)}}), file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(json.dumps({"error": {"type": "internal-check", "message": str(exc)}}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
