"""The names the benchmark under bench/ reads from the package still exist.

The benchmark's files are parsed, never imported or run, so its layer
tracer is not installed here.
"""

import ast
import importlib
from pathlib import Path

from quivergrass import cli
from quivergrass.degen import DegenPoset

BENCH = Path(__file__).resolve().parent.parent / "bench"

# read by bench/build_universe.py and bench/items.py
READ_BY_BENCH = {
    ("cli", "parse_quiver"),
    ("cli", "parse_rep"),
    ("grass", "DEFAULT_ENUM_BUDGET"),
    ("grass", "_enum_cost"),
    ("grass", "first_primes"),
    ("quiver", "enumerate_rep_classes"),
    ("quiver", "vec_boxes"),
    ("specialize", "VERIFY_WORK_BUDGET"),
    ("specialize", "pbw_rep"),
    ("specialize", "saturated_chain"),
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _module_reads(path):
    """(module, name) for every `module.name` in the file, where module was
    imported by `from quivergrass import module`."""
    tree = _tree(path)
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "quivergrass"
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_traced_layers_resolve():
    (layers,) = [
        ast.literal_eval(node.value)
        for node in _tree(BENCH / "tracer.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    assert layers
    for module, function in layers:
        assert callable(getattr(importlib.import_module(f"quivergrass.{module}"), function, None)), (
            module, function
        )


def test_names_read_by_bench_exist():
    reads = set().union(*(_module_reads(path) for path in sorted(BENCH.glob("*.py"))))
    assert READ_BY_BENCH <= reads
    for module, name in sorted(reads):
        assert hasattr(importlib.import_module(f"quivergrass.{module}"), name), (module, name)
    # build_universe.py reads poset.leq[i][j] off a DegenPoset
    assert hasattr(DegenPoset, "leq")


def test_verify_argv_parses():
    # the argv that bench/items.py passes to cli.main; its non-literal slots
    # get sample values keyed by the flag before them
    (argv,) = [
        node.value.elts
        for node in ast.walk(_tree(BENCH / "items.py"))
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["argv"]
        and isinstance(node.value, ast.List)
    ]
    samples = {"--quiver": "A2:F", "--dim": "1,1", "--json": "out.json"}
    values = []
    for node in argv:
        values.append(node.value if isinstance(node, ast.Constant) else samples[values[-1]])
    args = cli.build_parser().parse_args(values)
    assert (args.command, args.quiver, args.dim, args.jobs, args.json) == ("verify", "A2:F", "1,1", 1, "out.json")
