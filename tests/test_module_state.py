"""No module of the package keeps mutable state or heavy imports at module level.

Each module is parsed with ast, never imported, so the check sees the
source as written.  A module-level assignment whose value is a list, dict
or set display, a comprehension, or a call that builds a fresh container
is shared by every caller in the process; dunder names such as __all__ are
exempt.  A module-level import of dataclasses or fractions runs on every
import of the package, which no route needs; an import inside a function
runs only when that function does, and is allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivergrass"
CONTAINER_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict"}
MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
DEFERRED_MODULES = {"dataclasses", "fractions"}


def _is_mutable(value):
    if isinstance(value, MUTABLE_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        return name in CONTAINER_CALLS
    return False


def _targets(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name):
                yield leaf.id


def mutable_module_state(source):
    """Names assigned a fresh mutable container at module level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            if _is_mutable(node.value):
                found += [name for name in _targets(node) if not (name.startswith("__") and name.endswith("__"))]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_level_mutable_state(path):
    assert mutable_module_state(path.read_text(encoding="utf-8")) == []


def test_guard_catches_a_module_level_cache():
    assert mutable_module_state("_BETTI_CACHE = {}\n__all__ = ['x']\n") == ["_BETTI_CACHE"]
    assert mutable_module_state("from collections import defaultdict\nseen = defaultdict(int)\n") == ["seen"]
    assert mutable_module_state("LIMIT = 5\nNAMES = ('a', 'b')\n") == []


def module_level_imports(source):
    """Modules of DEFERRED_MODULES that the source imports outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names if alias.name.split(".")[0] in DEFERRED_MODULES)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                if child.module.split(".")[0] in DEFERRED_MODULES:
                    found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_level_import_of_dataclasses_or_fractions(path):
    assert module_level_imports(path.read_text(encoding="utf-8")) == []


def test_guard_catches_a_module_level_import():
    assert module_level_imports("from dataclasses import dataclass\nimport fractions\n") == ["dataclasses", "fractions"]
    # class bodies and conditional blocks run at import time too
    source = "class A:\n    from fractions import Fraction\nif True:\n    import dataclasses as dc\n"
    assert module_level_imports(source) == ["fractions", "dataclasses"]
    source = "def f(x):\n    from fractions import Fraction\n    return Fraction(x)\nfrom .linalg import Mat\n"
    assert module_level_imports(source) == []
