"""Importing the package and its CLI loads no module that no route needs.

Only a verify sweep with more than one worker needs concurrent.futures'
process pool and multiprocessing; verify_theorem imports them when it
starts the pool.  No route needs dataclasses (with its inspect stack) or
fractions (with decimal): the records are named tuples, and linalg imports
fractions only where a Fraction is met or built.  The modules are compared
with those of a bare interpreter started the same way, not with a fixed
list, because site customisation may preload modules of its own.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code):
    """The JSON value that code prints, run in a fresh isolated interpreter with src on its path."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def _loaded(imports):
    return set(_run(f"{imports}\nimport json\nprint(json.dumps(sorted(sys.modules)))"))


def _added_by_import(roots):
    """The modules under the given top-level names that importing the package and its CLI adds."""
    added = _loaded("import quivergrass, quivergrass.cli") - _loaded("")
    assert "quivergrass.cli" in added
    return sorted(name for name in added if name.split(".")[0] in roots)


def test_import_loads_no_process_pool():
    assert _added_by_import(("concurrent", "multiprocessing")) == []


def test_import_loads_no_dataclasses_or_fractions():
    assert _added_by_import(("dataclasses", "inspect", "fractions", "decimal")) == []


def test_fractions_load_where_a_fraction_is_built_or_met():
    loads, integral, halves, two = _run(
        "import json\n"
        "from quivergrass.linalg import Mat, rref\n"
        "loads = ['fractions' in sys.modules]\n"
        "integral = rref(Mat.from_rows([[2, 4], [1, 3]]))\n"
        "loads.append('fractions' in sys.modules)\n"
        "halves = rref(Mat.from_rows([[2, 1]]))\n"
        "loads.append('fractions' in sys.modules)\n"
        "from fractions import Fraction\n"
        "two = Mat.from_rows([[Fraction(4, 2)]]).rows[0][0]\n"
        "print(json.dumps([loads, repr(integral), repr(halves), [type(two).__name__, two]]))"
    )
    # an integral rref builds no Fraction; the first non-integral entry imports fractions
    assert loads == [False, False, True]
    assert integral == "(Mat(nrows=2, ncols=2, rows=((1, 0), (0, 1))), (0, 1))"
    assert halves == "(Mat(nrows=1, ncols=2, rows=((1, Fraction(1, 2)),)), (0,))"
    # a Fraction met with an integral value is stored as the int
    assert two == ["int", 2]
