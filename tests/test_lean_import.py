"""Importing the package and its CLI loads no process-pool machinery.

Only a verify sweep with more than one worker needs concurrent.futures'
process pool and multiprocessing; verify_theorem imports them when it
starts the pool.  The modules are compared with those of a bare interpreter
started the same way, not with a fixed list, because site customisation
may preload modules of its own.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded(imports):
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{imports}\nimport json\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


def test_import_loads_no_process_pool():
    bare = _loaded("")
    added = _loaded("import quivergrass, quivergrass.cli") - bare
    assert "quivergrass.cli" in added
    pool = sorted(name for name in added if name.split(".")[0] in ("concurrent", "multiprocessing"))
    assert pool == []
