"""No command ever loads SciPy: freemono needs NumPy alone.

SciPy is a test dependency only; the tests use it as an independent
reference (``scipy.linalg.schur``, ``sqrtm`` and ``solve_sylvester``).
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import freemono
from freemono.cli import main

SRC = Path(freemono.__file__).resolve().parent

# the acceptance criterion-1 run, the geometric-mean recipe, a short run of
# every suite, and the catalog
CONFIGS = (
    ["check", "--function", "schur_complement", "--suite", "equivalence", "--levels", "1..4",
     "--trials", "500", "--seed", "42", "--tol", "1e-8"],
    ["check", "--function", "geometric_mean", "--suite", "equivalence", "--levels", "1..4",
     "--trials", "200", "--seed", "42"],
    ["check", "--suite", "all", "--levels", "1..3", "--trials", "25", "--seed", "42"],
    ["catalog"],
)

# Run in a fresh interpreter whose sys.meta_path makes every import of scipy
# fail; prints each config's exit code and report, and the modules loaded.
SCRIPT = """
import contextlib, io, json, sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Blocker())
from freemono.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps({"runs": runs, "loaded": sorted(m for m in sys.modules if "scipy" in m)}))
"""


def test_no_module_imports_scipy():
    found = [(path.stem, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"]
    assert found == []


def test_the_canonical_configs_run_with_scipy_blocked():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(CONFIGS)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == []
    in_process = []
    for argv in CONFIGS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            in_process.append([main(list(argv)), out.getvalue()])
    assert [code for code, _ in doc["runs"]] == [0, 0, 1, 0]  # square and cube fail
    assert doc["runs"] == in_process
