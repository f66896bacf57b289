"""SciPy loads at the first non-Hermitian square root, not when freemono
loads: a command that needs none never imports it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import freemono
from freemono import paths
from freemono.kernels import Rng, principal_sqrt, random_matrix
from freemono.opsys import builtin_system, pd_cone

SRC = Path(freemono.__file__).resolve().parent

# Run in a fresh interpreter: four commands that take no non-Hermitian square
# root (a local check of a function without sqrt among them), then a root and
# a path's block point.  Prints whether SciPy was loaded before the calls and
# the bytes of both results.
SCRIPT = """
import contextlib, io, json, sys
import freemono, freemono.cli
from freemono.cli import main
argvs = (["catalog"], ["parse", "--expr", "sqrt(X1)", "--system", "scalar"],
         ["check", "--function", "schur_complement", "--suite", "equivalence",
          "--levels", "1..2", "--trials", "4"],
         ["check", "--function", "inverse", "--suite", "local", "--levels", "1..2",
          "--trials", "4"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
loaded = "scipy" in sys.modules
from test_cold_start import _results
print(json.dumps({"codes": codes, "loaded": loaded,
                  "results": [r.tobytes().hex() for r in _results()]}))
"""


def _results():
    # a non-Hermitian square root, and the block point of a sampled path
    a = random_matrix("ginibre", 4, Rng(3)) + 3j * np.eye(4)
    path = paths.sample_path(pd_cone(builtin_system("diagonal(2)")), 3,
                             Rng(5).split("path", 3))
    return principal_sqrt(a), path.point().coeffs


def _module_level(node):
    # the statements that run when a module loads: all but function bodies
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _module_level(child)


def test_no_module_imports_scipy_when_it_loads():
    found = [(path.stem, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in _module_level(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"]
    assert found == []


def test_commands_without_a_schur_root_never_load_scipy():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0, 0, 1]  # inverse fails its local check
    assert doc["loaded"] is False
    assert doc["results"] == [r.tobytes().hex() for r in _results()]
