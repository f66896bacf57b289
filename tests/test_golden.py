"""Pinned report bytes: a fixed config and seed must print the same report.

Each case runs the CLI in-process at ``--seed 42`` and compares the sha256
of the report with its recorded 16-hex-digit prefix.  The benchmark's three
timed slices are pinned the same way at six more seeds, and one more case
pins the margins of the benchmark's witness-replay corpus, one point at a
time.  The
prefixes were recorded with numpy 2.4.6 and its OpenBLAS (scipy-openblas
0.3.31); a change that moves a byte here must say so and publish the new
prefixes.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from freemono.cli import main
from freemono.freeexpr import catalog
from freemono.opsys import point_from_json
from freemono.verifiers import halfplane_margin, pair_margin

SMALL = ("--levels", "1..2", "--trials", "12")
SQUARE = ("--function", "square", *SMALL)

GOLDEN = {
    "equivalence": (("--suite", "equivalence", *SQUARE), "7b76d1162be33355"),
    "axioms": (("--suite", "axioms", *SQUARE), "f197d0718c7f019c"),
    "monotone": (("--suite", "monotone", *SQUARE), "5747a34340c29795"),
    "halfplane": (("--suite", "halfplane", *SQUARE), "895d2ec13a828834"),
    "local": (("--suite", "local", *SQUARE), "af295202f7f08251"),
    "boundary": (("--suite", "boundary", *SQUARE), "54c3ac74c9ab7ae4"),
    "schur_identity": (("--suite", "schur_identity", *SMALL), "daaae5c1a08c9463"),
    "loewner1d": (("--suite", "loewner1d", *SMALL), "32b2bf4fbca0550d"),
    # chunks of 100 trials, and three levels of monotone_1d
    "loewner1d_levels_1_3": (("--suite", "loewner1d", "--levels", "1..3", "--trials", "100"),
                             "d4ca8d347961fa39"),
    "all": (("--suite", "all", *SMALL), "c90500ae86256cce"),
    "geometric_mean": (("--suite", "equivalence", "--function", "geometric_mean",
                        "--levels", "1..3", "--trials", "30"), "b321fa4a10e807cf"),
    # the witness carries an evaluation error raised inside a repeated subexpression
    "error_witness": (("--suite", "monotone", "--expr", "sqrt(X1 - 2)*sqrt(X1 - 2) + inv(X1 - 1)",
                       "--system", "scalar", *SMALL), "577ac9283daa3f79"),
    # the local check's worst witness carries an evaluation error; good rows are mixed in
    "local_error_witness": (("--suite", "local", "--expr",
                             "sqrt(X1 - 2)*sqrt(X1 - 2) + inv(X1 - 1)", "--system", "scalar",
                             *SMALL), "1f1af1bb9ded55ec"),
    # block variables, a k = 2 decode and level 4; every check passes
    "schur_levels_1_4": (("--suite", "equivalence", "--function", "schur_complement",
                          "--levels", "1..4", "--trials", "40"), "3d69e89d4b0fb1f5"),
    # every trial of every check fails, so the report keeps a witness of each check
    "inverse_levels_1_4": (("--suite", "equivalence", "--function", "inverse",
                            "--levels", "1..4", "--trials", "40"), "bf9c0c8cf3b72356"),
    # most axiom trials redraw their sample many times before every evaluation succeeds
    "axioms_redraws": (("--suite", "axioms", "--expr", "sqrt(X1 - 0.5)", "--system", "scalar",
                        *SMALL), "615726a0cf19edb2"),
    # no sample is evaluable, so a trial exhausts its 100 attempts: a numerical failure
    "axioms_exhausted": (("--suite", "axioms", "--expr", "sqrt(X1 - 3)", "--system", "scalar",
                          *SMALL), "29161a1a7a3222e1"),
    # boundary trials whose evaluation leaves the domain, mixed with good ones
    "boundary_error_witness": (("--suite", "boundary", "--expr", "sqrt(X1 - 0.5)",
                                "--system", "scalar", *SMALL), "0aa991aaa55e4fa8"),
    # the benchmark's three recipes, whole
    "recipe_schur": (("--suite", "equivalence", "--function", "schur_complement",
                      "--levels", "1..4", "--trials", "500"), "4f38a3af89c07d45"),
    "recipe_gmean": (("--suite", "equivalence", "--function", "geometric_mean",
                      "--levels", "1..4", "--trials", "200"), "02e482ace8d310dd"),
    "recipe_suite_all": (("--suite", "all", "--levels", "1..3", "--trials", "100"),
                         "6f169ef9a76eedc3"),
}
# the exit codes of the cases that reach a redraw or error path
EXIT_CODES = {"axioms_redraws": 0, "axioms_exhausted": 3, "boundary_error_witness": 1}


@pytest.mark.parametrize("name", GOLDEN)
def test_report_bytes(name):
    argv, prefix = GOLDEN[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", *argv, "--seed", "42"])
    assert err.getvalue() == ""
    if name in EXIT_CODES:
        assert code == EXIT_CODES[name]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == prefix


def _load(name):
    # a file of the benchmark, loaded read only
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workload = _load("workload")

# (workload, seed) -> prefix of the report of the workload's timed slice: its
# recipe with ``TIMED_TRIALS`` trials.  At seed 49 ``monotone`` passes
# ``square``, and at 187 and 198 ``monotone_1d`` does, so those reports fail
# the benchmark's own gate (see ROADMAP item 1); they are pinned all the same.
SLICES = {
    ("schur-equiv", 7): "0af5d348f2de62a5", ("schur-equiv", 49): "1d02e82ccab8fdd9",
    ("schur-equiv", 187): "3c3238db639b5e10", ("schur-equiv", 198): "cb885fddeeae394a",
    ("schur-equiv", 1009): "e3d6ab73687327d1", ("schur-equiv", 3131): "4361e77c67dbc40a",
    ("gmean-equiv", 7): "cb14818cd699d6d9", ("gmean-equiv", 49): "523643c0d6ea983c",
    ("gmean-equiv", 187): "d7e6a22f6632bc68", ("gmean-equiv", 198): "1a336387b1a6e247",
    ("gmean-equiv", 1009): "f4009626c38eefd4", ("gmean-equiv", 3131): "fa2ad568637595f1",
    ("suite-all", 7): "4c6272a7bacefda4", ("suite-all", 49): "de5b2e767bfcbb5d",
    ("suite-all", 187): "2c87bb5b5e2c606b", ("suite-all", 198): "92c57ea5fa5d0d2d",
    ("suite-all", 1009): "f59e8134b49094c7", ("suite-all", 3131): "28197c7f2317bc91",
}


@pytest.mark.parametrize("name, seed", SLICES, ids=lambda v: str(v))
def test_timed_slice_bytes(name, seed):
    argv = list(workload.CHECK_ARGV[name])
    argv[argv.index("--trials") + 1] = workload.TIMED_TRIALS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--seed", str(seed)])
    assert err.getvalue() == "" and code == (1 if name == "suite-all" else 0)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == SLICES[name, seed]


def test_replayed_margins():
    # every record of the seed-42 replay corpus, each point parsed and scored alone
    margins = []
    for record in _load("corpus").build(42):
        f = catalog(record["function"])
        if record["kind"] == "pair":
            margins.append(pair_margin(f, point_from_json(record["A"], f.in_system),
                                       point_from_json(record["B"], f.in_system)))
        else:
            margins.append(halfplane_margin(f, point_from_json(record["P"], f.in_system)))
    text = "\n".join(float(m).hex() for m in margins)
    assert len(margins) == 512
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "9eaadb04b0690ecd"
