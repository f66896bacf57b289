"""Acceptance battery.

Every criterion runs at its stated tolerance and prints one PASS line;
run with ``pytest tests/test_acceptance.py -s`` to see them.
"""

import contextlib
import io
import json
import time

import numpy as np

from freemono.cli import main
from freemono.freeexpr import CATALOG_NAMES, catalog, eval_function
from freemono.kernels import Rng, hermitize, min_eig_h, random_matrix
from freemono.loewner1d import loewner_matrix, cross_check, scalar_catalog
from freemono.opsys import NCPoint, builtin_system, direct_sum, realize, shuffle_permutation
from freemono.verifiers import (
    check_boundary_continuity,
    check_free_axioms,
    check_halfplane,
    check_monotone,
    check_schur_im_identity,
    equivalence_report,
    pair_margin,
)

SCALAR = builtin_system("scalar")


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _report(msg):
    print(f"\nACCEPTANCE {msg}")


def test_criterion_1_schur_equivalence(tmp_path):
    path = tmp_path / "schur.json"
    started = time.time()
    code, _ = _cli("check", "--function", "schur_complement", "--suite", "equivalence",
                   "--levels", "1..4", "--trials", "500", "--seed", "42",
                   "--tol", "1e-8", "--out", str(path))
    elapsed = time.time() - started
    doc = json.loads(path.read_text())
    by_check = {r["check"]: r for r in doc["reports"]}
    assert code == 0
    assert by_check["monotone"]["failures"] == 0
    assert by_check["halfplane"]["failures"] == 0
    assert doc["equivalence"][0]["consistent"] is True
    assert elapsed <= 60.0
    _report(f"1 PASS: schur_complement equivalence, levels 1..4, 500 trials/level, "
            f"seed 42: monotone 0 failures, halfplane 0 failures, consistent "
            f"({elapsed:.1f}s <= 60s)")


def test_criterion_2_schur_im_identity():
    rep = check_schur_im_identity(levels=(1, 2, 3), trials=500, tol=1e-10, rng=Rng(42))
    assert rep.failures == 0
    assert rep.worst_margin >= -1e-10
    _report(f"2 PASS: Schur Im-identity, 500 trials at n in {{1,2,3}}: max scaled "
            f"residual {-rep.worst_margin:.2e} <= 1e-10, Im f positive definite "
            f"on every trial")


def test_criterion_3_geometric_mean():
    gm = catalog("geometric_mean")
    mono = check_monotone(gm, levels=(1, 2, 3), trials=500, tol=1e-8, rng=Rng(42))
    assert mono.failures == 0
    hp = check_halfplane(gm, levels=(1, 2, 3), trials=500, tol=1e-8, rng=Rng(42))
    assert hp.worst_margin >= -1e-8
    _report(f"3 PASS: geometric_mean monotone 0 failures (1500 ordered pd pairs); "
            f"half-plane worst Im margin {hp.worst_margin:.2e} >= -1e-8")


def test_criterion_4_square_falsification():
    witness = check_monotone(catalog("square"), (2,), 1000, rng=Rng(42)).witness
    assert witness is not None
    a = NCPoint(SCALAR, (np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex),))
    b = NCPoint(SCALAR, (np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex),))
    square = catalog("square")
    fixed = min_eig_h(hermitize(
        realize(eval_function(square, b)) - realize(eval_function(square, a))))
    assert fixed < -0.15
    assert pair_margin(square, a, b) < 0
    _report(f"4 PASS: square counterexample found within 1000 trials at level 2; "
            f"fixed witness margin {fixed:.4f} < -0.15")


def test_criterion_5_theorem1_oracles():
    for name in ("x", "sqrt", "neg_inverse", "square", "cube"):
        cc = cross_check(scalar_catalog(name), (2, 3, 4), 200, rng=Rng(42))
        assert cc.consistent, (name, cc.sides)
    exact = loewner_matrix(scalar_catalog("sqrt"), [1.0, 4.0])
    np.testing.assert_array_equal(exact, np.array([[0.5, 1 / 3], [1 / 3, 0.25]]))
    _report("5 PASS: Loewner, Pick and matrix-monotone verdicts agree for "
            "x, sqrt, neg_inverse, square, cube (200+200 configurations, 600 pairs "
            "each); sqrt Loewner example [[0.5,1/3],[1/3,0.25]] reproduced exactly")


def test_criterion_6_free_axioms():
    worst = 0.0
    for name in CATALOG_NAMES:
        rep = check_free_axioms(catalog(name), levels=(1, 2, 3), trials=200,
                                tol=1e-9, rng=Rng(42))
        assert rep.failures == 0, name
        worst = min(worst, rep.worst_margin)
    # shuffle identity is exact, not just within tolerance
    rng = Rng(42)
    for name in ("scalar", "diagonal(2)", "block2"):
        sys_ = builtin_system(name)
        for t in range(50):
            n, m = 1 + t % 3, 1 + (t // 3) % 3
            p = NCPoint(sys_, tuple(random_matrix("ginibre", n, rng.split("p", name, t, j))
                                    for j in range(sys_.size)))
            q = NCPoint(sys_, tuple(random_matrix("ginibre", m, rng.split("q", name, t, j))
                                    for j in range(sys_.size)))
            stacked = np.zeros((sys_.k * (n + m),) * 2, dtype=complex)
            stacked[:sys_.k * n, :sys_.k * n] = realize(p)
            stacked[sys_.k * n:, sys_.k * n:] = realize(q)
            perm = shuffle_permutation(sys_.k, n, m)
            np.testing.assert_array_equal(realize(direct_sum(p, q)),
                                          stacked[np.ix_(perm, perm)])
    _report(f"6 PASS: direct-sum and similarity residuals <= 1e-9 for all 7 catalog "
            f"functions (200 trials, levels 1..3; worst {-worst:.2e}); shuffle "
            f"permutation identity exact on 150 pairs")


def test_criterion_7_boundary_continuity():
    for name in ("schur_complement", "msqrt"):
        rep = check_boundary_continuity(catalog(name), levels=(1, 2, 3), trials=50,
                                        rng=Rng(42))
        assert rep.failures == 0, name
    _report("7 PASS: boundary continuity for schur_complement and msqrt: r(eps) "
            "decays linearly within factor 10 across eps = 1e-1..1e-6, 50 trials each")


def test_criterion_8_determinism(tmp_path):
    paths = [tmp_path / f"all{i}.json" for i in range(3)]
    _cli("check", "--suite", "all", "--seed", "42", "--out", str(paths[0]))
    _cli("check", "--suite", "all", "--seed", "42", "--out", str(paths[1]))
    _cli("check", "--suite", "all", "--seed", "42", "--jobs", "8", "--out", str(paths[2]))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1], "two consecutive runs differ"
    assert blobs[0] == blobs[2], "--jobs 8 changed the report bytes"
    _report(f"8 PASS: suite 'all' with seed 42 is byte-identical across two runs "
            f"and across --jobs 1 vs --jobs 8 ({len(blobs[0])} bytes)")
