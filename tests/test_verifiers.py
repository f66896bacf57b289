import numpy as np
import pytest

from freemono.freeexpr import catalog, eval_function, function_from_expr
from freemono.kernels import NumericalError, Rng, hermitize, min_eig_h, op_norm, random_matrix
from freemono.opsys import (
    NCPoint,
    builtin_system,
    conjugate,
    full_domain,
    point_from_json,
    realize,
    sample_ordered_pair,
)
from freemono.verifiers import (
    _run_trials,
    _Trial,
    check_boundary_continuity,
    check_free_axioms,
    check_halfplane,
    check_local_monotone,
    check_monotone,
    check_schur_im_identity,
    equivalence_report,
    find_counterexample,
    halfplane_margin,
    local_margin,
    pair_margin,
)

SCALAR = builtin_system("scalar")
BLOCK2 = builtin_system("block2")


def _point(system, *scalars):
    return NCPoint(system, tuple(np.array([[v]], dtype=complex) for v in scalars))


class TestFreeAxioms:
    def test_identity_residuals_exactly_zero(self):
        rep = check_free_axioms(catalog("identity"), levels=(1, 2), trials=25, rng=Rng(1))
        assert rep.verdict == "pass"
        assert rep.worst_margin == 0.0

    def test_schur_clean(self):
        rep = check_free_axioms(catalog("schur_complement"),
                                levels=(1, 2, 3), trials=200, rng=Rng(2))
        assert rep.failures == 0
        assert rep.worst_margin >= -1e-9

    def test_square_non_unitary_similarity(self):
        # polynomial conjugation identity with an invertible (non-unitary) S,
        # both the point and its conjugate lying in the full domain
        square = catalog("square")
        dom = full_domain(SCALAR)
        rng = Rng(3)
        for t in range(50):
            n = 2 + t % 3
            x = NCPoint(SCALAR, (random_matrix("hermitian", n, rng.split("x", t)),))
            s = random_matrix("ginibre", n, rng.split("s", t)) + 3.0 * np.eye(n)
            lhs = realize(conjugate(eval_function(square, x), s))
            rhs = realize(eval_function(square, conjugate(x, s)))
            assert op_norm(lhs - rhs) <= 1e-9 * (1 + op_norm(lhs))


class TestMonotone:
    def test_identity_passes_exactly(self):
        rep = check_monotone(catalog("identity"), levels=(1, 2, 3), trials=50, rng=Rng(4))
        assert rep.failures == 0
        assert rep.worst_margin >= 0.0

    def test_schur_passes(self):
        rep = check_monotone(catalog("schur_complement"),
                             levels=(1, 2, 3), trials=100, rng=Rng(5))
        assert rep.failures == 0

    def test_square_fails_with_witness(self):
        rep = check_monotone(catalog("square"), levels=(2,), trials=200, rng=Rng(6))
        assert rep.failures > 0
        assert rep.verdict == "fail"
        assert rep.witness is not None and rep.witness["margin"] < -1e-8

    def test_report_invariants(self):
        for name, seed in (("square", 7), ("identity", 8)):
            rep = check_monotone(catalog(name), levels=(2,), trials=100, rng=Rng(seed))
            assert (rep.failures == 0) == (rep.worst_margin >= -rep.tol)
            assert (rep.witness is not None) == (rep.failures > 0)


class TestFindCounterexample:
    def test_square_found(self):
        w = find_counterexample(catalog("square"), level=2, budget=1000, rng=Rng(9))
        assert w is not None and w["margin"] < -1e-8

    def test_identity_none(self):
        assert find_counterexample(catalog("identity"), level=2, budget=200, rng=Rng(10)) is None

    def test_neg_inverse_none(self):
        assert find_counterexample(catalog("neg_inverse"),
                                   level=2, budget=1000, rng=Rng(11)) is None

    def test_fixed_witness_accepted(self):
        # B - A = diag(1, 0) is PSD, but B^2 - A^2 has determinant -1
        a = _pair_point([[2.0, 1.0], [1.0, 1.0]])
        b = _pair_point([[3.0, 1.0], [1.0, 1.0]])
        square = catalog("square")
        margin = pair_margin(square, a, b)
        assert margin < -1e-8
        raw = min_eig_h(hermitize(
            realize(eval_function(square, b)) - realize(eval_function(square, a))))
        assert raw < -0.15


def _pair_point(values):
    return NCPoint(SCALAR, (np.asarray(values, dtype=complex),))


class TestHalfplane:
    def test_identity_margins_positive(self):
        rep = check_halfplane(catalog("identity"), levels=(1, 2, 3), trials=50, rng=Rng(12))
        assert rep.failures == 0
        assert rep.worst_margin > 0

    def test_schur_passes(self):
        rep = check_halfplane(catalog("schur_complement"),
                              levels=(1, 2, 3), trials=100, rng=Rng(13))
        assert rep.failures == 0

    def test_square_fails(self):
        rep = check_halfplane(catalog("square"), levels=(1, 2), trials=100, rng=Rng(14))
        assert rep.failures > 0

    def test_scalar_witness(self):
        # (-1+i)^2 = -2i leaves the upper half-plane
        margin = halfplane_margin(catalog("square"), _point(SCALAR, -1 + 1j))
        assert margin < 0


class TestLocalMonotone:
    def test_identity_positive(self):
        rep = check_local_monotone(catalog("identity"), levels=(1, 2), trials=50, rng=Rng(15))
        assert rep.failures == 0
        assert rep.worst_margin > 0

    def test_msqrt_passes(self):
        rep = check_local_monotone(catalog("msqrt"), levels=(1, 2, 3), trials=100, rng=Rng(16))
        assert rep.failures == 0

    def test_square_fails_level_two(self):
        rep = check_local_monotone(catalog("square"), levels=(2,), trials=200, rng=Rng(17))
        assert rep.failures > 0

    def test_witness_margin_reproduces(self):
        rep = check_local_monotone(catalog("square"), levels=(2, 3), trials=200, rng=Rng(18))
        assert rep.witness is not None
        again = local_margin(catalog("square"), rep.witness)
        assert abs(again - rep.witness["margin"]) <= 1e-10

    def test_rejects_block_systems(self):
        with pytest.raises(ValueError):
            check_local_monotone(catalog("schur_complement"), trials=1, rng=Rng(19))


class TestBoundaryContinuity:
    def test_identity_exactly_linear(self):
        rep = check_boundary_continuity(catalog("identity"),
                                        levels=(1, 2), trials=20, rng=Rng(20))
        assert rep.failures == 0
        # r(eps) = eps * C exactly, so every margin is 1 - 1/10 of threshold
        assert rep.worst_margin > 0.8

    def test_schur_and_msqrt_linear_decay(self):
        for name in ("schur_complement", "msqrt"):
            rep = check_boundary_continuity(catalog(name),
                                            levels=(1, 2, 3), trials=50, rng=Rng(21))
            assert rep.failures == 0, name


class TestSchurImIdentity:
    def test_diagonal_trivial_case(self):
        # X = i*I: f(X) = i, Im f = 1, and the factor column is [1; 0]
        p = _point(BLOCK2, 1j, 1j, 0.0, 0.0)
        schur = catalog("schur_complement")
        out = eval_function(schur, p)
        np.testing.assert_allclose(out.coeffs[0], [[1j]], atol=1e-14)

    def test_hermitian_pd_both_sides_zero(self):
        from freemono.kernels import imag_part
        from freemono.opsys import sample_point
        schur = catalog("schur_complement")
        p = sample_point(schur.domain, 2, Rng(22))
        imf = imag_part(realize(eval_function(schur, p)))
        assert op_norm(imf) <= 1e-12

    def test_residual_small_and_im_positive(self):
        rep = check_schur_im_identity(levels=(1, 2, 3), trials=500, rng=Rng(23))
        assert rep.failures == 0
        assert rep.worst_margin >= -1e-10


class TestEquivalence:
    PASSING = ("identity", "msqrt", "neg_inverse", "schur_complement", "geometric_mean")
    FAILING = ("square", "inverse")

    @pytest.mark.parametrize("name", PASSING)
    def test_passing_functions_consistent(self, name):
        eq = equivalence_report(catalog(name), levels=(1, 2, 3), trials=100, rng=Rng(24))
        assert eq.consistent
        assert set(eq.sides.values()) == {"pass"}

    @pytest.mark.parametrize("name", FAILING)
    def test_failing_functions_consistent(self, name):
        eq = equivalence_report(catalog(name), levels=(1, 2, 3), trials=100, rng=Rng(25))
        assert eq.consistent
        assert set(eq.sides.values()) == {"fail"}

    def test_local_omitted_for_block_systems(self):
        eq = equivalence_report(catalog("schur_complement"),
                                levels=(1,), trials=5, rng=Rng(26))
        assert "local" not in eq.sides
        assert set(eq.sides) == {"monotone", "halfplane"}


class TestMarginProperties:
    def test_margin_unitary_invariant(self):
        square = catalog("square")
        rep = check_monotone(square, levels=(2,), trials=200, rng=Rng(27))
        assert rep.witness is not None
        a = point_from_json(rep.witness["A"])
        b = point_from_json(rep.witness["B"])
        base = pair_margin(square, a, b)
        u = random_matrix("unitary", a.level, Rng(28))
        rotated = pair_margin(square, conjugate(a, u), conjugate(b, u))
        assert abs(base - rotated) <= 1e-10

    @pytest.mark.parametrize("name", ["schur_complement", "msqrt"])
    def test_segment_points_stay_ordered(self, name):
        # convexity: intermediate points of the segment satisfy the order too
        f = catalog(name)
        rng = Rng(29)
        for t in range(30):
            a, b = sample_ordered_pair(f.domain, 2, rng.split(t))
            mid = a + 0.5 * (b - a)
            assert pair_margin(f, a, mid) >= -1e-8
            assert pair_margin(f, mid, b) >= -1e-8
            assert pair_margin(f, a, b) >= -1e-8

    def test_reports_deterministic(self):
        a = check_monotone(catalog("square"), levels=(2,), trials=50, rng=Rng(30))
        b = check_monotone(catalog("square"), levels=(2,), trials=50, rng=Rng(30))
        assert a.to_json() == b.to_json()


class TestTrialRunner:
    @staticmethod
    def _run(margins):
        def trial(level, t):
            return _Trial(margins[t], {"t": t})

        return _run_trials("monotone", "f", trial, (1,), len(margins), 1e-8, Rng(0))

    def test_worst_margin_and_witness(self):
        rep = self._run([0.5, -2.0, -1.0, -2.0])
        assert (rep.failures, rep.worst_margin, rep.witness) == (3, -2.0, {"t": 1})
        assert self._run([0.5, -1e-9]).witness is None

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    @pytest.mark.parametrize("margins", [[None, -1.0], [-1.0, None], [None]])
    def test_non_finite_margin_is_a_numerical_error(self, bad, margins):
        margins = [bad if m is None else m for m in margins]
        with pytest.raises(NumericalError, match="monotone of f"):
            self._run(margins)
