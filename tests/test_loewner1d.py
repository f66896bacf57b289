import numpy as np
import pytest

from freemono import loewner1d
from freemono.freeexpr import catalog, function_from_expr
from freemono.kernels import Rng, hermitize, min_eig_h, op_norm
from freemono.loewner1d import (
    SCALAR_CATALOG_NAMES,
    cross_check,
    loewner_matrix,
    pick_matrix,
    scalar_catalog,
)
from freemono.opsys import builtin_system, point_from_json, spectral_interval
from freemono.verifiers import _pair_check, check_local_monotone, local_margin, pair_margin
from scalar_closed_forms import loewner, pick

DIAG2 = builtin_system("diagonal(2)")


def _monotone_1d(f, *opts):
    # the monotone_1d check that cross_check runs, its spectra in loewner1d.INTERVAL
    return _pair_check("monotone_1d", f, spectral_interval(f.in_system, *loewner1d.INTERVAL),
                       *opts)


class TestScalarCatalog:
    def test_names(self):
        assert set(SCALAR_CATALOG_NAMES) == {"x", "sqrt", "neg_inverse", "square", "cube"}

    def test_unknown(self):
        with pytest.raises(ValueError):
            scalar_catalog("log")

    @pytest.mark.parametrize("name, text, a", [
        ("x", "X1", -np.inf), ("sqrt", "sqrt(X1)", 0.0), ("neg_inverse", "-inv(X1)", 0.0),
        ("square", "X1*X1", -np.inf), ("cube", "X1*X1*X1", -np.inf),
    ])
    def test_each_is_an_expression_over_the_scalar_system(self, name, text, a):
        f = scalar_catalog(name)
        assert (f.name, f.text, f.in_system.name, f.out_system.name) == (
            name, text, "scalar", "scalar")
        assert (f.domain.a, f.domain.b) == (a, np.inf)
        assert scalar_catalog(name) is f

    @pytest.mark.parametrize("name", SCALAR_CATALOG_NAMES)
    def test_matrices_are_the_closed_forms(self, name):
        # 1,000 stacks of 5 nodes in (0.1, 10) and of 5 half-plane points, drawn as
        # cross_check draws them
        f = scalar_catalog(name)
        gen = Rng(1).generator()
        x = np.sort(0.1 + 9.9 * gen.random((1000, 5)), axis=1)
        z = (-3 + 6 * gen.random((1000, 5))) + 1j * (0.1 + 2.9 * gen.random((1000, 5)))
        mat, ref = loewner_matrix(f, x), loewner(name, x)
        pmat, pref = pick_matrix(f, z), pick(name, z)
        if name in ("x", "sqrt"):
            np.testing.assert_array_equal(mat, ref)
            np.testing.assert_array_equal(pmat, pref)
        # X1*X1*X1 rounds otherwise than x**3, which shows at close nodes
        np.testing.assert_allclose(mat, ref, rtol=1e-11, atol=0.0)
        assert np.all(op_norm(pmat - pref) <= 1e-15 * op_norm(pref))

    @pytest.mark.parametrize("build, at", [(loewner_matrix, [1.0, 2.0]), (pick_matrix, [1j])])
    def test_a_function_off_the_scalar_system_is_refused(self, build, at):
        with pytest.raises(ValueError, match="does not map the scalar system to itself"):
            build(catalog("geometric_mean"), at)
        with pytest.raises(ValueError, match="does not map the scalar system to itself"):
            build(function_from_expr("first", "X1", DIAG2), at)


class TestLoewnerMatrix:
    def test_linear_function_all_ones(self):
        mat = loewner_matrix(scalar_catalog("x"), [1.0, 2.0, 5.0])
        np.testing.assert_array_equal(mat, np.ones((3, 3)))
        assert min_eig_h(mat) >= -1e-14

    def test_square_two_nodes(self):
        mat = loewner_matrix(scalar_catalog("square"), [1.0, 2.0])
        np.testing.assert_array_equal(mat, [[2.0, 3.0], [3.0, 4.0]])
        assert np.linalg.det(mat) == pytest.approx(-1.0)

    def test_sqrt_exact_example(self):
        mat = loewner_matrix(scalar_catalog("sqrt"), [1.0, 4.0])
        np.testing.assert_array_equal(mat, np.array([[0.5, 1 / 3], [1 / 3, 0.25]]))
        assert np.linalg.det(mat) == pytest.approx(1 / 72)
        assert min_eig_h(mat) > 0

    def test_node_collision(self):
        with pytest.raises(ValueError):
            loewner_matrix(scalar_catalog("x"), [1.0, 1.0 + 1e-12])

    def test_node_outside_domain(self):
        with pytest.raises(ValueError):
            loewner_matrix(scalar_catalog("sqrt"), [-1.0, 1.0])

    def test_unsorted_nodes(self):
        with pytest.raises(ValueError):
            loewner_matrix(scalar_catalog("x"), [2.0, 1.0])

    def test_psd_verdict_permutation_invariant(self):
        gen = Rng(2).generator()
        f = scalar_catalog("sqrt")
        for _ in range(50):
            nodes = np.sort(0.1 + 9.9 * gen.random(5))
            mat = loewner_matrix(f, nodes)
            perm = gen.permutation(5)
            np.testing.assert_allclose(
                sorted(np.linalg.eigvalsh(mat)),
                sorted(np.linalg.eigvalsh(mat[np.ix_(perm, perm)])), atol=1e-12)


class TestPickMatrix:
    def test_identity_single_point(self):
        mat = pick_matrix(scalar_catalog("x"), [1j])
        np.testing.assert_allclose(mat, [[1.0]])

    def test_square_negative_diagonal(self):
        mat = pick_matrix(scalar_catalog("square"), [-1 + 1j, 2j])
        assert mat[0, 0].real == pytest.approx(-2.0)
        assert min_eig_h(hermitize(mat)) < 0

    def test_sqrt_always_psd(self):
        f = scalar_catalog("sqrt")
        rng = Rng(3)
        for t in range(100):
            gen = rng.split(t).generator()
            z = (-3 + 6 * gen.random(5)) + 1j * (0.1 + 2.9 * gen.random(5))
            mat = pick_matrix(f, z)
            assert min_eig_h(hermitize(mat)) >= -1e-8 * (1 + op_norm(mat))

    def test_hermitian_to_machine_precision(self):
        gen = Rng(4).generator()
        for name in SCALAR_CATALOG_NAMES:
            f = scalar_catalog(name)
            z = (-3 + 6 * gen.random(4)) + 1j * (0.1 + 2.9 * gen.random(4))
            mat = pick_matrix(f, z)
            assert op_norm(mat - mat.conj().T) <= 1e-14 * (1 + op_norm(mat))

    def test_coincident_points(self):
        with pytest.raises(ValueError):
            pick_matrix(scalar_catalog("x"), [1j, 1j])

    def test_lower_halfplane_rejected(self):
        with pytest.raises(ValueError):
            pick_matrix(scalar_catalog("x"), [-1j])


class TestMonotone1d:
    """The monotone pair check that `cross_check` runs, at one level."""

    def test_linear_passes(self):
        rep = _monotone_1d(scalar_catalog("x"), (2,), 100, 1e-8, Rng(5))
        assert rep.failures == 0
        assert rep.worst_margin >= -1e-12

    def test_sqrt_passes_levels(self, monkeypatch):
        f = scalar_catalog("sqrt")
        monkeypatch.setattr(loewner1d, "INTERVAL", (0.0, np.inf))  # spectra anywhere in f's domain
        for level in (2, 3, 4):
            rep = _monotone_1d(f, (level,), 100, 1e-8, Rng(6))
            assert rep.failures == 0, level

    def test_square_witness_replays_exactly(self):
        f = scalar_catalog("square")
        rep = _monotone_1d(f, (2,), 400, 1e-8, Rng(7))
        assert rep.failures > 0
        w = rep.witness
        assert sorted(w) == ["A", "B", "margin"]
        a, b = (point_from_json(w[key], f.in_system) for key in "AB")
        assert a.level == 2 and pair_margin(f, a, b) == w["margin"] == rep.worst_margin


class TestCrossCheck:
    @pytest.mark.parametrize("name,expected", [
        ("x", "pass"), ("sqrt", "pass"), ("neg_inverse", "pass"),
        ("square", "fail"), ("cube", "fail"),
    ])
    def test_verdicts_agree(self, name, expected):
        cc = cross_check(scalar_catalog(name), trials=200, rng=Rng(8))
        assert cc.consistent, cc.sides
        assert set(cc.sides.values()) == {expected}

    def test_report_shape(self):
        cc = cross_check(scalar_catalog("sqrt"), trials=20, rng=Rng(9))
        assert [r.check for r in cc.reports] == ["loewner_psd", "pick_psd", "monotone_1d"]
        assert [r.levels for r in cc.reports] == [(5,), (5,), (2, 3, 4)]
        assert [r.trials for r in cc.reports] == [20, 20, 20]
        assert cc.reports[2] == _monotone_1d(scalar_catalog("sqrt"), (2, 3, 4), 20, 1e-8, Rng(9))

    @pytest.mark.parametrize("levels, trials", [((), 20), ((2, 3), 0), ((), 0)])
    def test_levels_and_trials_are_checked_before_any_trial(self, monkeypatch, levels, trials):
        drawn = []
        uniforms = loewner1d._uniforms
        monkeypatch.setattr(loewner1d, "_uniforms", lambda *a: drawn.append(a) or uniforms(*a))
        for name in ("loewner_matrix", "pick_matrix", "scaled_min_eig"):
            monkeypatch.setattr(loewner1d, name, None)  # never reached
        with pytest.raises(ValueError, match="a check needs at least one level and one trial"):
            cross_check(scalar_catalog("sqrt"), levels, trials, 1e-8, Rng(9))
        assert drawn == []


class TestAmyLocal:
    """Order preservation along commuting-tuple paths (Agler-McCarthy-Young),
    checked by the ``local`` check's derivative margin."""

    def test_geometric_mean_passes(self):
        rep = check_local_monotone(catalog("geometric_mean"), (2,), 200, 1e-8, Rng(10))
        assert rep.failures == 0

    def test_coordinate_projection_positive(self):
        proj = function_from_expr("first_coordinate", "X1", DIAG2)
        rep = check_local_monotone(proj, (2,), 50, 1e-8, Rng(11))
        assert rep.failures == 0
        assert rep.worst_margin > 0

    def test_product_fails(self):
        prod = function_from_expr("coordinate_product", "X1*X2", DIAG2)
        rep = check_local_monotone(prod, (2,), 300, 1e-8, Rng(12))
        assert rep.failures > 0
        again = local_margin(prod, rep.witness)
        assert again == rep.witness["margin"]


class TestDimensionOneReduction:
    def test_verdicts_agree_on_shared_seeds(self):
        # at d = 1 the commuting-path check and the monotone pair check
        # probe the same property; verdicts agree run by run
        sqrt_free = catalog("msqrt")
        sqrt_1d = scalar_catalog("sqrt")
        square_free = catalog("square")
        square_1d = scalar_catalog("square")
        scalar_sys = builtin_system("scalar")
        assert sqrt_free.in_system.name == scalar_sys.name
        disagreements = 0
        for seed in range(100):
            rng = Rng(1000 + seed)
            a = check_local_monotone(sqrt_free, (2,), 10, 1e-8, rng)
            b = _monotone_1d(sqrt_1d, (2,), 10, 1e-8, rng)
            if a.verdict != b.verdict:
                disagreements += 1
            a = check_local_monotone(square_free, (2,), 60, 1e-8, rng)
            b = _monotone_1d(square_1d, (2,), 150, 1e-8, rng)
            if a.verdict != b.verdict:
                disagreements += 1
        assert disagreements == 0
