import contextlib
import gc
import io
import weakref

import numpy as np
import pytest
import scipy.linalg

from freemono import cli, paths, verifiers
from freemono.freeexpr import (
    CATALOG_NAMES, CodomainError, OutOfDomainError, catalog, eval_derivative, eval_function,
    function_from_expr,
)
from freemono.kernels import (
    NonFiniteError, NumericalError, Rng, SamplingError, SingularMatrixError, hermitize, imag_part,
    matrix_from_json, min_eig_h, op_norm, random_matrix, safe_inv, scaled_min_eig,
)
from freemono.opsys import (
    NCPoint,
    builtin_system,
    conjugate,
    direct_sum,
    full_domain,
    point_from_json,
    point_to_json,
    realize,
    sample_ordered_pair,
    stack_points,
)
from freemono.report import OUT_OF_DOMAIN_MARGIN
from freemono.verifiers import (
    _run_trials,
    check_boundary_continuity,
    check_free_axioms,
    check_halfplane,
    check_local_monotone,
    check_monotone,
    check_schur_im_identity,
    equivalence_report,
    halfplane_margin,
    local_margin,
    pair_margin,
)

SCALAR = builtin_system("scalar")
BLOCK2 = builtin_system("block2")
DIAG2 = builtin_system("diagonal(2)")


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

    def test_witness_at_tol_zero_replays_its_residuals(self):
        # at tol 0 a rounding residual fails its trial, so the witness is built;
        # its points give back both residuals, to the bit
        f = catalog("schur_complement")
        rep = check_free_axioms(f, (2,), 5, 0.0, Rng(13))
        w = rep.witness
        assert sorted(w) == ["X", "Y", "residual_direct_sum", "residual_similarity", "unitary"]
        x, y = (point_from_json(w[key], f.in_system) for key in "XY")
        u = matrix_from_json(w["unitary"])
        fx, fy = eval_function(f, x), eval_function(f, y)
        scale = 1.0 + op_norm(realize(fx))
        ds = op_norm(realize(eval_function(f, direct_sum(x, y)))
                     - realize(direct_sum(fx, fy))) / scale
        sim = op_norm(realize(conjugate(fx, u))
                      - realize(eval_function(f, conjugate(x, u)))) / scale
        assert (w["residual_direct_sum"], w["residual_similarity"]) == (ds, sim)
        assert rep.worst_margin == -max(ds, sim) < 0.0


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


class TestMonotoneAtOneLevel:
    """A search of one level for an ordered pair that violates monotonicity: the
    report's witness is the worst violating pair, if any."""

    def test_square_found(self):
        square = catalog("square")
        w = check_monotone(square, (2,), 1000, rng=Rng(9)).witness
        assert w is not None and w["margin"] < -1e-8
        a, b = (point_from_json(w[key], square.in_system) for key in "AB")
        assert pair_margin(square, a, b) == w["margin"]

    def test_identity_none(self):
        assert check_monotone(catalog("identity"), (2,), 200, rng=Rng(10)).witness is None

    def test_neg_inverse_none(self):
        assert check_monotone(catalog("neg_inverse"), (2,), 1000, rng=Rng(11)).witness is None

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


class TestOverflowingDifference:
    """A pair whose f(B) - f(A) overflows has no margin: it is a row error, never a pass."""

    @pytest.mark.parametrize("a, b", [
        ([[-1e308]], [[1e308]]),
        ([[-1e308, 0.0], [0.0, 1.0]], [[1e308, 0.0], [0.0, 1.0]]),
        (-1e308 * np.ones((3, 3)), 1e308 * np.ones((3, 3))),
    ], ids=["1x1", "diagonal", "dense"])
    def test_identity_at_opposite_huge_entries(self, a, b):
        f = catalog("identity")
        a, b = _pair_point(a), _pair_point(b)
        good = _pair_point(np.eye(len(a.coeffs[0])))
        # as in eval_function: an overflow leaves inf or NaN, and no RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            errors = {}
            margins = pair_margin(f, stack_points(good, a), stack_points(good, b), errors)
            assert list(errors) == [1] and type(errors[1]) is NonFiniteError
            assert margins[0] == 0.0
            with pytest.raises(NonFiniteError, match="must all be finite"):
                pair_margin(f, a, b)


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


def _sqrt_derivative(s, k):
    # L with S L + L S = K, by SciPy's Sylvester solver
    return scipy.linalg.solve_sylvester(s, s, k)


def _closed_form_derivative(name, x, h):
    """Df(X)[H] of a catalog function by the chain rule of its closed form, in SciPy's
    square roots and Sylvester solves and NumPy's inverses."""
    if name == "product":
        return h[0] @ x[1] + x[0] @ h[1]
    a, k = x[0], h[0]
    if name in ("identity", "msqrt", "square", "inverse", "neg_inverse"):
        inv = np.linalg.inv(a)
        return {"identity": lambda: k,
                "msqrt": lambda: _sqrt_derivative(scipy.linalg.sqrtm(a), k),
                "square": lambda: a @ k + k @ a,
                "inverse": lambda: -inv @ k @ inv,
                "neg_inverse": lambda: inv @ k @ inv}[name]()
    assert name == "geometric_mean"  # S M S, S = sqrt(X1), M = sqrt(T), T = inv(S) X2 inv(S)
    b, kb = x[1], h[1]
    s = scipy.linalg.sqrtm(a)
    si = np.linalg.inv(s)
    ds = _sqrt_derivative(s, k)
    dsi = -si @ ds @ si
    t = si @ b @ si
    m = scipy.linalg.sqrtm(t)
    dm = _sqrt_derivative(m, dsi @ b @ si + si @ kb @ si + si @ b @ dsi)
    return ds @ m @ s + s @ dm @ s + s @ m @ ds


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
        assert type(again) is float and again == rep.witness["margin"]

    def test_error_witness_replays_its_error(self):
        f = function_from_expr("expr", "sqrt(X1 - 2)*sqrt(X1 - 2) + inv(X1 - 1)", SCALAR)
        rep = check_local_monotone(f, levels=(1, 2), trials=12, rng=Rng(42))
        assert "error" in rep.witness
        with pytest.raises(OutOfDomainError) as exc:
            local_margin(f, rep.witness)
        assert str(exc.value) == rep.witness["error"]

    @pytest.mark.parametrize("f", [
        *(catalog(name) for name in CATALOG_NAMES
          if verifiers.is_diagonal_type(catalog(name).in_system)),
        function_from_expr("product", "X1*X2", DIAG2),
    ], ids=lambda f: f.name)
    def test_forward_derivative_is_the_closed_form_and_the_block_corner(self, monkeypatch, f):
        # Df(X)[H] as the local check takes it, by forward differentiation at
        # level n, against two routes that share none of its arithmetic: the
        # chain rule of the function's closed form, whose square roots' derivatives
        # solve Sylvester equations through SciPy, and the upper-right corner of
        # f at the level-2n point [[X, H], [0, X]], which a free function maps to
        # [[f(X), Df(X)[H]], [0, f(X)]]
        derivatives = []

        def spy(f, point, direction, errors=None):
            derivatives.append(eval_derivative(f, point, direction, errors))
            return derivatives[-1]

        monkeypatch.setattr(verifiers, "eval_derivative", spy)
        for level in (1, 2, 3, 4):
            path = paths.sample_path(f.domain, level, [Rng(30).split(level, t) for t in range(50)])
            margins = verifiers._derivative_margins(f, path)
            x, h = path.point().coeffs, path.velocity().coeffs
            block = np.zeros(x.shape[:-2] + (2 * level, 2 * level), dtype=np.complex128)
            block[..., :level, :level] = block[..., level:, level:] = x
            block[..., :level, level:] = h
            corner = eval_function(f, stack_points(*(NCPoint(f.in_system, c) for c in block)))
            corner = corner.coeffs[:, 0, :level, level:]
            [(_, der)] = derivatives
            derivatives.clear()
            for i, got in enumerate(der.coeffs[:, 0]):
                want = _closed_form_derivative(f.name, x[i], h[i])
                scale = op_norm(want)
                assert op_norm(got - want) <= 1e-12 * scale
                assert op_norm(got - corner[i]) <= 1e-12 * scale
                assert margins[i] == scaled_min_eig(hermitize(got))

    @pytest.mark.parametrize("name, levels", [("square", (2, 3)), ("geometric_mean", (3, 4))])
    def test_every_local_witness_replays_exactly(self, name, levels):
        # a scaled margin is below 1, so at tol -2 every trial fails, and the
        # witness is that of the worst margin
        f = catalog(name)
        rep = check_local_monotone(f, levels, 40, -2.0, Rng(31))
        assert rep.failures == 80
        again = local_margin(f, rep.witness)
        assert type(again) is float and again == rep.witness["margin"] == rep.worst_margin

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
        from freemono.opsys import sample_point
        schur = catalog("schur_complement")
        p = sample_point(schur.domain, 2, Rng(22))
        imf = imag_part(realize(eval_function(schur, p)))
        assert op_norm(imf) <= 1e-12

    def test_residual_small_and_im_positive(self):
        rep = check_schur_im_identity(levels=(1, 2, 3), trials=500, rng=Rng(23))
        assert rep.failures == 0
        assert rep.worst_margin >= -1e-10

    def test_witness_at_tol_zero_replays_its_residual(self):
        # at tol 0 a rounding residual fails its trial, so the witness is built;
        # its point gives back the residual and Im f's least eigenvalue, to the bit
        schur, n = catalog("schur_complement"), 2
        rep = check_schur_im_identity((n,), 5, 0.0, Rng(14))
        w = rep.witness
        assert sorted(w) == ["X", "im_margin", "residual"]
        m = realize(point_from_json(w["X"], schur.in_system))
        v = np.vstack([np.eye(n, dtype=complex),
                       -safe_inv(m[n:, n:].conj().T) @ m[:n, n:].conj().T])
        imf = imag_part(realize(eval_function(schur, point_from_json(w["X"], schur.in_system))))
        resid = op_norm(imf - v.conj().T @ imag_part(m) @ v) / (1.0 + op_norm(m) ** 2)
        assert (w["residual"], w["im_margin"]) == (resid, min_eig_h(imf))
        assert w["im_margin"] > 0.0
        assert rep.worst_margin == -resid < 0.0


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
        def run(level, ts):
            return [margins[t] for t in ts], {}, lambda i, extra: {"t": ts[i]}

        return _run_trials("monotone", "f", run, (1,), len(margins), 1e-8, Rng(0))

    def test_worst_margin_and_witness(self):
        rep = self._run([0.5, -2.0, -1.0, -2.0])
        assert (rep.failures, rep.worst_margin, rep.witness) == (3, -2.0, {"t": 1})
        assert self._run([0.5, -1e-9]).witness is None

    def test_row_errors(self):
        def run(errors):
            def chunk(level, ts):
                return [0.5, -1.0, float("nan"), 0.5], errors, lambda i, extra: {"t": i, **extra}

            return _run_trials("monotone", "f", chunk, (1,), 4, 1e-8, Rng(0))

        # an evaluation error ends its trial out of the domain, whatever the row's margin
        rep = run({2: OutOfDomainError("outside"), 3: CodomainError("not Hermitian")})
        assert (rep.failures, rep.worst_margin, rep.witness) == (
            3, OUT_OF_DOMAIN_MARGIN, {"t": 2, "error": "outside"})
        # any other error is raised, the lowest row's first
        with pytest.raises(SingularMatrixError, match="first"):
            run({3: SamplingError("second"), 1: OutOfDomainError("outside"),
                 2: SingularMatrixError("first")})

    def test_only_the_kept_witness_is_built(self, monkeypatch):
        # several of the 50 trials fail, and the report keeps one witness: its A and B
        calls = []

        def spy(point):
            calls.append(point)
            return point_to_json(point)

        monkeypatch.setattr(verifiers, "point_to_json", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--function", "square", "--suite", "monotone",
                             "--levels", "2..2", "--trials", "50"])
        assert code == cli.EXIT_VIOLATION and len(calls) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    @pytest.mark.parametrize("margins", [[None, -1.0], [-1.0, None], [None]])
    def test_non_finite_margin_is_a_numerical_error(self, bad, margins):
        margins = [bad if m is None else m for m in margins]
        with pytest.raises(NumericalError, match="monotone of f"):
            self._run(margins)

    def test_a_non_finite_spectrum_is_a_numerical_error(self):
        # finite entries, and a least eigenvalue of -2e308, which is -inf
        margins = scaled_min_eig(np.array([np.eye(2), np.full((2, 2), -1e308)]))
        assert margins[0] == 0.5 and np.isnan(margins[1])
        with pytest.raises(NumericalError, match="margin nan at level 1, trial 1"):
            self._run(margins.tolist())

    def test_equal_margins_keep_the_first_trial(self, monkeypatch):
        monkeypatch.setattr(verifiers, "TRIAL_CHUNK", 2)
        rep = self._run([0.5, -2.0, -1.0, -2.0, -2.0])
        assert (rep.failures, rep.worst_margin, rep.witness) == (4, -2.0, {"t": 1})

    def test_the_first_non_finite_margin_is_raised_after_every_chunk(self, monkeypatch):
        monkeypatch.setattr(verifiers, "TRIAL_CHUNK", 2)
        ran = []

        def run(level, ts):
            ran.append((level, list(ts)))
            return [float("nan") if (level, t) in ((1, 3), (2, 0)) else -1.0 for t in ts], {}, None

        with pytest.raises(NumericalError, match="margin nan at level 1, trial 3"):
            _run_trials("monotone", "f", run, (1, 2), 5, 1e-8, Rng(0))
        assert ran == [(1, [0, 1]), (1, [2, 3]), (1, [4]), (2, [0, 1]), (2, [2, 3]), (2, [4])]

    def test_an_error_of_a_later_chunk_comes_before_a_non_finite_margin(self, monkeypatch):
        monkeypatch.setattr(verifiers, "TRIAL_CHUNK", 2)

        def run(level, ts):
            errors = {1: SamplingError("later chunk")} if ts[0] == 4 else {}
            return [float("-inf")] * len(ts), errors, None

        with pytest.raises(SamplingError, match="later chunk"):
            _run_trials("monotone", "f", run, (1,), 6, 1e-8, Rng(0))

    @pytest.mark.parametrize("levels, trials", [((1,), 0), ((), 5)])
    def test_no_trial_is_a_value_error(self, levels, trials):
        with pytest.raises(ValueError):
            _run_trials("monotone", "f", lambda level, ts: [], levels, trials, 1e-8, Rng(0))

    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        # every trial of `inverse` fails; each chunk's sampled points stay alive
        # only while a trial of the chunk is the worst one so far
        monkeypatch.setattr(verifiers, "TRIAL_CHUNK", 3)
        refs, alive, sample = [], [], verifiers.sample_ordered_pair

        def spy(domain, level, rngs, errors=None):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            a, b = sample(domain, level, rngs, errors=errors)
            refs.append(weakref.ref(a))
            return a, b

        monkeypatch.setattr(verifiers, "sample_ordered_pair", spy)
        rep = check_monotone(catalog("inverse"), levels=(1, 2), trials=60, rng=Rng(3))
        assert len(alive) == 40 and rep.failures == 120
        assert max(alive) <= 1
