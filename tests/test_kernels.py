import ast
import hashlib
import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import freemono
from freemono import kernels
from freemono.kernels import (
    COND_LIMIT,
    TOL_HERM,
    BranchCutError,
    EigensolverError,
    Rng,
    NonFiniteError,
    SingularMatrixError,
    SpectrumDomainError,
    _generators,
    _mix,
    _uniforms,
    func_calc,
    herm_eig,
    hermitize,
    imag_part,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    min_eig_h,
    op_norm,
    principal_sqrt,
    random_matrix,
    safe_inv,
    scaled_min_eig,
)


class TestImagPart:
    def test_imaginary_scalar(self):
        np.testing.assert_array_equal(imag_part([[1j]]), [[1.0]])

    def test_hermitian_gives_zero(self):
        a = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
        np.testing.assert_array_equal(imag_part(a), np.zeros((2, 2)))

    def test_hand_computed(self):
        a = np.array([[0.0, 2j], [0.0, 0.0]])
        np.testing.assert_allclose(imag_part(a), [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_zero_iff_hermitian_on_samples(self):
        rng = Rng(11)
        for t in range(100):
            h = random_matrix("hermitian", 4, rng.split("h", t))
            assert op_norm(imag_part(h)) <= 1e-12 * (1 + op_norm(h))
            g = random_matrix("ginibre", 4, rng.split("g", t))
            if not is_hermitian(g):
                assert op_norm(imag_part(g)) > 1e-12 * (1 + op_norm(g))

    def test_result_exactly_hermitian(self):
        g = random_matrix("ginibre", 5, Rng(3))
        b = imag_part(g)
        np.testing.assert_array_equal(b, b.conj().T)


class TestHermEig:
    def test_diagonal_input(self):
        w, u = herm_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])
        # columns are permuted unit vectors
        np.testing.assert_allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-14)

    def test_off_diagonal(self):
        w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_identity(self):
        w, _ = herm_eig(np.eye(5))
        np.testing.assert_allclose(w, np.ones(5))

    def test_reconstruction_and_unitarity(self):
        rng = Rng(5)
        for t in range(200):
            a = random_matrix("hermitian", 5, rng.split(t))
            w, u = herm_eig(a)
            scale = 1e-12 * (1 + op_norm(a))
            assert op_norm((u * w) @ u.conj().T - hermitize(a)) <= scale
            assert op_norm(u.conj().T @ u - np.eye(5)) <= 1e-12 * (1 + op_norm(a))
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMinEigH:
    def test_identity(self):
        assert min_eig_h(np.eye(3)) == pytest.approx(1.0)

    def test_boundary(self):
        assert min_eig_h(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_indefinite(self):
        assert min_eig_h(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)


class TestScaledMinEig:
    @staticmethod
    def _per_row(w):
        # the margin of each row of eigenvalues as a Python expression
        rows = w.reshape(-1, w.shape[-1]).tolist()
        return [r[0] / (1.0 + max(abs(r[0]), abs(r[-1]))) for r in rows]

    @pytest.mark.parametrize("rows", [0, 1, 256])
    @pytest.mark.parametrize("n", [1, 3])
    def test_equals_the_per_row_expression_bit_for_bit(self, rows, n):
        rng = np.random.default_rng(rows * 10 + n)
        a = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
        a = hermitize(a * np.exp(rng.uniform(-30.0, 30.0, (rows, 1, 1))))
        a[::7] *= 1e-300  # tiny spectra, some of them zero
        got = scaled_min_eig(a)
        want = np.array(self._per_row(np.linalg.eigvalsh(a)), dtype=float)
        assert got.shape == (rows,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 256])
    def test_spectra_with_signed_zeros_infinities_and_nans(self, monkeypatch, rows):
        # eigvalsh gives all-NaN rows for some non-finite input; both forms make them NaN
        rng = np.random.default_rng(rows)
        w = rng.standard_normal((rows, 3)) * np.exp(rng.uniform(-700.0, 700.0, (rows, 1)))
        w[1::5, 0] = -0.0
        w[2::5] = (-0.0, 0.0, 0.0)
        w[3::9, 0] = -np.inf
        w[6::9, -1] = np.inf
        w[::4] = np.nan
        w.sort(axis=1)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: w.copy())
        got = scaled_min_eig(np.zeros((rows, 3, 3)))
        want = np.array(self._per_row(w), dtype=float)
        nan = np.isnan(want)
        assert nan[0] and (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_one_matrix_gives_a_numpy_scalar(self):
        h = np.array([[2.0, 1j], [-1j, -3.0]])
        got = scaled_min_eig(h)
        assert type(got) is np.float64 and got == self._per_row(np.linalg.eigvalsh(h))[0]

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    def test_a_matrix_with_a_nan_entry_is_a_row_error(self, stacked):
        # LAPACK gives the 3x3 identity with a NaN at (0, 0) the spectrum
        # [0, -0, 1]: its margin would read 0.0, a pass within any tol
        bad = np.eye(3)
        bad[0, 0] = np.nan
        a = np.stack([np.diag([1.0, 2.0, 4.0]), bad]) if stacked else bad
        row = int(stacked)
        errors = {}
        got = scaled_min_eig(a, errors)
        assert list(errors) == [row] and type(errors[row]) is NonFiniteError
        assert str(errors[row]) == "matrix entries must all be finite"
        if stacked:
            assert got.shape == (2,) and got[0] == scaled_min_eig(a[0]) == 0.2
        with pytest.raises(NonFiniteError, match="must all be finite"):
            scaled_min_eig(a)


class TestPrincipalSqrt:
    def test_identity(self):
        np.testing.assert_allclose(principal_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_upper_triangular(self):
        root = principal_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
        np.testing.assert_allclose(root, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_scalar_2i(self):
        np.testing.assert_allclose(principal_sqrt([[2j]]), [[1 + 1j]], atol=1e-14)

    def test_reconstruction_on_samples(self):
        # pd and shifted-ginibre draws with spectra off the closed negative ray
        rng = Rng(17)
        for t in range(1000):
            n = 2 + t % 5
            if t % 2 == 0:
                a = random_matrix("pd", n, rng.split("pd", t))
            else:
                a = random_matrix("ginibre", n, rng.split("g", t)) + (3.0 + 3.0j) * np.eye(n)
            root = principal_sqrt(a)
            assert op_norm(root @ root - a) <= 1e-10 * (1 + op_norm(a))
            assert np.all(np.linalg.eigvals(root).real > 0)

    def test_halfplane_preserved(self):
        # Im A > 0 forces Im sqrt(A) > 0
        rng = Rng(23)
        for t in range(1000):
            n = 2 + t % 4
            h = random_matrix("hermitian", n, rng.split("h", t))
            k = random_matrix("pd", n, rng.split("k", t))
            root = principal_sqrt(h + 1j * k)
            assert min_eig_h(imag_part(root)) > 0

    def test_branch_cut_negative_eigenvalue(self):
        with pytest.raises(BranchCutError):
            principal_sqrt(np.diag([1.0, -1.0]))

    def test_branch_cut_zero(self):
        with pytest.raises(BranchCutError):
            principal_sqrt(np.zeros((2, 2)))

    def test_branch_cut_near_ray(self):
        with pytest.raises(BranchCutError):
            principal_sqrt(np.array([[-1.0 + 1e-14j, 0.0], [0.0, 1.0]]))


class TestFuncCalc:
    def test_sqrt_diagonal(self):
        out = func_calc(np.sqrt, np.diag([1.0, 4.0]), (0, np.inf))
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-14)

    def test_square_rank_one(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = func_calc(lambda x: x ** 2, a)
        np.testing.assert_allclose(out, 2 * a, atol=1e-13)

    def test_identity_function(self):
        a = hermitize(random_matrix("hermitian", 4, Rng(2)))
        np.testing.assert_allclose(func_calc(lambda x: x, a), a, atol=1e-13)

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(SpectrumDomainError, match="-1.0"):
            func_calc(np.sqrt, np.diag([-1.0, 1.0]), (0, np.inf))

    def test_compose_sqrt_of_square(self):
        rng = Rng(31)
        for t in range(200):
            a = random_matrix("pd", 4, rng.split(t))
            b = func_calc(np.sqrt, func_calc(lambda x: x ** 2, a), (0, np.inf))
            assert op_norm(b - hermitize(a)) <= 1e-9 * (1 + op_norm(a))

    def test_commutes_with_unitary_conjugation(self):
        rng = Rng(37)
        for t in range(100):
            a = random_matrix("pd", 4, rng.split("a", t))
            u = random_matrix("unitary", 4, rng.split("u", t))
            lhs = func_calc(np.sqrt, u.conj().T @ a @ u, (0, np.inf))
            rhs = u.conj().T @ func_calc(np.sqrt, a, (0, np.inf)) @ u
            assert op_norm(lhs - rhs) <= 1e-9 * (1 + op_norm(a))


class TestRandomMatrix:
    def test_hermitian_kind(self):
        a = random_matrix("hermitian", 5, Rng(1))
        assert is_hermitian(a)

    def test_pd_kind_margin(self):
        for t in range(50):
            a = random_matrix("pd", 4, Rng(1).split(t))
            assert is_hermitian(a)
            assert min_eig_h(a) >= 0.1 - 1e-10

    def test_unitary_kind(self):
        for t in range(50):
            u = random_matrix("unitary", 5, Rng(2).split(t))
            assert op_norm(u.conj().T @ u - np.eye(5)) <= 1e-12

    def test_psd_kind(self):
        a = random_matrix("psd", 4, Rng(3))
        assert is_hermitian(a)
        assert min_eig_h(a) >= -1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_matrix("cauchy", 3, Rng(0))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            random_matrix("ginibre", 0, Rng(0))


class TestRng:
    def test_reproducible(self):
        a = random_matrix("ginibre", 6, Rng(99, 5))
        b = random_matrix("ginibre", 6, Rng(99, 5))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = random_matrix("ginibre", 6, Rng(99).split("x"))
        b = random_matrix("ginibre", 6, Rng(99).split("y"))
        assert op_norm(a - b) > 1e-3

    def test_split_deterministic(self):
        assert Rng(4).split("a", 1) == Rng(4).split("a", 1)
        assert Rng(4).split("a", 1) != Rng(4).split("a", 2)

    def test_one_philox_draws_every_row(self):
        # every sampler draws through kernels._uniforms on the one module-level
        # Philox; Rng.generator builds the reference stream and nothing in src calls it
        def calls(node, scope):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr in ("Philox", "Generator", "generator")):
                    yield scope + (child.func.attr,)
                named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                yield from calls(child, scope + (child.name,) if named else scope)

        src = Path(freemono.__file__).parent
        found = sorted((path.stem, *scope) for path in sorted(src.glob("*.py"))
                       for scope in calls(ast.parse(path.read_text()), ()))
        assert found == [("kernels", "Generator"), ("kernels", "Philox"),
                         ("kernels", "Rng", "generator", "Generator"),
                         ("kernels", "Rng", "generator", "Philox")]


def _mix_two_updates(*parts) -> int:
    # the stream digest as first written: two updates per part
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


_EDGE_TAGS = [0, -1, 2**64, 2**200, -(2**200), "", "\u00e9", "\u65e5\u672c", "a\x1fb", "\x1f",
              "monotone", 1.5]
_TAG = st.one_of(st.sampled_from(_EDGE_TAGS), st.integers(), st.text())


class TestStreamPrefix:
    """``Rng.split_each`` hashes a chunk's shared prefix once, with the digests of ``split``."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           tags=st.lists(_TAG, max_size=4), ts=st.lists(_TAG, max_size=6))
    def test_split_each_is_split_per_trial(self, seed, stream, tags, ts):
        rng = Rng(seed, stream)
        assert rng.split_each(ts, *tags) == [rng.split(*tags, t) for t in ts]

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(parts=st.lists(_TAG, max_size=6))
    def test_one_update_is_the_two_update_digest(self, parts):
        assert _mix(*parts) == _mix_two_updates(*parts)

    @pytest.mark.parametrize("tag", _EDGE_TAGS)
    def test_edge_tags(self, tag):
        rng = Rng(42, 2**64 - 1)
        assert rng.split_each(range(3), tag) == [rng.split(tag, t) for t in range(3)]
        assert rng.split_each([tag, tag], "x", tag) == [rng.split("x", tag, tag)] * 2
        assert _mix(tag, "x", tag) == _mix_two_updates(tag, "x", tag)

    def test_no_trials(self):
        assert Rng(1).split_each([], "monotone", "square", 2) == []
        assert Rng(1).split_each(range(0)) == []

    def test_a_chunk_of_a_level(self):
        # what the checks pass: a range of trial indices after the tags
        rng = Rng(7).split("attempt", 3)
        assert rng.split_each(range(256, 512), "monotone", "square", 2) == [
            rng.split("monotone", "square", 2, t) for t in range(256, 512)]


def _reference_draws(rngs, plan):
    # what NumPy's Philox gives, one generator per row: each step of ``plan``
    # is (rows, count)
    gens = [r.generator() for r in rngs]
    return [np.reshape([gens[i].random(count) for i in rows], (len(rows), count))
            for rows, count in plan]


def _draws(rngs, plan):
    streams, _ = _generators(rngs)
    return [_uniforms([streams[i] for i in rows], count) for rows, count in plan]


def _plan(rs, rows, steps):
    # random row subsets in random order, with counts 0..40 (so offsets that
    # are not multiples of 4), and some empty stacks
    return [(rs.permutation(rows)[:rs.integers(0, rows + 1)].tolist(), int(rs.integers(0, 41)))
            for _ in range(steps)]


class TestDraws:
    EDGES = (0, 1, 2**63, 2**64 - 1, 2**64, -1)  # the last two wrap to 0 and 2**64 - 1

    def test_rows_draw_the_reference_stream_bit_for_bit(self):
        rs = np.random.default_rng(20261019)

        def word():  # a seed or stream: random 64 bits, or an edge one time in five
            if rs.random() < 0.2:
                return int(rs.choice(self.EDGES))
            return int(rs.integers(2**64, dtype=np.uint64))

        for _ in range(300):
            rngs = [Rng(word(), word()) for _ in range(int(rs.integers(0, 7)))]
            plan = _plan(rs, len(rngs), 6)
            for got, want in zip(_draws(rngs, plan), _reference_draws(rngs, plan)):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_threads_drawing_at_once_get_the_serial_draws(self):
        # the one Philox is shared, so a draw must not see another thread's state
        rs = np.random.default_rng(5)
        plan = _plan(rs, 6, 200)
        rngs = [[Rng(seed, stream) for stream in range(6)] for seed in range(4)]
        want = [_draws(r, plan) for r in rngs]
        got = [None] * len(rngs)

        def run(t):
            got[t] = _draws(rngs[t], plan)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,), daemon=True)
                       for t in range(len(rngs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for g, w in zip(got, want):
            assert g is not None
            for a, b in zip(g, w):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_src_takes_no_schur_form_from_scipy_linalg_schur():
    # a Schur form comes from LAPACK's gees, one call per matrix: the
    # scipy.linalg.schur wrapper adds a workspace query, a second gees call
    def name(node):
        if isinstance(node, ast.Attribute):
            return f"{name(node.value)}.{node.attr}"
        return getattr(node, "id", "")

    src = Path(freemono.__file__).parent
    found = [(path.stem, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and name(node.func).split(".")[-1] == "schur"
             or isinstance(node, ast.ImportFrom) and any(a.name == "schur" for a in node.names)]
    assert found == []


def _svd_rule_inv(a, errors=None):
    # safe_inv as it was before the certificate: the singular values of every row
    a, lead = kernels.as_stack(a)
    errs = {}
    a = kernels.finite_rows(a, errs)
    sv = np.linalg.svd(a, compute_uv=False)
    bad = [row for row, (lo, hi) in enumerate(zip(sv[:, -1].tolist(), sv[:, 0].tolist()))
           if lo <= 0.0 or not math.isfinite(hi) or hi / lo > COND_LIMIT]
    if bad:
        for row in bad:
            errs[row] = SingularMatrixError("condition estimate exceeds 1e12; inverse not trusted")
        a = a.copy()
        a[bad] = np.eye(a.shape[-1])
    kernels.settle(errs, errors)
    return np.linalg.inv(a).reshape(lead + a.shape[1:])


def _outcome(inv, a):
    # the bits of inv(a), or the type and text of what it raises
    try:
        return inv(a).tobytes()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def _with_singular_values(s, seed):
    u, v = (random_matrix("unitary", len(s), Rng(seed).split(side)) for side in "uv")
    return (u * np.asarray(s)) @ v.conj().T


N = 3
_ROWS = {  # name -> a 3-by-3 matrix; the band rows have kappa_2 near COND_LIMIT
    **{f"well{i}": random_matrix("ginibre", N, Rng(11).split(i)) + 3.0 * np.eye(N)
       for i in range(4)},
    "diagonal": np.diag([2.0, 4.0, 8.0]).astype(complex),
    "band_1e11": _with_singular_values([1.0, 0.5, 1e-11], 1),
    "just_under": _with_singular_values([1.0, 0.3, 1.01e-12], 2),
    "just_over": _with_singular_values([1.0, 0.3, 0.99e-12], 3),
    "just_under_large": _with_singular_values([3e5, 1.0, 3e5 * 1.01e-12], 4),
    "just_over_large": _with_singular_values([3e5, 1.0, 3e5 * 0.99e-12], 5),
    "near_singular": np.diag([1.0, 1.0, 1e-15]).astype(complex),
    "exactly_singular": np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]], dtype=complex),
    "zero": np.zeros((N, N), dtype=complex),
    "nan": np.where(np.eye(N) > 0, np.nan, 0.0).astype(complex),
    "inf": np.full((N, N), np.inf, dtype=complex),
}
_BAND = ("band_1e11", "just_under", "just_over", "just_under_large", "just_over_large")


class TestSafeInv:
    def test_inverse(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(safe_inv(a), np.diag([0.5, 0.25]))

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            safe_inv(np.zeros((2, 2)))

    def test_near_singular(self):
        with pytest.raises(SingularMatrixError):
            safe_inv(np.diag([1.0, 1e-15]))

    def test_the_band_rows_straddle_the_limit(self):
        for name in _BAND:
            sv = np.linalg.svd(_ROWS[name], compute_uv=False)
            kappa = sv[0] / sv[-1]
            assert COND_LIMIT / 16 < kappa < 2 * COND_LIMIT
            assert (kappa > COND_LIMIT) == name.startswith("just_over"), name

    @pytest.mark.parametrize("name", _ROWS)
    def test_each_row_alone_as_the_svd_rule(self, name):
        a = _ROWS[name]
        assert _outcome(safe_inv, a) == _outcome(_svd_rule_inv, a)

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_stacks_as_the_svd_rule(self, seed):
        # a random selection of the rows, in random order, with repeats: the
        # same bits and the same row errors as the SVD rule, and each row
        # what it gets alone
        rs = np.random.default_rng(seed)
        names = list(_ROWS)
        picked = [names[i] for i in rs.integers(0, len(names), size=rs.integers(1, 12))]
        a = np.stack([_ROWS[name] for name in picked])
        errors, ref_errors = {}, {}
        out, ref = safe_inv(a, errors), _svd_rule_inv(a, ref_errors)
        assert out.tobytes() == ref.tobytes()
        assert {row: (type(e), str(e)) for row, e in errors.items()} == {
            row: (type(e), str(e)) for row, e in ref_errors.items()}
        for row, name in enumerate(picked):
            alone = _outcome(safe_inv, _ROWS[name])
            assert alone == (out[row].tobytes() if row not in errors
                             else (type(errors[row]), str(errors[row])))
        assert _outcome(safe_inv, a) == _outcome(_svd_rule_inv, a)
        lead = a.reshape((1, len(a), N, N))
        assert safe_inv(lead, {}).tobytes() == out.tobytes() and safe_inv(lead, {}).shape == lead.shape

    def test_empty_stack(self):
        a = np.zeros((0, N, N), dtype=complex)
        errors = {}
        out = safe_inv(a, errors)
        assert out.shape == (0, N, N) and errors == {}
        assert out.tobytes() == _svd_rule_inv(a).tobytes()

    def test_errors_of_the_failed_rows(self):
        names = ["well0", "just_over", "nan", "exactly_singular", "just_under", "zero"]
        errors = {}
        out = safe_inv(np.stack([_ROWS[name] for name in names]), errors)
        assert {row: type(e) for row, e in errors.items()} == {
            1: SingularMatrixError, 2: NonFiniteError, 3: SingularMatrixError,
            5: SingularMatrixError}
        for row in errors:
            np.testing.assert_array_equal(out[row], np.eye(N))

    def test_only_uncertified_rows_take_an_svd(self, monkeypatch):
        well = np.stack([random_matrix("ginibre", 4, Rng(12).split(t)) + 4.0 * np.eye(4)
                         for t in range(256)])
        mixed = np.stack([_ROWS[name] for name in
                          ("well0", "just_under", "well1", "just_over", "diagonal", "nan")])
        svd, calls = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        safe_inv(well)
        safe_inv(well[0])
        safe_inv(well[:0])
        assert calls == []  # a well-conditioned stack takes no SVD
        safe_inv(mixed, {})
        assert calls == [(2, N, N)]  # the two band rows; the NaN row inverts the identity
        calls.clear()
        safe_inv(np.stack([_ROWS["well0"], _ROWS["exactly_singular"]]), {})
        assert calls == [(2, N, N)]  # an exactly singular row: every row takes the test


class TestMatrixJson:
    def test_round_trip(self):
        a = random_matrix("ginibre", 4, Rng(8))
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "entries": [[[1.0, 0.0]]]})

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError, match="matrix size must be at least 1"):
            matrix_from_json({"n": 0, "entries": []})

    @pytest.mark.parametrize("n", [True, 1.0, 1.9, "1", None])
    def test_size_must_be_a_json_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"'n' must be an integer, got {n!r}")):
            matrix_from_json({"n": n, "entries": [[[1.0, 0.0]]]})


def _svd_is_hermitian(a):
    # The tolerance predicate ``is_hermitian`` reduces to, via numpy's 2-norm.
    return np.linalg.norm(a - a.conj().T, 2) <= TOL_HERM * (1.0 + np.linalg.norm(a, 2))


class TestExactShortcuts:
    """``op_norm`` and ``is_hermitian`` give the answers of their plain forms exactly."""

    def test_op_norm_equals_numpy_two_norm(self):
        rng = Rng(21)
        for t in range(200):
            n = 1 + t % 8
            for kind in ("ginibre", "hermitian"):
                a = random_matrix(kind, n, rng.split(kind, t))
                assert op_norm(a) == np.linalg.norm(a, 2)

    def test_op_norm_of_empty_matrix(self):
        empty = np.zeros((0, 0), dtype=np.complex128)
        assert op_norm(empty) == np.linalg.norm(empty, 2) == 0.0

    def test_is_hermitian_agrees_with_svd_predicate(self):
        rng = Rng(22)
        for t in range(100):
            n = 1 + t % 6
            h = random_matrix("hermitian", n, rng.split("h", t))
            g = random_matrix("ginibre", n, rng.split("g", t))
            near, far = h + 1e-14 * g, h + 1e-6 * g
            assert is_hermitian(h) and _svd_is_hermitian(h)
            assert not np.array_equal(near, near.conj().T)
            assert is_hermitian(near) and _svd_is_hermitian(near)
            assert not is_hermitian(far) and not _svd_is_hermitian(far)

    def test_is_hermitian_checks_finiteness_first(self):
        with pytest.raises(ValueError, match="finite"):
            is_hermitian(np.full((2, 2), np.nan))


class TestStacks:
    """A stack of matrices gets, row by row, what each matrix gets alone."""

    @staticmethod
    def _rows():
        rng = Rng(23)
        pd = [random_matrix("pd", 3, rng.split("pd", t)) for t in range(3)]
        upper = [random_matrix("ginibre", 3, rng.split("g", t)) + 4j * np.eye(3) for t in range(2)]
        neg = -random_matrix("pd", 3, rng.split("neg"))
        return [pd[0], upper[0], neg, pd[1], np.zeros((3, 3)), upper[1], pd[2]]

    @staticmethod
    def _alone(kernel, m):
        try:
            return kernel(m)
        except Exception as exc:  # the row error the stack must report
            return type(exc), str(exc)

    @pytest.mark.parametrize("kernel", [principal_sqrt, safe_inv], ids=lambda k: k.__name__)
    def test_rows_match_single_calls_bit_for_bit(self, kernel):
        rows = self._rows()
        rows[3] = rows[3].copy()
        rows[3][0, 1] = np.inf
        errors = {}
        got = kernel(np.stack(rows), errors)
        for i, m in enumerate(rows):
            want = self._alone(kernel, m)
            if isinstance(want, tuple):
                assert (type(errors[i]), str(errors[i])) == want
                assert np.isfinite(got[i]).all()  # a finite stand-in
            else:
                assert i not in errors and got[i].tobytes() == want.tobytes()
        assert set(errors) == {i for i, m in enumerate(rows) if isinstance(self._alone(kernel, m), tuple)}

    def test_without_errors_the_lowest_failing_row_raises(self):
        rows = self._rows()
        with pytest.raises(BranchCutError, match="eigenvalue -"):  # row 2, not row 4's 0.0
            principal_sqrt(np.stack(rows))
        with pytest.raises(SingularMatrixError):
            safe_inv(np.stack(rows))

    def test_a_rows_first_error_is_kept(self):
        errors = {1: ValueError("earlier")}
        safe_inv(np.stack([np.eye(2), np.zeros((2, 2))]), errors)
        assert list(errors) == [1] and str(errors[1]) == "earlier"

    def test_an_eigensolver_failure_is_a_row_error(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def fails_on_marked(a):  # a matrix with 7 in its corner does not converge
            if (np.asarray(a)[..., 0, 0] == 7.0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        rows = [hermitize(random_matrix("hermitian", 3, Rng(24).split(t))) for t in range(4)]
        rows[2][0, 0] = 7.0
        want = [scaled_min_eig(m) for m in rows[:2] + rows[3:]]
        monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_marked)
        errors = {}
        got = scaled_min_eig(np.stack(rows), errors)
        assert list(errors) == [2] and isinstance(errors[2], EigensolverError)
        assert [got[0], got[1], got[3]] == want
        with pytest.raises(EigensolverError, match="did not converge"):
            scaled_min_eig(np.stack(rows))
