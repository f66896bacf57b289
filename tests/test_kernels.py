import numpy as np
import pytest

from freemono.kernels import (
    BranchCutError,
    Rng,
    SingularMatrixError,
    SpectrumDomainError,
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


class TestMatrixJson:
    def test_round_trip(self):
        a = random_matrix("ginibre", 4, Rng(8))
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "entries": [[[1.0, 0.0]]]})
