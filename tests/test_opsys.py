import json

import numpy as np
import pytest

from freemono.kernels import Rng, SamplingError, SingularMatrixError, imag_part, min_eig_h, op_norm, random_matrix
from freemono.opsys import (
    DomainSpec,
    NCPoint,
    NotInImageError,
    builtin_system,
    conjugate,
    decode,
    direct_sum,
    full_domain,
    half_plane,
    identity_point,
    im_point,
    in_domain,
    is_hermitian_point,
    order_leq,
    pd_cone,
    point_from_json,
    point_to_json,
    realize,
    sample_halfplane,
    sample_hermitian_point,
    sample_ordered_pair,
    sample_point,
    shuffle_permutation,
    spectral_interval,
    system_from_json,
    system_to_json,
    zero_point,
)

SYSTEMS = ("scalar", "diagonal(2)", "diagonal(3)", "block2")


def _mat(values):
    return np.asarray(values, dtype=np.complex128)


def _point(system, *scalars):
    return NCPoint(system, tuple(_mat([[v]]) for v in scalars))


class TestBuiltinSystems:
    def test_scalar(self):
        sys_ = builtin_system("scalar")
        assert sys_.size == 1 and sys_.k == 1
        assert sys_.id_coeffs == (1.0,)

    def test_diagonal(self):
        sys_ = builtin_system("diagonal(3)")
        assert sys_.size == 3 and sys_.k == 3
        assert sys_.id_coeffs == (1.0, 1.0, 1.0)

    def test_block2(self):
        sys_ = builtin_system("block2")
        assert sys_.size == 4 and sys_.k == 2
        assert sys_.id_coeffs == (1.0, 1.0, 0.0, 0.0)
        ident = sum(c * e for c, e in zip(sys_.id_coeffs, sys_.basis))
        np.testing.assert_array_equal(ident, np.eye(2))

    def test_unknown(self):
        with pytest.raises(ValueError):
            builtin_system("octonions")


class TestRealize:
    def test_scalar_embedding(self):
        sys_ = builtin_system("scalar")
        a = random_matrix("ginibre", 3, Rng(1))
        np.testing.assert_array_equal(realize(NCPoint(sys_, (a,))), a)

    def test_diagonal_blockdiag(self):
        sys_ = builtin_system("diagonal(2)")
        a = random_matrix("ginibre", 2, Rng(2).split(0))
        b = random_matrix("ginibre", 2, Rng(2).split(1))
        m = realize(NCPoint(sys_, (a, b)))
        np.testing.assert_array_equal(m[:2, :2], a)
        np.testing.assert_array_equal(m[2:, 2:], b)
        assert op_norm(m[:2, 2:]) == 0 and op_norm(m[2:, :2]) == 0

    def test_block2_level_one(self):
        sys_ = builtin_system("block2")
        p = _point(sys_, 1.0, 2.0, 3.0, 4.0)
        np.testing.assert_allclose(realize(p), [[1.0, 3 + 4j], [3 - 4j, 2.0]])


class TestDecode:
    def test_block2_hand_example(self):
        sys_ = builtin_system("block2")
        p = decode(_mat([[1.0, 1j], [-1j, 2.0]]), sys_, 1)
        got = [c[0, 0] for c in p.coeffs]
        np.testing.assert_allclose(got, [1.0, 2.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_round_trip(self, name):
        sys_ = builtin_system(name)
        rng = Rng(12)
        for t in range(500):
            n = 1 + t % 4
            p = NCPoint(sys_, tuple(
                random_matrix("ginibre", n, rng.split(name, t, j))
                for j in range(sys_.size)))
            m = realize(p)
            q = decode(m, sys_, n)
            for a, b in zip(p.coeffs, q.coeffs):
                assert op_norm(a - b) <= 1e-10 * (1 + op_norm(a))
            # image matrices reassemble exactly up to the decode tolerance
            assert op_norm(realize(q) - m) <= 1e-10 * (1 + op_norm(m))

    def test_not_in_image(self):
        sys_ = builtin_system("diagonal(2)")
        off = np.zeros((4, 4), dtype=complex)
        off[0, 2] = 1.0  # off-block entry cannot come from a diagonal system
        with pytest.raises(NotInImageError):
            decode(off, sys_, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode(np.eye(3), builtin_system("block2"), 1)


class TestHermitianPoint:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_agrees_with_realization(self, name):
        sys_ = builtin_system(name)
        rng = Rng(21)
        from freemono.kernels import is_hermitian
        for t in range(125):
            n = 1 + t % 3
            p = sample_hermitian_point(sys_, n, rng.split(name, t))
            assert is_hermitian_point(p)
            assert is_hermitian(realize(p))
            g = NCPoint(sys_, tuple(
                random_matrix("ginibre", n, rng.split("g", name, t, j))
                for j in range(sys_.size)))
            assert is_hermitian_point(g) == is_hermitian(realize(g))

    def test_non_hermitian_slot(self):
        sys_ = builtin_system("scalar")
        assert not is_hermitian_point(_point(sys_, 1j))


class TestOrder:
    def test_zero_leq_identity(self):
        sys_ = builtin_system("block2")
        assert order_leq(zero_point(sys_, 2), identity_point(sys_, 2))

    def test_block2_hand_pair(self):
        sys_ = builtin_system("block2")
        p = _point(sys_, 1.0, 1.0, 0.0, 0.0)
        q = _point(sys_, 2.0, 1.0, 0.0, 0.0)
        assert order_leq(p, q)
        assert not order_leq(q, p, tol=1e-10)

    def test_diagonal_is_coordinatewise(self):
        sys_ = builtin_system("diagonal(2)")
        rng = Rng(31)
        for t in range(200):
            n = 1 + t % 3
            p = sample_hermitian_point(sys_, n, rng.split("p", t))
            q = sample_hermitian_point(sys_, n, rng.split("q", t))
            coordwise = all(
                min_eig_h(np.asarray(b - a)) >= -1e-8 * (1 + op_norm(b - a))
                for a, b in zip(p.coeffs, q.coeffs))
            assert order_leq(p, q) == coordwise

    def test_unitary_invariance(self):
        sys_ = builtin_system("block2")
        rng = Rng(41)
        for t in range(200):
            n = 2
            p, q = sample_ordered_pair(pd_cone(sys_), n, rng.split("pair", t))
            u = random_matrix("unitary", n, rng.split("u", t))
            assert order_leq(conjugate(p, u), conjugate(q, u))

    def test_requires_hermitian(self):
        sys_ = builtin_system("scalar")
        with pytest.raises(ValueError):
            order_leq(_point(sys_, 1j), _point(sys_, 2j))


class TestDirectSum:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_shuffle_identity_exact(self, name):
        sys_ = builtin_system(name)
        rng = Rng(51)
        for t in range(50):
            n, m = 1 + t % 3, 1 + (t // 3) % 3
            p = NCPoint(sys_, tuple(
                random_matrix("ginibre", n, rng.split("p", name, t, j))
                for j in range(sys_.size)))
            q = NCPoint(sys_, tuple(
                random_matrix("ginibre", m, rng.split("q", name, t, j))
                for j in range(sys_.size)))
            stacked = np.zeros((sys_.k * (n + m),) * 2, dtype=complex)
            rp, rq = realize(p), realize(q)
            stacked[:sys_.k * n, :sys_.k * n] = rp
            stacked[sys_.k * n:, sys_.k * n:] = rq
            perm = shuffle_permutation(sys_.k, n, m)
            np.testing.assert_array_equal(
                realize(direct_sum(p, q)), stacked[np.ix_(perm, perm)])

    def test_levels_add(self):
        sys_ = builtin_system("scalar")
        p = _point(sys_, 1.0)
        assert direct_sum(p, p).level == 2


class TestConjugate:
    def test_identity_matrix(self):
        sys_ = builtin_system("block2")
        p = sample_hermitian_point(sys_, 3, Rng(61))
        q = conjugate(p, np.eye(3))
        for a, b in zip(p.coeffs, q.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_unitary_preserves_hermitian(self):
        sys_ = builtin_system("diagonal(2)")
        p = sample_hermitian_point(sys_, 3, Rng(62))
        u = random_matrix("unitary", 3, Rng(63))
        assert is_hermitian_point(conjugate(p, u))

    def test_tensor_identity(self):
        sys_ = builtin_system("block2")
        rng = Rng(64)
        for t in range(50):
            n = 2 + t % 2
            p = sample_hermitian_point(sys_, n, rng.split("p", t))
            s = random_matrix("ginibre", n, rng.split("s", t)) + 2.0 * np.eye(n)
            big = np.kron(np.eye(sys_.k), s)
            lhs = realize(conjugate(p, s))
            rhs = np.linalg.inv(big) @ realize(p) @ big
            assert op_norm(lhs - rhs) <= 1e-9 * (1 + op_norm(rhs))

    def test_singular_raises(self):
        sys_ = builtin_system("scalar")
        p = _point(sys_, 1.0)
        with pytest.raises(SingularMatrixError):
            conjugate(p, np.zeros((1, 1)))


class TestDomains:
    def test_identity_in_pd_cone(self):
        sys_ = builtin_system("block2")
        assert in_domain(identity_point(sys_, 2), pd_cone(sys_))

    def test_zero_not_in_pd_cone(self):
        sys_ = builtin_system("block2")
        assert not in_domain(zero_point(sys_, 2), pd_cone(sys_))

    def test_i_identity_in_half_plane(self):
        sys_ = builtin_system("scalar")
        p = 1j * identity_point(sys_, 2)
        assert in_domain(p, half_plane(sys_))

    @pytest.mark.parametrize("kind", ["full", "pd_cone", "interval", "half_plane"])
    def test_closed_under_sums_and_conjugation(self, kind):
        sys_ = builtin_system("block2")
        dom = {
            "full": full_domain(sys_),
            "pd_cone": pd_cone(sys_),
            "interval": spectral_interval(sys_, -1.0, 6.0),
            "half_plane": half_plane(sys_),
        }[kind]
        rng = Rng(71)
        for t in range(50):
            n = 1 + t % 3
            p = sample_point(dom, n, rng.split(kind, "p", t))
            q = sample_point(dom, n, rng.split(kind, "q", t))
            assert in_domain(direct_sum(p, q), dom)
            u = random_matrix("unitary", n, rng.split(kind, "u", t))
            assert in_domain(conjugate(p, u), dom)


class TestSamplers:
    def test_ordered_pair_postcondition(self):
        sys_ = builtin_system("block2")
        dom = pd_cone(sys_)
        rng = Rng(81)
        for t in range(100):
            p, q = sample_ordered_pair(dom, 2, rng.split(t))
            assert order_leq(p, q, tol=0.0)
            assert in_domain(p, dom) and in_domain(q, dom)
            assert min_eig_h(realize(p)) > 0 and min_eig_h(realize(q)) > 0

    def test_interval_pairs_stay_inside(self):
        sys_ = builtin_system("scalar")
        dom = spectral_interval(sys_, 0.1, 10.0)
        rng = Rng(82)
        for t in range(100):
            p, q = sample_ordered_pair(dom, 3, rng.split(t))
            for point in (p, q):
                w = np.linalg.eigvalsh(point.coeffs[0])
                assert w[0] > 0.1 and w[-1] < 10.0

    def test_degenerate_pair(self):
        sys_ = builtin_system("scalar")
        p, q = sample_ordered_pair(pd_cone(sys_), 2, Rng(83), t_scale=0.0)
        np.testing.assert_array_equal(p.coeffs[0], q.coeffs[0])

    def test_budget_exhaustion(self):
        sys_ = builtin_system("scalar")
        dom = spectral_interval(sys_, 0.0, 1e-9)
        with pytest.raises(SamplingError):
            sample_point(dom, 2, Rng(84), budget=10)

    def test_halfplane_sampler(self):
        for name in SYSTEMS:
            sys_ = builtin_system(name)
            rng = Rng(85)
            for t in range(50):
                p = sample_halfplane(sys_, 1 + t % 3, rng.split(name, t))
                assert min_eig_h(imag_part(realize(p))) > 0

    def test_halfplane_scalar_level_one(self):
        p = sample_halfplane(builtin_system("scalar"), 1, Rng(86))
        assert p.coeffs[0][0, 0].imag > 0


class TestImPoint:
    def test_hermitian_gives_zero(self):
        sys_ = builtin_system("block2")
        p = sample_hermitian_point(sys_, 2, Rng(91))
        z = im_point(p)
        assert all(op_norm(c) <= 1e-14 for c in z.coeffs)

    def test_commutes_with_realize(self):
        rng = Rng(92)
        for name in SYSTEMS:
            sys_ = builtin_system(name)
            for t in range(250):
                n = 1 + t % 3
                p = NCPoint(sys_, tuple(
                    random_matrix("ginibre", n, rng.split(name, t, j))
                    for j in range(sys_.size)))
                np.testing.assert_allclose(
                    realize(im_point(p)), imag_part(realize(p)), atol=1e-13)

    def test_i_times_hermitian(self):
        sys_ = builtin_system("scalar")
        p = sample_hermitian_point(sys_, 3, Rng(93))
        q = im_point(1j * p)
        np.testing.assert_allclose(q.coeffs[0], p.coeffs[0], atol=1e-14)


class TestJsonEncodings:
    def test_point_round_trip(self):
        sys_ = builtin_system("block2")
        p = sample_hermitian_point(sys_, 2, Rng(96))
        doc = json.loads(json.dumps(point_to_json(p)))
        q = point_from_json(doc)
        for a, b in zip(p.coeffs, q.coeffs):
            np.testing.assert_array_equal(a, b)

    def test_system_round_trip(self):
        sys_ = builtin_system("block2")
        doc = json.loads(json.dumps(system_to_json(sys_)))
        back = system_from_json(doc)
        assert back.name == sys_.name and back.k == sys_.k
        for a, b in zip(sys_.basis, back.basis):
            np.testing.assert_array_equal(a, b)

    def test_point_json_names_system(self):
        sys_ = builtin_system("scalar")
        doc = point_to_json(_point(sys_, 1.0))
        with pytest.raises(ValueError):
            point_from_json(doc, builtin_system("block2"))


class TestValidation:
    def test_bad_basis_not_hermitian(self):
        from freemono.opsys import OpSysBasis
        with pytest.raises(ValueError):
            OpSysBasis("bad", 1, (_mat([[1j]]),), (1.0,))

    def test_dependent_basis(self):
        from freemono.opsys import OpSysBasis
        e = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            OpSysBasis("bad", 2, (e, e), (0.5, 0.5))

    def test_identity_not_in_span(self):
        from freemono.opsys import OpSysBasis
        e = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            OpSysBasis("bad", 2, (e,), (1.0,))

    def test_point_level_mismatch(self):
        sys_ = builtin_system("diagonal(2)")
        with pytest.raises(ValueError):
            NCPoint(sys_, (np.eye(1, dtype=complex), np.eye(2, dtype=complex)))

    def test_point_count_mismatch(self):
        sys_ = builtin_system("diagonal(2)")
        with pytest.raises(ValueError):
            NCPoint(sys_, (np.eye(2, dtype=complex),))
