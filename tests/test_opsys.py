import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freemono import kernels, opsys
from freemono.kernels import (
    TOL_PSD, NonFiniteError, Rng, SamplingError, SingularMatrixError, imag_part, min_eig_h,
    op_norm, random_matrix,
)
from freemono.opsys import (
    DomainSpec,
    NCPoint,
    NotInImageError,
    OpSysBasis,
    builtin_system,
    conjugate,
    decode,
    direct_sum,
    full_domain,
    identity_point,
    in_domain,
    is_hermitian_point,
    order_leq,
    pd_cone,
    point_from_json,
    point_to_json,
    realize,
    sample_halfplane,
    sample_ordered_pair,
    sample_point,
    shuffle_permutation,
    spectral_interval,
    system_from_json,
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
        for _ in range(2):  # a failed lookup is not remembered
            with pytest.raises(ValueError, match="unknown operator system"):
                builtin_system("octonions")

    @pytest.mark.parametrize("name", ["scalar", "block2", "diagonal(1)", "diagonal(2)",
                                      "diagonal(64)"])
    def test_one_shared_system_per_name(self, name):
        assert builtin_system(name) is builtin_system(name)

    @pytest.mark.parametrize("name", ["scalar", "block2", "diagonal(3)"])
    def test_a_caller_cannot_change_the_shared_system(self, name):
        sys_ = builtin_system(name)
        basis, dual = [e.copy() for e in sys_.basis], sys_.dual_basis.copy()
        terms, id_coeffs = sys_.terms, sys_.id_coeffs
        for arr in (*sys_.basis, sys_.dual_basis):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 7.0
        for field in ("name", "basis", "dual_basis", "terms"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sys_, field, None)
        other = dataclasses.replace(sys_, name="renamed")
        assert other is not sys_ and other.name == "renamed"
        assert builtin_system(name) is sys_ and sys_.name == name
        for e, before in zip(sys_.basis, basis, strict=True):
            np.testing.assert_array_equal(e, before)
        np.testing.assert_array_equal(sys_.dual_basis, dual)
        assert (sys_.terms, sys_.id_coeffs) == (terms, id_coeffs)


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

    def test_dual_frame_overflow_fails_its_row(self):
        # the basis [1e-150] has the dual frame [1e150], so the finite matrix
        # [1e160] decodes past the largest float
        tiny = OpSysBasis("tiny", 1, (1e-150 * np.eye(1),), (1e150,))
        m = _mat([[[2.0]], [[1e160]], [[3.0]]])
        errors = {}
        with np.errstate(over="ignore"):
            p = decode(m, tiny, 1, errors)
            with pytest.raises(NonFiniteError, match="matrix entries must all be finite"):
                decode(m[1], tiny, 1)
        assert list(errors) == [1] and type(errors[1]) is NonFiniteError
        assert p.coeffs[1].tobytes() == np.zeros((1, 1, 1), dtype=np.complex128).tobytes()
        for row in (0, 2):  # the other rows decode as alone
            assert p.coeffs[row].tobytes() == decode(m[row], tiny, 1).coeffs.tobytes()


class TestHermitianPoint:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_agrees_with_realization(self, name):
        sys_ = builtin_system(name)
        rng = Rng(21)
        from freemono.kernels import is_hermitian
        for t in range(125):
            n = 1 + t % 3
            p = sample_point(full_domain(sys_), n, rng.split(name, t))
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
        assert order_leq(0.0 * identity_point(sys_, 2), identity_point(sys_, 2))

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
            p = sample_point(full_domain(sys_), n, rng.split("p", t))
            q = sample_point(full_domain(sys_), n, rng.split("q", t))
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
        p = sample_point(full_domain(sys_), 3, Rng(61))
        q = conjugate(p, np.eye(3))
        for a, b in zip(p.coeffs, q.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_unitary_preserves_hermitian(self):
        sys_ = builtin_system("diagonal(2)")
        p = sample_point(full_domain(sys_), 3, Rng(62))
        u = random_matrix("unitary", 3, Rng(63))
        assert is_hermitian_point(conjugate(p, u))

    def test_tensor_identity(self):
        sys_ = builtin_system("block2")
        rng = Rng(64)
        for t in range(50):
            n = 2 + t % 2
            p = sample_point(full_domain(sys_), n, rng.split("p", t))
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
        assert not in_domain(0.0 * identity_point(sys_, 2), pd_cone(sys_))

    def test_named_domains_are_open_intervals(self):
        sys_ = builtin_system("scalar")
        for dom, want in ((full_domain(sys_), (-np.inf, np.inf)), (pd_cone(sys_), (0.0, np.inf)),
                          (spectral_interval(sys_, -1, 6), (-1.0, 6.0))):
            assert (dom.a, dom.b) == want and dom.system is sys_

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 1.0), (np.nan, 1.0), (0.0, np.nan)])
    def test_empty_or_nan_interval_is_rejected(self, a, b):
        sys_ = builtin_system("scalar")
        for make in (DomainSpec, spectral_interval):
            with pytest.raises(ValueError, match="a < b"):
                make(sys_, a, b)

    @pytest.mark.parametrize("make", [
        full_domain, pd_cone, lambda s: spectral_interval(s, -1.0, 6.0),
    ], ids=["full", "pd_cone", "interval"])
    def test_every_domain_requires_a_hermitian_point(self, make):
        # the Hermitian part has spectrum {1.5, 2.5}, inside each interval
        sys_ = builtin_system("scalar")
        p = NCPoint(sys_, (_mat([[2.0, 1.0], [0.0, 2.0]]),))
        assert not in_domain(p, make(sys_))
        assert in_domain(NCPoint(sys_, (_mat([[2.0, 0.5], [0.5, 2.0]]),)), make(sys_))

    @pytest.mark.parametrize("kind", ["full", "pd_cone", "interval"])
    def test_closed_under_sums_and_conjugation(self, kind):
        sys_ = builtin_system("block2")
        dom = {
            "full": full_domain(sys_),
            "pd_cone": pd_cone(sys_),
            "interval": spectral_interval(sys_, -1.0, 6.0),
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

    def test_budget_exhaustion(self, monkeypatch):
        sys_ = builtin_system("scalar")
        dom = spectral_interval(sys_, 0.0, 1e-9)
        monkeypatch.setattr(opsys, "SAMPLE_BUDGET", 10)
        with pytest.raises(SamplingError):
            sample_point(dom, 2, Rng(84))

    def test_point_sampler_takes_the_shape_of_its_rngs(self):
        # one Rng draws one point, an array of them a stack of that shape
        dom = pd_cone(builtin_system("diagonal(2)"))
        rngs = [[Rng(1), Rng(2), Rng(3)], [Rng(4), Rng(5), Rng(6)]]
        stack = sample_point(dom, 2, rngs)
        assert stack.coeffs.shape == (2, 3, 2, 2, 2)
        for i, row in enumerate(rngs):
            for j, r in enumerate(row):
                np.testing.assert_array_equal(stack.coeffs[i, j], sample_point(dom, 2, r).coeffs)
        assert sample_point(dom, 2, (Rng(1),)).coeffs.shape == (1, 2, 2, 2)

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
    def test_commutes_with_realize(self):
        # the basis is self-adjoint, so the coefficientwise imaginary part
        # realizes to the imaginary part of the realization
        rng = Rng(92)
        for name in SYSTEMS:
            sys_ = builtin_system(name)
            for t in range(250):
                n = 1 + t % 3
                p = NCPoint(sys_, tuple(
                    random_matrix("ginibre", n, rng.split(name, t, j))
                    for j in range(sys_.size)))
                im = NCPoint(sys_, tuple(imag_part(a) for a in p.coeffs))
                np.testing.assert_allclose(realize(im), imag_part(realize(p)), atol=1e-13)


class TestJsonEncodings:
    def test_point_round_trip(self):
        sys_ = builtin_system("block2")
        p = sample_point(full_domain(sys_), 2, Rng(96))
        doc = json.loads(json.dumps(point_to_json(p)))
        q = point_from_json(doc)
        for a, b in zip(p.coeffs, q.coeffs):
            np.testing.assert_array_equal(a, b)

    def test_system_round_trip(self):
        sys_ = builtin_system("block2")
        basis = ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]])
        doc = {"k": 2, "basis": [{"n": 2, "entries": [[[complex(v).real, complex(v).imag]
                                                       for v in row] for row in e]}
                                 for e in basis],
               "id_coeffs": [1.0, 1.0, 0.0, 0.0], "name": "block2"}
        back = system_from_json(json.loads(json.dumps(doc)))
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


def _kron_realize(point):
    # Reference: the plain kron sum that ``realize`` must reproduce bit for bit.
    return sum(np.kron(e, a) for e, a in zip(point.system.basis, point.coeffs))


def _dense_system():
    # A user system whose basis has dense, non-integer entries.
    rng = Rng(31)
    h = [random_matrix("hermitian", 2, rng.split(j)) for j in range(3)]
    fourth = (np.eye(2) - 0.5 * h[0]) / 0.3
    return OpSysBasis("dense2", 2, (*h, fourth), (0.5, 0.0, 0.0, 0.3))


class TestBitExact:
    """The fast kernels give the plain kernels' values exactly, down to signed zeros."""

    @pytest.mark.parametrize("name", ("scalar", "diagonal(3)", "block2", "dense"))
    def test_realize_equals_kron_sum(self, name):
        sys_ = _dense_system() if name == "dense" else builtin_system(name)
        rng = Rng(32)
        for level in range(1, 5):
            for t in range(12):
                coeffs = [random_matrix("ginibre", level, rng.split(name, level, t, j))
                          for j in range(sys_.size)]
                if t % 3 == 0:  # signed zeros in every coefficient
                    for a in coeffs:
                        a[0, :] = -0.0 * a[0, :]
                        a[:, -1] = a[:, -1].real * 0.0
                p = NCPoint(sys_, coeffs)
                got, want = realize(p), _kron_realize(p)
                np.testing.assert_array_equal(got, want)
                for part in (np.real, np.imag):
                    np.testing.assert_array_equal(np.signbit(part(got)), np.signbit(part(want)))

    def test_decode_still_rejects_off_image(self):
        sys_ = builtin_system("diagonal(2)")
        m = realize(sample_point(full_domain(sys_), 2, Rng(33))).copy()
        m[0:2, 2:4] += 0.5  # a nonzero off-diagonal block
        with pytest.raises(NotInImageError):
            decode(m, sys_, 2)

    def test_point_rejects_non_finite_coefficient(self):
        sys_ = builtin_system("diagonal(2)")
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = complex(0.0, np.inf)
        with pytest.raises(NonFiniteError, match="finite"):
            NCPoint(sys_, (np.eye(2), bad))

    def test_point_coefficients_are_read_only(self):
        sys_ = builtin_system("block2")
        source = [np.eye(2, dtype=complex) for _ in range(sys_.size)]
        p = NCPoint(sys_, source)
        assert p.coeffs.shape == (4, 2, 2) and not p.coeffs.flags.writeable
        with pytest.raises(ValueError):
            p.coeffs[0][0, 0] = 2.0
        source[0][0, 0] = 2.0  # the point holds a copy
        assert p.coeffs[0][0, 0] == 1.0
        assert len(p.coeffs) == 4 and all(a.shape == (2, 2) for a in p.coeffs)

    def test_arithmetic_result_holds_the_operators_array(self, monkeypatch):
        sys_ = builtin_system("block2")
        p = NCPoint(sys_, [np.eye(2, dtype=complex) * (j + 1) for j in range(sys_.size)])
        q = NCPoint(sys_, [np.full((2, 2), 0.5j) for _ in range(sys_.size)])
        copies = []
        monkeypatch.setattr(NCPoint, "__post_init__", lambda self: copies.append(self))
        results = {"+": p + q, "-": p - q, "neg": -p, "*": 2.5 * p, "*j": p * 1j}
        assert copies == []  # no result went through the copying constructor
        expect = {"+": p.coeffs + q.coeffs, "-": p.coeffs - q.coeffs, "neg": -p.coeffs,
                  "*": 2.5 * p.coeffs, "*j": 1j * p.coeffs}
        for name, r in results.items():
            assert r.coeffs.flags.owndata and not r.coeffs.flags.writeable, name
            np.testing.assert_array_equal(r.coeffs, expect[name])

    def test_arithmetic_overflow_is_still_rejected(self):
        sys_ = builtin_system("scalar")
        p = NCPoint(sys_, (np.array([[1e308]], dtype=complex),))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            p + p
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            10.0 * p


def _term_loop_realize(point):
    # Reference: realize's loop over the basis's nonzero entries, which the
    # identity frame skips.
    system, n, coeffs = point.system, point.level, point.coeffs
    k, stack = system.k, coeffs.shape[:-3]
    acc = np.zeros(stack + (k, n, k, n), dtype=np.complex128)
    for j, p, q, w in system.terms:
        acc[..., p, :, q, :] += w * coeffs[..., j, :, :]
    return acc.reshape(stack + (k * n, k * n))


def _dual_frame_decode(m, system, n):
    # Reference: decode's coefficients from the dual frame, for a finite stack
    # of matrices in the image, which the identity frame skips.
    k = system.k
    blocks = m.reshape(len(m), k, n, k, n)
    coeffs = np.empty((len(m), system.size, n, n), dtype=np.complex128)
    for j, dual in enumerate(system.dual_basis):
        acc = np.zeros((len(m), n, n), dtype=np.complex128)
        for p in range(k):
            for q in range(k):
                if dual[p, q] != 0:
                    acc = acc + dual[p, q] * blocks[:, q, :, p, :]
        coeffs[:, j] = acc
    return coeffs


def _with_signed_zeros(a, rng):
    # a copy of the complex array ``a`` whose first entry is -0.0 - 0.0j and
    # with about a third of its other real and imaginary parts -0.0 or +0.0
    parts = a.copy().view(np.float64)
    hit = rng.random(parts.shape) < 1 / 3
    parts[hit] = np.where(rng.random(parts.shape) < 0.5, -0.0, 0.0)[hit]
    parts.flat[:2] = -0.0
    return parts.view(np.complex128)


# system -> whether it is the identity frame; the frame is told by its basis, not its name
FRAMES = {
    "scalar": (builtin_system("scalar"), True),
    "unit": (OpSysBasis("unit", 1, (np.eye(1),), (1.0,)), True),
    "scalar_named_twice": (OpSysBasis("scalar", 1, (2.0 * np.eye(1),), (0.5,)), False),
    "diagonal(2)": (builtin_system("diagonal(2)"), False),
    "block2": (builtin_system("block2"), False),
}


class TestIdentityFrame:
    """realize and decode on the identity frame (basis ``[1]``) give the term loop's
    and the dual frame's values to the bit, signed zeros included."""

    @staticmethod
    def _same_bits(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", FRAMES)
    def test_detected_from_the_basis(self, name):
        system, frame = FRAMES[name]
        assert system.identity_frame is frame

    @pytest.mark.parametrize("name", FRAMES)
    def test_realize_equals_the_term_loop(self, name):
        system = FRAMES[name][0]
        rng = np.random.default_rng(41)
        for shape in ((), (1,), (7,), (2, 3)):
            n = 1 + len(shape)
            coeffs = rng.standard_normal(shape + (system.size, n, n, 2)).view(np.complex128)[..., 0]
            point = opsys._point(system, _with_signed_zeros(coeffs, rng))
            self._same_bits(realize(point), _term_loop_realize(point))

    @pytest.mark.parametrize("name", FRAMES)
    def test_decode_equals_the_dual_frame(self, name, monkeypatch):
        system, frame = FRAMES[name]
        rng = np.random.default_rng(42)
        n = 3
        coeffs = rng.standard_normal((6, system.size, n, n, 2)).view(np.complex128)[..., 0]
        m = _with_signed_zeros(realize(opsys._point(system, coeffs)), rng)
        calls = []
        real_realize = opsys.realize
        monkeypatch.setattr(opsys, "realize", lambda p: calls.append(p) or real_realize(p))
        got = decode(m, system, n)
        self._same_bits(got.coeffs, _dual_frame_decode(m, system, n))
        assert len(calls) == (0 if frame else 1)  # the identity frame makes no round trip

    @pytest.mark.parametrize("name", FRAMES)
    def test_a_non_finite_row_fails_first(self, name):
        system = FRAMES[name][0]
        m = np.stack([np.eye(system.k * 2, dtype=complex)] * 3)
        m[1, 0, 1] = complex(0.0, np.nan)
        errors = {}
        got = decode(m, system, 2, errors)
        assert list(errors) == [1] and isinstance(errors[1], NonFiniteError)
        self._same_bits(got.coeffs, _dual_frame_decode(np.stack([m[0]] * 3), system, 2))
        with pytest.raises(NonFiniteError, match="finite"):
            decode(m[1], system, 2)

    def test_a_diagonal_system_still_rejects_off_image(self):
        off = np.zeros((2, 4, 4), dtype=complex)
        off[1, 0, 2] = 1.0
        errors = {}
        decode(off, builtin_system("diagonal(2)"), 2, errors)
        assert list(errors) == [1] and isinstance(errors[1], NotInImageError)
        with pytest.raises(NotInImageError, match="residual"):
            decode(off[1], builtin_system("diagonal(2)"), 2)


# A user system whose id_coeffs give the identity only to within 2e-13: a
# shift by 1e12 moves one block's spectrum 0.2 less than the other's.
SKEWED = OpSysBasis("skewed", 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (1.0 - 2e-13, 1.0))

CERTIFIED_DOMAINS = {
    "pd_cone": pd_cone(builtin_system("block2")),
    "half_line_below": spectral_interval(builtin_system("diagonal(2)"), float("-inf"), -0.5),
    "full": full_domain(builtin_system("block2")),
    "interval_dense_system": spectral_interval(_dense_system(), -1.0, 2.0),
    # rounding at 1e8 decides membership: the interval is 13 ulps wide
    "narrow_far_from_0": spectral_interval(builtin_system("scalar"), 1e8, 1e8 + 2e-7),
    "skewed_above": spectral_interval(SKEWED, 1e12, float("inf")),
    "skewed_below": spectral_interval(SKEWED, float("-inf"), -1e12),
}


class TestCertifiedMembership:
    """The samplers' certificate (``opsys._bounds``) accepts a candidate only when
    ``in_domain`` does: the candidate P, and the first Q = P + t H of a pair."""

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(CERTIFIED_DOMAINS)), level=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_a_certified_row_is_in_the_domain(self, name, level, seed):
        domain, inside, seen = CERTIFIED_DOMAINS[name], opsys._inside, []

        def checked(dom, p, lower, upper):
            sure = np.flatnonzero((lower > dom.a + TOL_PSD) & (upper < dom.b - TOL_PSD))
            assert in_domain(p[sure], dom).all()
            seen.append((len(sure), len(lower)))
            return inside(dom, p, lower, upper)

        rngs = [Rng(seed).split(t) for t in range(8)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opsys, "_inside", checked)
            mp.setattr(opsys, "SAMPLE_BUDGET", 20)
            sample_point(domain, level, rngs, errors={})
            sample_ordered_pair(domain, level, rngs, errors={})
        assert seen
        if name in ("pd_cone", "full"):
            assert all(sure == rows for sure, rows in seen)  # nothing left to in_domain

    @pytest.mark.parametrize("name", ["narrow_far_from_0", "skewed_above"])
    def test_rounding_and_the_identity_defect_leave_rows_to_in_domain(self, name):
        # the hard domains above are not settled by the certificate alone:
        # in_domain rejects some of the rows it leaves open, and on the skewed
        # system the certificate still settles some rows
        domain, inside, sure, rejected = CERTIFIED_DOMAINS[name], opsys._inside, [0], [0]

        def counted(dom, p, lower, upper):
            mask = (lower > dom.a + TOL_PSD) & (upper < dom.b - TOL_PSD)
            sure[0] += np.count_nonzero(mask)
            found = inside(dom, p, lower, upper)
            rejected[0] += np.count_nonzero(~found)
            return found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opsys, "_inside", counted)
            sample_ordered_pair(domain, 2, [Rng(5).split(t) for t in range(64)])
        assert rejected[0] > 0
        assert name == "narrow_far_from_0" or sure[0] > 0

    @pytest.mark.parametrize("sampler", [sample_point, sample_ordered_pair])
    def test_one_decomposition_and_no_in_domain_per_try_on_the_pd_cone(self, monkeypatch,
                                                                        sampler):
        calls, eigh = [], kernels._eigh
        monkeypatch.setattr(kernels, "_eigh", lambda *a, **k: calls.append("_eigh") or eigh(*a, **k))
        monkeypatch.setattr(opsys, "in_domain", lambda *a: calls.append("in_domain"))
        sampler(pd_cone(builtin_system("block2")), 3, [Rng(15).split(t) for t in range(16)])
        assert calls == ["_eigh"]  # one try: every row is accepted at once

    def test_identity_defect(self):
        assert all(builtin_system(name).identity_defect == 0.0 for name in SYSTEMS)
        assert SKEWED.identity_defect == pytest.approx(2e-13, rel=1e-3)
        with pytest.raises(ValueError, match="identity"):
            OpSysBasis("far", 1, (np.eye(1),), (1.0 + 1e-11,))
