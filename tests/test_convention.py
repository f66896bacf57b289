"""One calling convention for the stack-aware routines, and the point operations.

Each stack-aware routine takes ``(..., n, n)`` matrices or ``(..., m, n, n)``
points, any leading shape including none, and returns results with the
same leading shape.  A single input is row 0 of a stack of one, bit for
bit, and its errors are those it raised before stacks existed.

``direct_sum``, ``conjugate`` and ``identity_point`` are array expressions
over the coefficients; the per-coefficient loops they replaced are kept
here as the bit-for-bit reference.
"""

import os

import numpy as np
import pytest

from freemono.cli import main
from freemono.freeexpr import OutOfDomainError, catalog, eval_function
from freemono.kernels import (
    BranchCutError, EigensolverError, NonFiniteError, Rng, SingularMatrixError,
    SpectrumDomainError, as_matrix, func_calc, herm_eig, imag_part, is_hermitian, min_eig_h,
    op_norm, principal_sqrt, random_matrix, safe_inv, scaled_min_eig,
)
from freemono.loewner1d import loewner_matrix, pick_matrix, scalar_catalog
from freemono.opsys import (
    NCPoint, NotInImageError, _point, builtin_system, conjugate, decode, direct_sum,
    full_domain, identity_point, in_domain, is_hermitian_point, order_leq, pd_cone, realize,
    sample_halfplane, sample_ordered_pair, sample_point, stack_points,
)
from freemono.paths import sample_path
from freemono.verifiers import pair_margin

SCALAR = builtin_system("scalar")
DIAG2 = builtin_system("diagonal(2)")
BLOCK2 = builtin_system("block2")
SYSTEMS = (SCALAR, DIAG2, BLOCK2)
ROWS = 6  # the flat stack of each case; viewed as (2, 3) for the batch-shape check


# --------------------------------------------------------------------------
# Inputs: a stack of ROWS matrices, points or pairs, with a failing row where
# the routine hands failed rows on.

def _matrices(kind, n=3):
    return np.stack([random_matrix(kind, n, Rng(31).split(kind, t)) for t in range(ROWS)])


def _near_hermitian():
    # exact, within-tolerance and clearly non-Hermitian rows
    m = _matrices("hermitian")
    m[1, 0, 2] += 1e-14
    m[3, 1, 0] += 1e-3j
    return m


def _spectra():
    m = _matrices("pd")
    m[4] = -m[4]  # outside the square root's domain
    return m


def _roots():
    m = _matrices("pd")
    m[2] = random_matrix("ginibre", 3, Rng(32)) + 4j * np.eye(3)  # takes the Schur path
    m[4] = -m[4]  # on the branch cut
    return m


def _singular():
    m = _matrices("ginibre")
    m[4] = 0.0
    return m


def _decodable():
    # realizations over diagonal(2); row 4 is not in the image
    p = sample_halfplane(DIAG2, 2, [Rng(33).split(t) for t in range(ROWS)])
    m = realize(p).copy()
    m[4] = random_matrix("ginibre", 4, Rng(34))
    return m


def _halfplane_points(system, level=2):
    return sample_halfplane(system, level, [Rng(35).split(system.name, t) for t in range(ROWS)])


def _domain_points():
    # in the cone, Hermitian but outside it, and not Hermitian
    a, b = sample_ordered_pair(pd_cone(DIAG2), 2, [Rng(36).split(t) for t in range(ROWS)])
    c = b.coeffs.copy()
    c[1] = -c[1]
    c[3] = _halfplane_points(DIAG2).coeffs[3]
    return _point(DIAG2, c)


def _schur_points():
    p = _halfplane_points(BLOCK2)
    c = p.coeffs.copy()
    c[4, 1] = 0.0  # X[2,2] = 0: a singular inverse
    return _point(BLOCK2, c)


def _pairs():
    a, b = sample_ordered_pair(pd_cone(SCALAR), 2, [Rng(37).split(t) for t in range(ROWS)])
    c = a.coeffs.copy()
    c[4] = 0.0  # inverse of A fails
    return _point(SCALAR, c), b


def _nodes():
    # strictly increasing positive nodes, 4 a row
    return np.cumsum(0.1 + np.abs(_matrices("ginibre", 4)[:, 0]), axis=-1)


def _upper_points():
    z = _matrices("ginibre", 4)[:, 0]
    return z.real + 1j * (0.1 + np.abs(z.imag))


_NAN = np.array([[1.0, np.nan], [0.0, 1.0]])
_RECT = np.ones((2, 3))
_SKEW = np.array([[-1.0, 1.0], [0.0, -2.0]])  # not Hermitian; spectrum -1, -2
_NOT_HERMITIAN = (ValueError, "matrix is not Hermitian within tolerance")
_FINITE = (NonFiniteError, "matrix entries must all be finite")
_SQUARE = (ValueError, "expected a square matrix, got shape (2, 3)")
_SOLVER = (EigensolverError,
           "eigensolver did not converge: Last 2 dimensions of the array must be square")
_COND = "condition estimate exceeds 1e12; inverse not trusted"
_SINGULAR = (OutOfDomainError, f"singular inverse: {_COND}")
_X22_ZERO = NCPoint(BLOCK2, (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))))
_BAD_PAIR = (NCPoint(SCALAR, (np.zeros((2, 2)),)), identity_point(SCALAR, 2))
_SQRT = scalar_catalog("sqrt")
_GAPS = (ValueError, "nodes must increase with gaps of at least 1e-08")

# id -> (call(x, errors), stack of ROWS inputs, [(bad single input, its error type
# and message)]).  ``errors`` is None or a dict for the routines that hand failed
# rows on, and ignored by the others; their stacks fail in row 4.
CASES = {
    "is_hermitian": (lambda x, e: is_hermitian(x), _near_hermitian,
                     [(_NAN, _FINITE), (_RECT, _SQUARE)]),
    "op_norm": (lambda x, e: op_norm(x), lambda: _matrices("ginibre"),
                [(_NAN, (np.linalg.LinAlgError, "SVD did not converge"))]),
    "imag_part": (lambda x, e: imag_part(x), lambda: _matrices("ginibre"),
                  [(_NAN, _FINITE), (_RECT, _SQUARE)]),
    "herm_eig": (lambda x, e: herm_eig(x, e), lambda: _near_hermitian()[[0, 1, 2, 4, 3, 5]],
                 [(_NAN, _FINITE), (_RECT, _SQUARE), (_SKEW, _NOT_HERMITIAN)]),
    "func_calc": (lambda x, e: func_calc(np.sqrt, x, (0, np.inf), e), _spectra,
                  [(_NAN, _FINITE), (_RECT, _SQUARE), (_SKEW, _NOT_HERMITIAN),
                   (np.diag([-1.0, 1.0]), (SpectrumDomainError,
                                           "eigenvalue -1.0 outside the open interval (0, inf)"))]),
    "min_eig_h": (lambda x, e: min_eig_h(x), lambda: _matrices("hermitian"), [(_RECT, _SOLVER)]),
    "scaled_min_eig": (lambda x, e: scaled_min_eig(x, e), lambda: _matrices("hermitian"),
                       [(_RECT, _SOLVER)]),
    "safe_inv": (lambda x, e: safe_inv(x, e), _singular,
                 [(_NAN, _FINITE), (_RECT, _SQUARE),
                  (np.zeros((2, 2)), (SingularMatrixError, _COND))]),
    "principal_sqrt": (lambda x, e: principal_sqrt(x, e), _roots,
                       [(_NAN, _FINITE), (_RECT, _SQUARE),
                        (_SKEW, (BranchCutError,
                                 "eigenvalue (-1+0j) within 1e-10 of the closed ray (-inf, 0]"))]),
    "decode": (lambda x, e: decode(x, DIAG2, 2, e), _decodable,
               [(_NAN, _FINITE), (_RECT, _SQUARE), (np.ones((4, 4)), (
                   NotInImageError, "matrix is not in the realization image (residual 2.000e+00)"))]),
    "is_hermitian_point": (lambda x, e: is_hermitian_point(x), _domain_points, []),
    "in_domain": (lambda x, e: in_domain(x, pd_cone(DIAG2)), _domain_points, []),
    "eval_function": (lambda x, e: eval_function(catalog("schur_complement"), x, e),
                      _schur_points, [(_X22_ZERO, _SINGULAR)]),
    "pair_margin": (lambda x, e: pair_margin(catalog("inverse"), *x, e), _pairs,
                    [(_BAD_PAIR, _SINGULAR)]),
    "loewner_matrix": (lambda x, e: loewner_matrix(_SQRT, x), _nodes,
                       [(np.array([1.0, 1.0 + 1e-9, 2.0]), _GAPS), (np.array([2.0, 1.0]), _GAPS),
                        (np.array([-1.0, 1.0]), (
                            ValueError, "nodes must lie inside the open interval (0.0, inf)")),
                        (np.array([]), (ValueError, "nodes must be a nonempty vector"))]),
    "pick_matrix": (lambda x, e: pick_matrix(_SQRT, x), _upper_points,
                    [(np.array([1 + 1j, 2 + 1j, 1 + 1j]), (
                        ValueError, "points must be pairwise distinct")),
                     (np.array([1 + 1j, 1 - 1j]), (
                         ValueError, "points must have strictly positive imaginary part")),
                     (np.array([]), (ValueError, "points must be a nonempty vector"))]),
}
FAILING_ROW_4 = ("herm_eig", "func_calc", "safe_inv", "principal_sqrt", "decode",
                 "eval_function", "pair_margin")


def _reshape(x, lead):
    """``x`` with its leading axis replaced by the axes ``lead``."""
    if isinstance(x, tuple):
        return tuple(_reshape(y, lead) for y in x)
    if isinstance(x, NCPoint):
        return _point(x.system, x.coeffs.reshape(lead + x.coeffs.shape[1:]))
    return np.asarray(x).reshape(lead + np.shape(x)[1:])


def _row(x, i):
    return tuple(y[i] for y in x) if isinstance(x, tuple) else x[i]


def _one(x):
    """A stack of one that holds the single input ``x``."""
    if isinstance(x, tuple):
        return tuple(_one(y) for y in x)
    if isinstance(x, NCPoint):
        return _point(x.system, x.coeffs[np.newaxis])
    return x[np.newaxis]


def _bits(v):
    """The result's type, shape and bytes."""
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    if isinstance(v, NCPoint):
        return "NCPoint", v.coeffs.shape, v.coeffs.tobytes()
    a = np.asarray(v)
    return type(v).__name__, a.dtype.str, a.shape, a.tobytes()


def _outcome(call, x):
    try:
        return _bits(call(x, None))
    except Exception as exc:
        return type(exc), str(exc)


def _errors(errors):
    return {row: (type(exc), str(exc)) for row, exc in errors.items()}


@pytest.mark.parametrize("case", list(CASES))
def test_one_calling_convention(case):
    call, make, bad = CASES[case]
    stack = make()
    # a single input is row 0 of the result on a stack of one, or raises what that row fails with
    for i in range(ROWS):
        x = _row(stack, i)
        failed = {}
        one = call(_one(x), failed)
        want = _bits(_row(one, 0)) if not failed else (type(failed[0]), str(failed[0]))
        assert _outcome(call, x) == want
    # any leading shape is the flat stack's, reshaped; failed rows are keyed by flat row
    flat_errors, shaped_errors = {}, {}
    flat = call(stack, flat_errors)
    shaped = call(_reshape(stack, (2, 3)), shaped_errors)
    assert _bits(shaped) == _bits(_reshape(flat, (2, 3)))
    assert _errors(shaped_errors) == _errors(flat_errors)
    assert list(flat_errors) == ([4] if case in FAILING_ROW_4 else [])
    # an empty stack is the flat stack's first zero rows
    empty_errors = {}
    empty = call(_row(stack, slice(0, 0)), empty_errors)
    assert _bits(empty) == _bits(_row(flat, slice(0, 0))) and empty_errors == {}
    # a non-finite, non-square or otherwise bad single input raises what it raised
    # when single inputs had a path of their own
    for x, want in bad:
        assert _outcome(call, x) == want


@pytest.mark.parametrize("draw, shape", [
    (lambda rngs: random_matrix("unitary", 2, rngs), (0, 2, 2)),
    (lambda rngs: sample_point(pd_cone(DIAG2), 2, rngs).coeffs, (0, 2, 2, 2)),
    (lambda rngs: sample_ordered_pair(pd_cone(DIAG2), 2, rngs)[1].coeffs, (0, 2, 2, 2)),
    (lambda rngs: sample_halfplane(BLOCK2, 2, rngs).coeffs, (0, 4, 2, 2)),
    (lambda rngs: sample_path(pd_cone(DIAG2), 2, rngs).diags, (0, 2, 2)),
], ids=["random_matrix", "sample_point", "sample_ordered_pair", "sample_halfplane",
        "sample_path"])
def test_no_rngs_draw_an_empty_stack(draw, shape):
    assert draw(np.empty(0, dtype=object)).shape == shape


# --------------------------------------------------------------------------
# One eigenvalue helper: a LAPACK failure is a numerical failure (exit 3),
# never the bare LinAlgError, a ValueError that the CLI reads as bad usage.

def _fail(monkeypatch, solver):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, fails)


@pytest.fixture
def failing_eigvalsh(monkeypatch):
    _fail(monkeypatch, "eigvalsh")


@pytest.fixture
def failing_eigh(monkeypatch):
    _fail(monkeypatch, "eigh")


@pytest.mark.parametrize("call", [
    lambda: min_eig_h(np.eye(2)),
    lambda: scaled_min_eig(np.eye(2)),
    lambda: in_domain(identity_point(SCALAR, 2), pd_cone(SCALAR)),
    lambda: order_leq(identity_point(SCALAR, 2), identity_point(SCALAR, 2)),
    lambda: sample_point(pd_cone(SCALAR), 2, Rng(40)),
], ids=["min_eig_h", "scaled_min_eig", "in_domain", "order_leq", "sample_point"])
def test_an_eigensolver_failure_is_an_eigensolver_error(failing_eigvalsh, call):
    with pytest.raises(EigensolverError, match="did not converge: Eigenvalues did not converge"):
        call()


@pytest.mark.parametrize("call", [
    lambda: herm_eig(np.eye(2)),
    lambda: func_calc(np.sqrt, np.eye(2), (0, np.inf)),
    lambda: principal_sqrt(np.eye(2)),
    lambda: sample_path(pd_cone(SCALAR), 2, Rng(41)),
], ids=["herm_eig", "func_calc", "principal_sqrt", "sample_path"])
def test_an_eigh_failure_is_an_eigensolver_error(failing_eigh, call):
    with pytest.raises(EigensolverError, match="did not converge: Eigenvalues did not converge"):
        call()


def _check_exit_code(*argv):
    return main(["check", *argv, "--levels", "1..1", "--trials", "2", "--out", os.devnull])


def test_an_eigensolver_failure_in_sampling_exits_3(failing_eigvalsh):
    assert _check_exit_code("--function", "identity", "--suite", "monotone") == 3


@pytest.mark.parametrize("argv", [
    ("--function", "geometric_mean", "--suite", "monotone"),  # a Hermitian square root
    ("--function", "msqrt", "--suite", "local"),  # a path's rotation bound
], ids=["square_root", "path"])
def test_an_eigh_failure_exits_3(failing_eigh, argv):
    assert _check_exit_code(*argv) == 3


# --------------------------------------------------------------------------
# The point operations against the per-coefficient loops they replaced.

def _ref_direct_sum(p, q):
    n, m = p.level, q.level
    coeffs = []
    for a, b in zip(p.coeffs, q.coeffs):
        c = np.zeros((n + m, n + m), dtype=np.complex128)
        c[:n, :n] = a
        c[n:, n:] = b
        coeffs.append(c)
    return NCPoint(p.system, tuple(coeffs))


def _ref_conjugate(p, s):
    s = as_matrix(s)
    s_inv = safe_inv(s)
    return NCPoint(p.system, tuple(s_inv @ a @ s for a in p.coeffs))


def _ref_identity_point(system, level):
    eye = np.eye(level, dtype=np.complex128)
    return NCPoint(system, tuple(c * eye for c in system.id_coeffs))


def _same(p, q):
    # bytes hold the signbits of both parts, zeros included
    return p.coeffs.shape == q.coeffs.shape and p.coeffs.tobytes() == q.coeffs.tobytes()


def _points(system, level, tag):
    rng = Rng(38).split(system.name, level, tag)
    return [sample_halfplane(system, level, rng.split("hp")),
            sample_point(full_domain(system), level, rng.split("full")),
            -identity_point(system, level)]  # negative zeros off the diagonal


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
class TestPointOperations:
    def test_identity_point(self, system):
        for level in range(1, 5):
            assert _same(identity_point(system, level), _ref_identity_point(system, level))

    def test_direct_sum(self, system):
        for n in range(1, 5):
            for m in range(1, 5):
                ps, qs = _points(system, n, "p"), _points(system, m, "q")
                for p, q in zip(ps, qs):
                    assert _same(direct_sum(p, q), _ref_direct_sum(p, q))
                got = direct_sum(stack_points(*ps), stack_points(*qs))
                for i, (p, q) in enumerate(zip(ps, qs)):
                    assert _same(got[i], _ref_direct_sum(p, q))

    def test_conjugate(self, system):
        for level in range(1, 5):
            rng = Rng(39).split(system.name, level)
            ss = [random_matrix("unitary", level, rng.split("u")),
                  random_matrix("ginibre", level, rng.split("g")),
                  np.eye(level)]
            ps = _points(system, level, "c")
            for p, s in zip(ps, ss):
                assert _same(conjugate(p, s), _ref_conjugate(p, s))
            got = conjugate(stack_points(*ps), np.stack(ss))
            for i, (p, s) in enumerate(zip(ps, ss)):
                assert _same(got[i], _ref_conjugate(p, s))

    def test_conjugate_keeps_its_errors(self, system):
        p = identity_point(system, 2)
        with pytest.raises(ValueError, match="must match the point's level"):
            conjugate(p, np.eye(3))
        with pytest.raises(SingularMatrixError):
            conjugate(p, np.zeros((2, 2)))
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            conjugate(p * 1e308, 0.1 * np.eye(2))  # S^{-1} A overflows
