"""Dense complex matrix kernels.

Everything downstream reduces to the routines here: Hermitian eigenwork,
semidefiniteness margins, principal square roots, the scalar functional
calculus, and reproducible random matrix generation.

The kernels of the trial path follow NumPy's ``linalg`` convention: they
take an ``(..., n, n)`` array, any leading shape including none, work on
each matrix alone, with the values the matrix would get by itself, and
return results with the same leading shape (so a number-valued kernel
gives a NumPy scalar for a single matrix).  Inside, the matrices are a flat ``(T, n, n)`` stack, and a single
matrix is its row 0.  A matrix that fails is a failed row: its error goes
to the ``errors`` dict the caller passes, keyed by flat row (see
:func:`settle`), and its result is a finite stand-in; without a dict the
error is raised.

Tolerance convention: a comparison at tolerance ``t`` against a matrix
``A`` is made relative to ``t * (1 + ||A||)``, with ``||.||`` the operator
(spectral) norm.  The operator norm is an SVD, so a kernel takes it only
for the rows a cheaper screen leaves unsure.  Each screen bounds the
quantity it stands for with at least a factor of two to spare for rounding,
so it changes which rows take SVDs and never a decision: ``safe_inv``
certifies a row by its Frobenius condition estimate, and ``principal_sqrt``
passes a residual by its Frobenius norm and clears an eigenvalue of the
branch cut by its real part, its imaginary part or its distance against
``2 TOL_BRANCH (1 + ||A||_F)``, at least twice its tolerance.  A matrix with a
non-finite entry is a failed row (:func:`finite_rows`); one whole-stack test
comes first, and the rows are looked at only when it fails.

Only NumPy is used.  A square root is taken by diagonalization: one stacked
``eigh`` for the Hermitian rows of a stack and one stacked ``eig`` for the
others, with a scaled Denman-Beavers iteration for the defective rows whose
eigenvectors leave the diagonalization untrusted (:func:`principal_sqrt`).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL_HERM = 1e-12
TOL_PSD = 1e-8
TOL_RECON = 1e-10
TOL_BRANCH = 1e-10
COND_LIMIT = 1e12
EIG_COND_LIMIT = 1e6
_ITERATION_STEPS = 100

_MASK64 = (1 << 64) - 1


class NumericalError(Exception):
    """An eigensolver failed to converge, a sampling budget ran out, or a value
    stopped being finite."""


class EigensolverError(NumericalError):
    """The underlying LAPACK eigensolver did not converge."""


class SamplingError(NumericalError):
    """A rejection sampler exhausted its attempt budget."""


class NonFiniteError(NumericalError, ValueError):
    """A matrix has an infinite or NaN entry.

    A numerical failure when a computation overflows, and a ``ValueError``
    for input that arrives with such entries.
    """


class BranchCutError(Exception):
    """Spectrum within ``TOL_BRANCH`` of the closed ray (-inf, 0]."""


class SingularMatrixError(Exception):
    """Condition estimate above ``COND_LIMIT``; an inverse is not trusted."""


class SpectrumDomainError(Exception):
    """An eigenvalue fell outside the interval a scalar function allows."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix entries must all be finite")
    return m


def as_stack(a) -> tuple[np.ndarray, tuple]:
    """An ``(..., n, n)`` array ``a`` as a complex ``(T, n, n)`` stack, and its leading shape.

    The finiteness of the rows is left to :func:`finite_rows`.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    lead = a.shape[:-2]
    return a.reshape((math.prod(lead),) + a.shape[-2:]), lead


def _ct(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def settle(errs: dict, errors: dict | None):
    """Hand on the row errors ``errs`` (``{row: exception}``) of one call on a stack.

    With a dict ``errors`` each goes there unless its row already has one,
    so a row keeps its first error, as a trial run alone stopped at it;
    without one, the error of the lowest failing row is raised.
    """
    if not errs:
        return
    if errors is None:
        raise errs[min(errs)]
    for row, exc in errs.items():
        errors.setdefault(int(row), exc)


def finite_rows(a: np.ndarray, errs: dict | None = None) -> np.ndarray:
    """The stack with each matrix that has a non-finite entry replaced by the identity.

    Each such row gets the :class:`NonFiniteError` that :func:`as_matrix`
    raises, and the stand-in goes into a copy of ``a``.  Without ``errs``,
    the error of the lowest such row is raised.
    """
    finite = np.isfinite(a)
    if np.count_nonzero(finite) == finite.size:
        return a
    bad = ~finite.all(axis=(1, 2))
    settle({row: NonFiniteError("matrix entries must all be finite")
            for row in np.flatnonzero(bad)}, errs)
    a = a.copy()
    a[bad] = np.eye(a.shape[-1])
    return a


def op_norm(a):
    """Operator (spectral) norm: the largest singular value (0.0 for a 0-by-0 matrix)."""
    sv = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return sv.max(axis=-1, initial=0.0)


def _frobenius(a: np.ndarray) -> np.ndarray:
    # ``np.linalg.norm`` of each matrix of a stack, to the bit: the same two
    # BLAS dot products over the real and the imaginary parts in row-major order
    flat = np.ascontiguousarray(a).reshape(len(a), a.shape[-2] * a.shape[-1])
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def hermitize(a) -> np.ndarray:
    """Hermitian part (A + A*) / 2, of a matrix or of each matrix of a stack."""
    a = np.asarray(a, dtype=np.complex128)
    return (a + _ct(a)) / 2.0


def is_hermitian(a):
    """True when A equals its conjugate transpose within ``TOL_HERM * (1 + ||A||)``."""
    a, lead = as_stack(a)
    a = finite_rows(a)
    ah = _ct(a)
    out = (a == ah).all(axis=(1, 2))  # exact: the tolerance test below would pass
    rest = np.flatnonzero(~out)
    if rest.size:
        out[rest] = op_norm(a[rest] - ah[rest]) <= TOL_HERM * (1.0 + op_norm(a[rest]))
    return out.reshape(lead)[()]


def imag_part(a) -> np.ndarray:
    """Imaginary part (A - A*) / 2i, exactly Hermitian by construction."""
    a, lead = as_stack(a)
    a = finite_rows(a)
    b = (a - _ct(a)) * (-0.5j)
    return ((b + _ct(b)) / 2.0).reshape(lead + a.shape[1:])


def _each_matrix(solve, a, errors: dict | None, outputs):
    # solve of one matrix of ``a`` at a time, after solve(a) failed on the whole
    # stack, into ``outputs(rows)``, zeroed arrays of each output's shape for
    # ``rows`` matrices; each matrix whose solver does not converge is a failed
    # row with an EigensolverError and zeros
    flat = a.reshape((-1,) + a.shape[-2:])
    outs, errs = outputs(len(flat)), {}
    for row, m in enumerate(flat):
        try:
            got = solve(m)
        except np.linalg.LinAlgError as exc:
            errs[row] = EigensolverError(f"eigensolver did not converge: {exc}")
            continue
        for out, part in zip(outs, got if isinstance(got, tuple) else (got,)):
            out[row] = part
    settle(errs, errors)
    outs = [out.reshape(a.shape[:-2] + out.shape[1:]) for out in outs]
    return tuple(outs) if len(outs) > 1 else outs[0]


def _eigh(a, errors: dict | None = None, vectors: bool = False):
    """Ascending eigenvalues of each matrix of ``a``, and with ``vectors`` also the
    unitary eigenvectors, as ``(w, u)``; a real ``a`` keeps the real solver.

    When the call fails, the matrices are solved one by one, and each one
    whose solver does not converge is a failed row with an
    :class:`EigensolverError`, and gets zeros.
    """
    a = np.asarray(a)
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return solve(a)
    except np.linalg.LinAlgError:
        n = a.shape[-1]
        return _each_matrix(solve, a, errors, lambda rows: [
            np.zeros((rows, n)), *[np.zeros((rows, n, n), np.result_type(a, 1.0))] * vectors])


def _eig(a: np.ndarray, errors: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and the eigenvectors of ``np.linalg.eig`` of each matrix of the
    stack ``a``, a matrix whose solver does not converge failing as by :func:`_eigh`."""
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError:
        n = a.shape[-1]
        return _each_matrix(np.linalg.eig, a, errors, lambda rows: [
            np.zeros((rows, n), complex), np.zeros((rows, n, n), complex)])


def _inverses(a: np.ndarray) -> np.ndarray:
    # inv of each matrix of a stack, each on its own; an exactly singular one gets NaNs
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full_like(a, np.nan)
        for row, m in enumerate(a):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[row] = np.linalg.inv(m)
        return out


def herm_eig(a, errors: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and ``u`` unitary so
    that ``hermitize(a) = u @ diag(w) @ u*``.  A matrix with a non-finite
    entry, one that is not Hermitian within tolerance and one whose
    eigensolver fails is a failed row.
    """
    a, lead = as_stack(a)
    errs = {}
    a = finite_rows(a, errs)
    for row in np.flatnonzero(~is_hermitian(a)):
        errs.setdefault(row, ValueError("matrix is not Hermitian within tolerance"))
    w, u = _eigh(hermitize(a), errs, vectors=True)
    settle(errs, errors)
    return w.reshape(lead + w.shape[1:]), u.reshape(lead + u.shape[1:])


def min_eig_h(a):
    """Minimum eigenvalue, input trusted to be Hermitian (no validation)."""
    return _eigh(a)[..., 0][()]


def scaled_min_eig(a, errors: dict | None = None):
    """min eig / (1 + ||A||) for Hermitian A, in one eigendecomposition.

    A matrix with a non-finite entry is a failed row (see :func:`finite_rows`):
    LAPACK can give such a matrix a finite spectrum, whose margin would pass.
    """
    a = np.asarray(a)
    w = _eigh(finite_rows(a.reshape((-1,) + a.shape[-2:]), errors).reshape(a.shape), errors)
    lo, hi = w[..., 0], w[..., -1]
    lo_abs = np.abs(lo)
    scale = 1.0 + np.maximum(lo_abs, np.abs(hi))
    # a least eigenvalue that is not finite gives NaN, as inf / inf does, with no warning
    return np.divide(lo, scale, out=np.full(lo.shape, np.nan), where=lo_abs < np.inf)[()]


def safe_inv(a, errors: dict | None = None) -> np.ndarray:
    """Matrix inverse guarded by a condition estimate.

    A matrix with a non-finite entry or a condition estimate (the ratio of
    its extreme singular values) above ``COND_LIMIT`` is a failed row and
    gets the identity.  The singular values are taken only for the rows
    the certificate ``||A||_F ||inv(A)||_F <= COND_LIMIT / 16`` leaves
    unsettled, and for every row when some row is exactly singular.
    """
    a, lead = as_stack(a)
    errs = {}
    a = finite_rows(a, errs)
    try:
        inv = np.linalg.inv(a)  # one matrix at a time: a row's bits do not depend on the others
        flat = np.concatenate([a, inv]).reshape(2, len(a), a.shape[-1] ** 2)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.vecdot(flat, flat).real  # the squared Frobenius norms
            kappa = norms[0] * norms[1]
    except np.linalg.LinAlgError:  # an exactly singular row
        inv, kappa = None, np.full(len(a), np.inf)
    # The certificate: kappa_F = ||A||_F ||inv(A)||_F >= ||A|| ||inv(A)||, the
    # ratio the SVD test bounds; ``kappa`` is its square.  The computed
    # inverse X solves A X = I + E, with ||E|| <= c n u ||A||_F ||X||_F for LU
    # with partial pivoting and a modest growth factor (u = 2^-53; Higham,
    # "Accuracy and Stability of Numerical Algorithms", sec. 14.3).  For
    # n <= 16 and a computed kappa_F <= COND_LIMIT / 16 that is under 1/2
    # unless c exceeds 4000, and then ||inv(A)|| <= 2 ||X||: the true ratio is
    # below COND_LIMIT / 8 (the norms round by a few u).  The computed
    # singular values are off by a few n u ||A||, so the computed ratio is
    # still below COND_LIMIT and the row passes the SVD test.  Every other
    # row takes that test: a non-finite kappa_F is no certificate, and a norm
    # whose squares underflow comes with an inverse whose squares overflow.
    unsure = np.flatnonzero(~(kappa <= (COND_LIMIT / 16) ** 2))
    bad = []
    if unsure.size:
        sv = np.linalg.svd(a[unsure], compute_uv=False)
        bad = [row for row, lo, hi in zip(unsure.tolist(), sv[:, -1].tolist(), sv[:, 0].tolist())
               if lo <= 0.0 or not math.isfinite(hi) or hi / lo > COND_LIMIT]
    for row in bad:
        errs[row] = SingularMatrixError("condition estimate exceeds 1e12; inverse not trusted")
    settle(errs, errors)
    if bad or inv is None:  # a failed row is inverted as the identity
        a = a.copy()
        a[bad] = np.eye(a.shape[-1])
        inv = np.linalg.inv(a)
    return inv.reshape(lead + a.shape[1:])


def _branch_cut(value) -> BranchCutError:
    return BranchCutError(f"eigenvalue {value} within {TOL_BRANCH:g} of the closed ray (-inf, 0]")


def _near_cut(a: np.ndarray, w: np.ndarray, reach: np.ndarray) -> dict:
    # The rows of ``a`` with an eigenvalue in ``w`` (one or more per row) within
    # TOL_BRANCH * (1 + ||A||) of the closed ray (-inf, 0], each with its nearest
    # eigenvalue; a real one stands for its distance.  See principal_sqrt.
    r = reach[:, None]
    if w.dtype.kind == "c" and np.count_nonzero((w.real > r) | (np.abs(w.imag) > r)) == w.size:
        return {}
    dist = w if w.dtype.kind == "f" else np.abs(np.where(w.real > 0.0, w, w.imag))
    near = dist <= r
    if not np.count_nonzero(near):
        return {}
    near = near.any(axis=1).nonzero()[0]
    dist = dist[near]
    cut = (dist <= TOL_BRANCH * (1.0 + op_norm(a[near]))[:, None]).any(axis=1)
    return {row: w[row, dist[i].argmin()] for i, row in zip(cut.nonzero()[0], near[cut].tolist())}


def _roots_by_eigh(a: np.ndarray, reach: np.ndarray, errs: dict, rows, units: dict) -> np.ndarray:
    # Roots of Hermitian matrices from one stacked eigendecomposition.  The
    # zero eigenvalues of a failed row put it on the closed negative ray.
    failed = {}
    w, u = _eigh(hermitize(a), failed, vectors=True)
    cut = _near_cut(a, w[:, :1], reach)
    for i, value in cut.items():
        errs[rows[i]] = failed.get(i, _branch_cut(float(value) * units.get(rows[i], 1.0)))
        w[i] = 1.0
    return (u * np.sqrt(w)[:, None, :]) @ _ct(u)


def _roots_by_eig(a: np.ndarray, reach: np.ndarray, errs: dict, rows, units: dict) -> tuple:
    # Roots V sqrt(D) inv(V) of general matrices from one stacked eig (Higham,
    # "Functions of Matrices", sec. 4.5), their eigenvalues, and whether each
    # row's ||V||_F ||inv(V)||_F is at most EIG_COND_LIMIT, so that its root can
    # be trusted.  A failed row (its zero eigenvalues are on the cut) runs on
    # the identity.
    failed = {}
    w, v = _eig(a, failed)
    cut = _near_cut(a, w, reach)
    for i, value in cut.items():
        errs[rows[i]] = failed.get(i, _branch_cut(value * units.get(rows[i], 1.0)))
        w[i], v[i] = 1.0, np.eye(a.shape[-1])
    n = a.shape[-1]
    vinv = _inverses(v)
    flat = vinv.reshape(len(a), n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        # eig's eigenvectors have unit norms, so ||V||_F^2 = n
        trusted = n * np.vecdot(flat, flat).real <= EIG_COND_LIMIT ** 2
    return (v * np.sqrt(w)[:, None, :]) @ vinv, w, trusted


def _roots_by_iteration(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Roots by the scaled Denman-Beavers iteration in product form (Higham,
    # "Functions of Matrices", sec. 6.3): M <- (I + (mu^2 M + inv(M) / mu^2) / 2) / 2
    # and Y <- mu Y (I + inv(M) / mu^2) / 2 from M = Y = A, with the determinant
    # scaling mu = |det M|^(-1/2n); Y tends to the root of A and M to I.  The
    # iteration loses accuracy when an eigenvalue lies near the negative axis,
    # so each row first turns its spectrum, as the eigenvalues ``w`` estimate it,
    # by the phase c that centres its arguments on 0: the root of A is that of
    # cA over sqrt(c) while every argument stays in (-pi, pi).  A row stops when
    # ||M - I||_F <= n 1e-15, or when that no longer falls once below 1e-6, so
    # its steps do not depend on the other rows; a non-finite row stops at once.
    n = a.shape[-1]
    eye = np.eye(n)
    arg = np.angle(w)
    half = np.exp(-0.25j * (arg.max(axis=1) + arg.min(axis=1)))[:, None, None]  # sqrt(c)
    m = (half * half) * a
    y = m.copy()
    live, last = np.arange(len(a)), np.full(len(a), np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_ITERATION_STEPS):
            if not live.size:
                break
            ml = m[live]
            inv = _inverses(ml)
            mu = np.exp(np.linalg.slogdet(ml)[1] / (-2.0 * n))[:, None, None]
            mu2 = mu * mu
            y[live] = (0.5 * mu) * (y[live] @ (eye + inv / mu2))
            m[live] = 0.5 * (eye + 0.5 * (mu2 * ml + inv / mu2))
            d = _frobenius(m[live] - eye)
            go = (d > n * 1e-15) & ((d < last[live]) | (last[live] > 1e-6))
            last[live] = d
            live = live[go]
    return y / half


def _skew_and_norm(a: np.ndarray) -> tuple:
    # ||A - A*||_F and ||A||_F of each matrix of a stack: A is taken for
    # Hermitian when the first is at most 1e-13 (1 + the second)
    norms = _frobenius(np.concatenate([a - _ct(a), a]))
    return norms[:len(a)], norms[len(a):]


_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_ROWS.setflags(write=False)


def _misfits(resid: np.ndarray, a: np.ndarray, skip=()) -> np.ndarray:
    # The rows of a stack of residuals R whose inputs A do not pass
    # ||R|| <= TOL_RECON (1 + ||A||), a non-finite R failing; the rows ``skip``
    # pass.  A residual with ||R||_F <= TOL_RECON / 2 passes without the
    # operator norms, a bound with a factor of two to spare.
    resid = np.ascontiguousarray(resid)
    flat = resid.reshape(len(resid), resid.shape[-1] ** 2).view(np.float64)  # re and im parts
    sure = np.vecdot(flat, flat) <= (0.5 * TOL_RECON) ** 2
    sure[list(skip)] = True
    if np.count_nonzero(sure) == len(sure):
        return _NO_ROWS
    unsure = (~sure).nonzero()[0]
    r = resid[unsure]
    finite = np.isfinite(r).all(axis=(1, 2))
    r[~finite] = 0.0
    r, m = np.split(op_norm(np.concatenate([r, a[unsure]])), 2)
    return unsure[~finite | (r > TOL_RECON * (1.0 + m))]


def principal_sqrt(a, errors: dict | None = None) -> np.ndarray:
    """Principal matrix square root by diagonalization.

    Requires the spectrum to stay off the closed ray (-inf, 0]; every
    eigenvalue of the result has strictly positive real part.  Hermitian
    inputs take one stacked ``eigh``, any others one stacked ``eig``, whose
    root is V sqrt(D) inv(V).  A non-Hermitian row whose eigenvectors have
    ||V||_F ||inv(V)||_F above ``EIG_COND_LIMIT``, or whose root fails to
    reconstruct it, takes the scaled Denman-Beavers iteration instead, and
    its root must then reconstruct it.  Only defective or nearly defective
    (Jordan-like) input gets there.

    Both tolerances scale with 1 + ||A||, and a row takes SVDs only when a
    screen leaves it unsure; each screen bounds what it replaces with a factor
    of two to spare, so every decision is the SVDs'.  An eigenvalue whose
    distance to the ray, real part or |Im| exceeds 2 (1 + ||A||_F) TOL_BRANCH
    is off the cut.  A residual with ||R||_F <= TOL_RECON / 2 passes; a
    non-finite one fails.  A row of finite entries whose Frobenius norm
    overflows is taken as 4^-k times itself, k making its largest part less
    than 2^400, and its root is scaled back by 2^k; both steps are exact, so
    every decision is that of the row itself.
    """
    a, lead = as_stack(a)
    errs = {}
    a = finite_rows(a, errs)
    skew, norm = _skew_and_norm(a)
    units = {}  # row -> 4^k of each row taken as 4^-k times itself
    if np.count_nonzero(norm == np.inf):
        huge = (norm == np.inf).nonzero()[0]
        parts = np.abs(a[huge].reshape(len(huge), -1).view(np.float64)).max(axis=1)
        k = (np.frexp(parts)[1] - 399) // 2  # parts < 2^e, and 2^(e - 2k) <= 2^400
        a = a.copy()
        a[huge] *= np.ldexp(1.0, -2 * k)[:, None, None]
        skew[huge], norm[huge] = _skew_and_norm(a[huge])
        units = dict(zip(huge.tolist(), np.ldexp(1.0, 2 * k).tolist()))
    bound = 1.0 + norm  # at least 1 + ||A||
    reach, herm = (2.0 * TOL_BRANCH) * bound, skew <= 1e-13 * bound
    count = np.count_nonzero(herm)
    general = trusted = None
    if count == len(a):  # the whole stack, an empty one too, goes uncopied
        root = _roots_by_eigh(a, reach, errs, range(len(a)), units)
    elif count == 0:
        general = np.arange(len(a))
        root, w, trusted = _roots_by_eig(a, reach, errs, range(len(a)), units)
    else:
        root = np.empty_like(a)
        rows, general = herm.nonzero()[0], (~herm).nonzero()[0]
        root[rows] = _roots_by_eigh(a[rows], reach[rows], errs, rows.tolist(), units)
        root[general], w, trusted = _roots_by_eig(a[general], reach[general], errs,
                                                  general.tolist(), units)

    def iterate(take):  # the iteration's roots of the rows of ``general`` that ``take`` marks
        rows = general[take]
        root[rows] = _roots_by_iteration(a[rows], w[take])
        return rows

    # A row whose eigenvectors leave its diagonalization untrusted takes the
    # iteration before the reconstruction test (a failed row ran on the
    # identity, which is trusted), and a trusted row that fails the test
    # takes it after, and then the test again.
    if trusted is not None and np.count_nonzero(~trusted):
        iterate(~trusted)
    failed = _misfits(root @ root - a, a, errs)
    if failed.size:
        if trusted is not None:
            again = np.zeros(len(a), dtype=bool)
            again[failed] = True
            again = again[general] & trusted
            if np.count_nonzero(again):
                rows = iterate(again)
                failed = np.union1d(np.setdiff1d(failed, rows), rows[_misfits(
                    root[rows] @ root[rows] - a[rows], a[rows])])
        for row in failed.tolist():
            errs[row] = NumericalError("principal square root failed to reconstruct its input")
        # a root that is not finite gives way to the identity, the stand-in of finite_rows
        root[failed[~np.isfinite(root[failed]).all(axis=(1, 2))]] = np.eye(a.shape[-1])
    for row, unit in units.items():
        if row not in errs:
            root[row] *= math.sqrt(unit)
    settle(errs, errors)
    return root.reshape(lead + a.shape[1:])


def _eigenbasis(s: np.ndarray, hermitian: bool, errs: dict, rows) -> tuple:
    # The eigenvalues and eigenvectors V of each matrix of ``s``, by eigh or by
    # eig, and inv(V); a row whose eigensolver fails gets zeros and its error
    failed = {}
    if hermitian:
        w, v = _eigh(hermitize(s), failed, vectors=True)
        vinv = _ct(v)
    else:
        w, v = _eig(s, failed)
        vinv = _inverses(v)
    for i, exc in failed.items():
        errs[rows[i]] = exc
    return w, v, vinv


def sqrt_derivative(root, k, errors: dict | None = None) -> np.ndarray:
    """The solution L of S L + L S = K for each root S of ``root`` and direction K of ``k``.

    When S is the principal square root of A, L is the derivative of the root
    at A in the direction K (Higham, "Functions of Matrices", sec. 6.1).  It is
    solved in the eigenbasis of S, by ``eigh`` when S is Hermitian within the
    test :func:`principal_sqrt` makes and by ``eig`` otherwise.  A row whose
    residual fails ||S L + L S - K|| <= TOL_RECON (1 + ||K||), screened as a
    root's residual is, and a row whose eigensolver fails is a failed row, and
    gets zeros.
    """
    s, lead = as_stack(root)
    k = np.asarray(k, dtype=np.complex128).reshape(s.shape)
    errs = {}
    skew, norm = _skew_and_norm(s)
    herm = skew <= 1e-13 * (1.0 + norm)
    count = np.count_nonzero(herm)
    if count in (0, len(s)):  # the whole stack, an empty one too, goes uncopied
        w, v, vinv = _eigenbasis(s, count == len(s), errs, range(len(s)))
    else:
        w, v, vinv = np.empty(s.shape[:-1], complex), np.empty_like(s), np.empty_like(s)
        for rows, hermitian in ((herm.nonzero()[0], True), ((~herm).nonzero()[0], False)):
            w[rows], v[rows], vinv[rows] = _eigenbasis(s[rows], hermitian, errs, rows.tolist())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        der = v @ ((vinv @ k @ v) / (w[:, :, None] + w[:, None, :])) @ vinv
        failed = _misfits(s @ der + der @ s - k, k, errs)
    for row in failed.tolist():
        errs[row] = NumericalError("square-root derivative failed its residual test")
    der[list(errs)] = 0.0
    settle(errs, errors)
    return der.reshape(lead + s.shape[1:])


def func_calc(fn: Callable[[np.ndarray], np.ndarray], a,
              domain: tuple[float, float] = (-np.inf, np.inf),
              errors: dict | None = None) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigenvalues.

    ``fn`` must map an array of eigenvalues to real values elementwise; each
    matrix's spectrum must lie in the open interval ``domain``.  A matrix that
    :func:`herm_eig` fails on, or with an eigenvalue outside ``domain``, is
    a failed row and gets the zero matrix; ``fn`` sees the eigenvalues of
    the other rows only.
    """
    lo, hi = domain
    a, lead = as_stack(a)
    errs = {}
    w, u = herm_eig(a, errs)
    outside = (w <= lo) | (w >= hi)
    for row in np.flatnonzero(outside.any(axis=1)):
        errs.setdefault(row, SpectrumDomainError(
            f"eigenvalue {float(w[row][outside[row]][0])!r} outside the open interval ({lo}, {hi})"))
    ok = np.array([row not in errs for row in range(len(w))], dtype=bool)
    vals = np.zeros_like(w)
    vals[ok] = fn(w[ok])
    settle(errs, errors)
    return hermitize((u * vals[:, np.newaxis, :]) @ _ct(u)).reshape(lead + a.shape[1:])


# --------------------------------------------------------------------------
# Reproducible randomness: a counter-based generator addressed by
# (seed, stream), with Gaussians drawn through Box-Muller so the byte
# stream is identical on every platform.  A substream's stream is the
# BLAKE2b digest of its parent's stream and its tags, each part's repr
# followed by a 0x1f separator.  BLAKE2b hashes a stream of bytes, so a
# hash copied after a shared prefix gives each trial of a chunk the digest
# it would get alone (``Rng.split_each``).  Philox4x64-10 is a pure function
# of (key, counter), so one bit generator serves every row: a row is its
# key and the number of uint64s its stream has given, and a draw sets the
# bit generator to that place in the row's stream.

def _tagged(parts) -> bytes:
    return b"".join(repr(part).encode() + b"\x1f" for part in parts)


def _digest(h) -> int:
    return int.from_bytes(h.digest(), "little")


def _mix(*parts) -> int:
    return _digest(hashlib.blake2b(_tagged(parts), digest_size=8))


@dataclass(frozen=True)
class Rng:
    """Value-type handle on a counter-based random stream.

    Identical ``(seed, stream)`` pairs reproduce identical draw sequences;
    ``split`` derives statistically independent substreams deterministically.
    """

    seed: int
    stream: int = 0

    def split(self, *tags) -> "Rng":
        return Rng(self.seed, _mix(self.stream, *tags))

    def split_each(self, ts, *tags) -> list:
        """``[self.split(*tags, t) for t in ts]``, hashing the shared prefix once."""
        prefix = hashlib.blake2b(_tagged((self.stream, *tags)), digest_size=8)
        out = []
        for t in ts:
            h = prefix.copy()
            h.update(repr(t).encode() + b"\x1f")  # _tagged((t,))
            out.append(Rng(self.seed, _digest(h)))
        return out

    def generator(self) -> np.random.Generator:
        """The reference stream of this Rng: the samplers draw its bits, in its order."""
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


# The one bit generator every row draws through, and the state a draw sets
# on it (plain ints, which the state setter reads faster than uint64 arrays).
# One per process, since building a Philox costs several times a row's draw.
# A draw holds _DRAW_LOCK, not the bit generator's own lock, which
# Generator.random takes and which is not reentrant.  Every draw sets the
# whole state, so no draw sees another's.
_PHILOX = np.random.Philox(key=0)
_DRAW = np.random.Generator(_PHILOX)
_DRAW_LOCK = threading.Lock()
_DRAW_STATE = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": (0, 0)},
               "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _generators(rng) -> tuple[list, tuple]:
    # the stream of each Rng of ``rng`` in flat order, as [Philox key, uint64s
    # drawn so far], and the shape of ``rng``
    rngs = np.asarray(rng, dtype=object)
    return [[(r.seed & _MASK64, r.stream & _MASK64), 0] for r in rngs.flat], rngs.shape


def _uniforms(rows: list, count: int) -> np.ndarray:
    """The next ``count`` uniform doubles of each row's stream, one row per line;
    the bits ``Rng.generator().random`` gives at the same place."""
    out = np.empty((len(rows), count))
    with _DRAW_LOCK:
        for i, row in enumerate(rows):
            key, drawn = row
            # NumPy's Philox makes block c (4 uint64s) at counter c + 1, and
            # buffer_pos 4 drops any buffered block
            _DRAW_STATE["state"]["counter"][0] = drawn // 4
            _DRAW_STATE["state"]["key"] = key
            _PHILOX.state = _DRAW_STATE
            out[i] = _DRAW.random(drawn % 4 + count)[drawn % 4:]
            row[1] = drawn + count
    return out


def _haar(g: np.ndarray) -> np.ndarray:
    # QR of Ginibre draws with each R diagonal's phases folded in (Haar)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]


# kind -> the matrices it makes of a stack of Ginibre draws
_FROM_GINIBRE = {
    "ginibre": lambda g: g,
    "hermitian": hermitize,
    "psd": lambda g: _ct(g) @ g,
    "pd": lambda g: _ct(g) @ g + 0.1 * np.eye(g.shape[-1]),
    "unitary": _haar,
}


def matrix_from_uniforms(kind: str, u: np.ndarray, n: int) -> np.ndarray:
    """n-by-n matrices of the named kind, one per 2 n^2 uniform doubles along the last axis of ``u``.

    Box-Muller makes a Ginibre matrix of them, and the kind is made of that: the
    first n^2 uniforms give the radii, the others the angles; cosines make
    the real parts and sines the imaginary parts.
    """
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., : n * n]))  # 1 - u in (0, 1]: keeps log() finite
    angle = 2.0 * np.pi * u[..., n * n:]
    g = (r * np.cos(angle) + 1j * (r * np.sin(angle))).reshape(u.shape[:-1] + (n, n))
    return _FROM_GINIBRE[kind](g)


def random_matrix(kind: str, n: int, rng) -> np.ndarray:
    """Draw one matrix of the named kind from one Rng, or a stack from an array of them."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if kind not in _FROM_GINIBRE:
        raise ValueError(f"unknown random matrix kind {kind!r}")
    gens, lead = _generators(rng)
    return matrix_from_uniforms(kind, _uniforms(gens, 2 * n * n), n).reshape(lead + (n, n))


# --------------------------------------------------------------------------
# Matrix JSON encoding: {"n": int, "entries": [[[re, im], ...], ...]} row-major.

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {
        "n": int(a.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]``, which must be a JSON integer: a float, a string or a
    boolean is a ``ValueError``, not a number to truncate."""
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def matrix_from_json(doc: dict) -> np.ndarray:
    n = _json_int(doc, "n")
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    entries = doc["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("matrix JSON entries do not match the declared size")
    out = np.array([complex(re, im) for row in entries for re, im in row], dtype=np.complex128)
    return as_matrix(out.reshape(n, n))
