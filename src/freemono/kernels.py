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

Only NumPy is imported when the module loads.  SciPy's LAPACK bindings are
imported by the square root of a non-Hermitian stack, the one routine that
needs them, so a process that takes no such root never loads SciPy.
"""

from __future__ import annotations

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


def _eigh(a, errors: dict | None = None, vectors: bool = False):
    """Ascending eigenvalues of each matrix of ``a``, and with ``vectors`` also the
    unitary eigenvectors, as ``(w, u)``; a real ``a`` keeps the real solver.

    When the call fails, the matrices are solved one by one, and each one
    whose solver does not converge is a failed row with an
    :class:`EigensolverError`, and gets zeros.
    """
    a = np.asarray(a)
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        flat = a.reshape((-1,) + a.shape[-2:])
        w, u, errs = np.zeros(flat.shape[:-1]), np.zeros(flat.shape, np.result_type(a, 1.0)), {}
        for row, m in enumerate(flat):
            try:
                w[row], u[row] = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), 0.0)
            except np.linalg.LinAlgError as exc:
                errs[row] = EigensolverError(f"eigensolver did not converge: {exc}")
        settle(errs, errors)
        w = w.reshape(a.shape[:-1])
        return (w, u.reshape(a.shape)) if vectors else w


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


def _sqrt_triu(t: np.ndarray) -> np.ndarray:
    # The Bjorck-Hammarling recurrence for the square roots of a stack of upper
    # triangular matrices, one superdiagonal at a time: each entry needs only
    # entries of lower superdiagonals.  The diagonal fixes the branch.  Entry
    # (i, j) needs s[i, i+1:j] @ s[i+1:j, j], empty for j = i + 1; for a later
    # superdiagonal, x and y are views of those rows and columns, and x @ y is
    # the stack's 1-by-k times k-by-1 matmuls.  The views keep each matrix's
    # own strides, so BLAS sums each product as it does for one matrix: a
    # contiguous copy of the operands would change the rounding.
    rows, n = len(t), t.shape[-1]
    if n == 1:
        return np.sqrt(t)
    t = t.reshape(rows, n * n)
    s = np.zeros(t.shape, t.dtype)
    root = np.sqrt(t[:, ::n + 1])
    s[:, ::n + 1] = root
    den = (root[:, :, None] + root[:, None, :]).reshape(rows, n * n)  # s[i, i] + s[j, j]
    np.divide(t[:, 1::n + 1], den[:, 1::n + 1], out=s[:, 1::n + 1])
    b = s.itemsize
    row_steps, col_steps = (n * n * b, (n + 1) * b, 0, b), (n * n * b, (n + 1) * b, n * b, b)
    for off in range(2, n):
        m, k = n - off, off - 1
        diag = slice(off, off + m * (n + 1), n + 1)  # the entries (i, i + off)
        x = np.ndarray((rows, m, 1, k), s.dtype, s, b, row_steps)  # starts at s[0, 1]
        y = np.ndarray((rows, m, k, 1), s.dtype, s, (n + off) * b, col_steps)  # at s[1, off]
        np.divide(t[:, diag] - (x @ y)[..., 0, 0], den[:, diag], out=s[:, diag])
    return s.reshape(rows, n, n)


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


def _roots_by_eigh(a: np.ndarray, reach: np.ndarray, errs: dict, rows) -> np.ndarray:
    # Roots of Hermitian matrices from one stacked eigendecomposition.  The
    # zero eigenvalues of a failed row put it on the closed negative ray.
    failed = {}
    w, u = _eigh(hermitize(a), failed, vectors=True)
    cut = _near_cut(a, w[:, :1], reach)
    for i, value in cut.items():
        errs[rows[i]] = failed.get(i, _branch_cut(float(value)))
        w[i] = 1.0
    return (u * np.sqrt(w)[:, None, :]) @ _ct(u)


def _roots_by_schur(a: np.ndarray, reach: np.ndarray, errs: dict, rows) -> np.ndarray:
    # Roots of general matrices.  Only LAPACK's complex Schur form runs once
    # per matrix: ``zgees`` with its default workspace.  That gives what
    # ``scipy.linalg.schur`` gives, without the workspace query it makes per
    # matrix, as long as LAPACK's reduction runs unblocked (through n = 129
    # with OpenBLAS); a larger matrix can differ in the last bits.  The
    # branch-cut test, the triangular recurrence and the back-transform each
    # run once over the stack; a failed row runs on the identity.
    import scipy.linalg.lapack  # here, not at module level: see the module docstring

    gees, = scipy.linalg.lapack.get_lapack_funcs(("gees",), (a,))
    t, z = np.empty_like(a), np.empty_like(a)
    failed = {}
    for i, m in enumerate(a):
        t[i], _, _, z[i], _, info = gees(lambda value: None, m)  # a select function, unused
        if info:  # the text ``scipy.linalg.schur`` gives a failed ``gees`` without sorting
            why = (f"illegal value in {-info}-th argument of internal gees" if info < 0
                   else "Schur form not found. Possibly ill-conditioned.")
            failed[i] = EigensolverError(f"Schur triangularization failed: {why}")
    cut = _near_cut(a, t.diagonal(0, 1, 2), reach)
    for i in sorted(failed.keys() | cut.keys()):  # a failed row runs on the identity
        errs[rows[i]] = failed.get(i) or _branch_cut(cut[i])
        t[i] = z[i] = np.eye(a.shape[-1])
    return z @ _sqrt_triu(t) @ _ct(z)


def principal_sqrt(a, errors: dict | None = None) -> np.ndarray:
    """Principal matrix square root via complex triangularization.

    Requires the spectrum to stay off the closed ray (-inf, 0]; every
    eigenvalue of the result has strictly positive real part.  Hermitian
    inputs take the eigendecomposition shortcut (same branch, same errors),
    all of them by one stacked ``eigh``.

    Both tolerances scale with 1 + ||A||, and a row takes SVDs only when a
    screen leaves it unsure; each screen bounds what it replaces with a factor
    of two to spare, so every decision is the SVDs'.  An eigenvalue whose
    distance to the ray, real part or |Im| exceeds 2 (1 + ||A||_F) TOL_BRANCH
    is off the cut.  A residual with ||R||_F <= TOL_RECON / 2 passes; a
    non-finite one fails.
    """
    a, lead = as_stack(a)
    errs = {}
    a = finite_rows(a, errs)
    norms = _frobenius(np.concatenate([a - _ct(a), a]))
    skew, norm = norms[:len(a)], norms[len(a):]
    bound = 1.0 + norm  # at least 1 + ||A||
    reach, herm = (2.0 * TOL_BRANCH) * bound, skew <= 1e-13 * bound
    count = np.count_nonzero(herm)
    if count in (0, len(a)):  # the whole stack, an empty one too, goes uncopied
        roots = _roots_by_eigh if count == len(a) else _roots_by_schur
        root = roots(a, reach, errs, range(len(a)))
    else:
        root = np.empty_like(a)
        for rows, roots in ((herm.nonzero()[0], _roots_by_eigh),
                            ((~herm).nonzero()[0], _roots_by_schur)):
            root[rows] = roots(a[rows], reach[rows], errs, rows.tolist())
    resid = np.ascontiguousarray(root @ root - a)
    flat = resid.reshape(len(a), a.shape[-1] ** 2).view(np.float64)  # real and imaginary parts
    sure = np.vecdot(flat, flat) <= (0.5 * TOL_RECON) ** 2
    sure[list(errs)] = True  # a failed row keeps its first error and its stand-in
    if np.count_nonzero(sure) < len(a):
        unsure = (~sure).nonzero()[0]
        r = resid[unsure]
        finite = np.isfinite(r).all(axis=(1, 2))
        r[~finite] = 0.0
        r, m = np.split(op_norm(np.concatenate([r, a[unsure]])), 2)
        failed = unsure[~finite | (r > TOL_RECON * (1.0 + m))]
        for row in failed.tolist():
            errs.setdefault(row, NumericalError(
                "principal square root failed to reconstruct its input"))
        # a root that is not finite gives way to the identity, the stand-in of finite_rows
        root[failed[~np.isfinite(root[failed]).all(axis=(1, 2))]] = np.eye(a.shape[-1])
    settle(errs, errors)
    return root.reshape(lead + a.shape[1:])


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
