"""Dense complex matrix kernels.

Everything downstream reduces to the routines here: Hermitian eigenwork,
semidefiniteness margins, principal square roots, the scalar functional
calculus, and reproducible random matrix generation.

Tolerance convention: a comparison at tolerance ``t`` against a matrix
``A`` is made relative to ``t * (1 + ||A||)``, with ``||.||`` the operator
(spectral) norm.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

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


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value (0.0 for a 0-by-0 matrix)."""
    sv = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return float(sv.max(initial=0.0))


def hermitize(a) -> np.ndarray:
    """Hermitian part (A + A*) / 2."""
    a = np.asarray(a, dtype=np.complex128)
    return (a + a.conj().T) / 2.0


def is_hermitian(a) -> bool:
    """True when A equals its conjugate transpose within ``TOL_HERM * (1 + ||A||)``."""
    a = as_matrix(a)
    if np.array_equal(a, a.conj().T):  # exact: the tolerance test below would pass
        return True
    return op_norm(a - a.conj().T) <= TOL_HERM * (1.0 + op_norm(a))


def require_hermitian(a) -> np.ndarray:
    """Return the canonically symmetrized copy of A, or raise if not Hermitian."""
    a = as_matrix(a)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    return hermitize(a)


def imag_part(a) -> np.ndarray:
    """Imaginary part (A - A*) / 2i, exactly Hermitian by construction."""
    a = as_matrix(a)
    b = (a - a.conj().T) * (-0.5j)
    return (b + b.conj().T) / 2.0


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and ``u`` unitary so
    that ``a = u @ diag(w) @ u*``.
    """
    a = require_hermitian(a)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    return w, u


def min_eig_h(a) -> float:
    """Minimum eigenvalue, input trusted to be Hermitian (no validation)."""
    try:
        return float(np.linalg.eigvalsh(a)[0])
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc


def scaled_min_eig(a) -> float:
    """min eig / (1 + ||A||) for Hermitian A, in one eigendecomposition."""
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    return float(w[0]) / (1.0 + max(abs(float(w[0])), abs(float(w[-1]))))


def safe_inv(a) -> np.ndarray:
    """Matrix inverse guarded by a condition estimate."""
    a = as_matrix(a)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 0.0 or not np.isfinite(sv[0]) or sv[0] / sv[-1] > COND_LIMIT:
        raise SingularMatrixError("condition estimate exceeds 1e12; inverse not trusted")
    return np.linalg.inv(a)


def _sqrt_triu(t: np.ndarray) -> np.ndarray:
    # Triangular square-root recurrence; diagonal entries fix the branch.
    n = t.shape[0]
    s = np.zeros_like(t)
    np.fill_diagonal(s, np.sqrt(np.diag(t)))
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = t[i, j] - s[i, i + 1:j] @ s[i + 1:j, j]
            s[i, j] = acc / (s[i, i] + s[j, j])
    return s


def principal_sqrt(a) -> np.ndarray:
    """Principal matrix square root via complex triangularization.

    Requires the spectrum to stay off the closed ray (-inf, 0]; every
    eigenvalue of the result has strictly positive real part.  Hermitian
    inputs take the eigendecomposition shortcut (same branch, same errors).
    """
    a = as_matrix(a)
    scale = 1.0 + op_norm(a)
    if np.linalg.norm(a - a.conj().T) <= 1e-13 * (1.0 + np.linalg.norm(a)):
        w, u = np.linalg.eigh(hermitize(a))
        # Real spectrum: any eigenvalue at or below the branch tolerance
        # sits on the closed negative ray.
        if w[0] <= TOL_BRANCH * scale:
            raise BranchCutError(
                f"eigenvalue {float(w[0])} within {TOL_BRANCH:g} of the closed ray (-inf, 0]"
            )
        root = ((u * np.sqrt(w)) @ u.conj().T).astype(np.complex128)
    else:
        try:
            t, z = scipy.linalg.schur(a, output="complex")
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise EigensolverError(f"Schur triangularization failed: {exc}") from exc
        w = np.diag(t)
        dist = np.where(w.real > 0.0, np.abs(w), np.abs(w.imag))
        if np.any(dist <= TOL_BRANCH * scale):
            worst = w[np.argmin(dist)]
            raise BranchCutError(
                f"eigenvalue {worst} within {TOL_BRANCH:g} of the closed ray (-inf, 0]"
            )
        s = _sqrt_triu(t)
        root = z @ s @ z.conj().T
    if op_norm(root @ root - a) > TOL_RECON * scale:
        raise NumericalError("principal square root failed to reconstruct its input")
    return root


def func_calc(fn: Callable[[np.ndarray], np.ndarray], a,
              domain: tuple[float, float] = (-np.inf, np.inf)) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigenvalues.

    ``fn`` must accept a vector of eigenvalues; the spectrum must lie in the
    open interval ``domain``.
    """
    lo, hi = domain
    w, u = herm_eig(a)
    bad = (w <= lo) | (w >= hi)
    if bad.any():
        raise SpectrumDomainError(
            f"eigenvalue {float(w[bad][0])!r} outside the open interval ({lo}, {hi})"
        )
    vals = np.asarray(fn(w))
    return hermitize((u * vals) @ u.conj().T)


# --------------------------------------------------------------------------
# Reproducible randomness: a counter-based generator addressed by
# (seed, stream), with Gaussians drawn through Box-Muller so the byte
# stream is identical on every platform.

def _mix(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


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

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


def draw_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on uniform doubles."""
    half = (count + 1) // 2
    u1 = 1.0 - gen.random(half)  # (0, 1]: keeps log() finite
    u2 = gen.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:count]


def draw_ginibre(gen: np.random.Generator, n: int) -> np.ndarray:
    z = draw_normals(gen, 2 * n * n)
    return (z[: n * n] + 1j * z[n * n:]).reshape(n, n)


def draw_hermitian(gen: np.random.Generator, n: int) -> np.ndarray:
    g = draw_ginibre(gen, n)
    return (g + g.conj().T) / 2.0


def draw_psd(gen: np.random.Generator, n: int) -> np.ndarray:
    g = draw_ginibre(gen, n)
    return g.conj().T @ g


def draw_pd(gen: np.random.Generator, n: int, shift: float = 0.1) -> np.ndarray:
    return draw_psd(gen, n) + shift * np.eye(n)


def draw_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    # QR of a Ginibre draw with the R diagonal's phases folded in (Haar).
    q, r = np.linalg.qr(draw_ginibre(gen, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


_DRAWS = {
    "ginibre": draw_ginibre,
    "hermitian": draw_hermitian,
    "psd": draw_psd,
    "pd": draw_pd,
    "unitary": draw_unitary,
}


def random_matrix(kind: str, n: int, rng: Rng) -> np.ndarray:
    """Draw one matrix of the named kind; pure function of ``(kind, n, rng)``."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    try:
        draw = _DRAWS[kind]
    except KeyError:
        raise ValueError(f"unknown random matrix kind {kind!r}") from None
    return draw(rng.generator(), n)


# --------------------------------------------------------------------------
# Matrix JSON encoding: {"n": int, "entries": [[[re, im], ...], ...]} row-major.

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {
        "n": int(a.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }


def matrix_from_json(doc: dict) -> np.ndarray:
    n = int(doc["n"])
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    entries = doc["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("matrix JSON entries do not match the declared size")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(entries):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(re, im)
    return as_matrix(out)
