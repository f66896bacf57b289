"""Concrete operator systems and the matrix universe above them.

An operator system is given by a self-adjoint basis ``E_1..E_m`` of k-by-k
matrices whose real span contains the identity.  A point at level n is one
n-by-n complex coefficient matrix per basis element, held as a single
read-only ``(m, n, n)`` array; ``realize`` assembles the (n*k)-by-(n*k)
matrix ``sum_j kron(E_j, A_j)``, a k-by-k grid of n-by-n blocks.  The
ambient index is kept outermost so block (p, q) of the realization is
``sum_j E_j[p, q] * A_j``, a plain linear read of the coefficients; it is
built from the basis's table of nonzero entries, one scaled add per entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .kernels import (
    NonFiniteError,
    Rng,
    SamplingError,
    as_matrix,
    draw_hermitian,
    hermitize,
    is_hermitian,
    op_norm,
)


class NotInImageError(Exception):
    """The matrix does not decode into the system's realization image."""


@dataclass(frozen=True, eq=False)
class OpSysBasis:
    """Self-adjoint matrix basis with the identity in its real span."""

    name: str
    k: int
    basis: tuple
    id_coeffs: tuple

    def __post_init__(self):
        mats = []
        for e in self.basis:
            e = as_matrix(e)
            if e.shape[0] != self.k:
                raise ValueError("basis element size does not match the ambient side length")
            if not is_hermitian(e):
                raise ValueError("basis elements must be Hermitian")
            e = hermitize(e)
            e.setflags(write=False)
            mats.append(e)
        if len(self.id_coeffs) != len(mats):
            raise ValueError("id_coeffs length must equal the basis size")
        object.__setattr__(self, "basis", tuple(mats))
        object.__setattr__(self, "id_coeffs", tuple(float(c) for c in self.id_coeffs))
        gram = self._gram()
        if np.linalg.matrix_rank(gram) < len(mats):
            raise ValueError("basis elements are not linearly independent over the reals")
        ident = sum(c * e for c, e in zip(self.id_coeffs, self.basis))
        if op_norm(ident - np.eye(self.k)) > 1e-12 * (1.0 + np.sqrt(self.k)):
            raise ValueError("id_coeffs do not combine the basis into the identity")

    @property
    def size(self) -> int:
        return len(self.basis)

    def _gram(self) -> np.ndarray:
        m = self.size
        g = np.empty((m, m))
        for i, ei in enumerate(self.basis):
            for j, ej in enumerate(self.basis):
                g[i, j] = float(np.trace(ei @ ej).real)
        return g

    @cached_property
    def dual_basis(self) -> np.ndarray:
        """Dual frame under <A, B> = Re tr(A* B): tr(F_i E_j) = delta_ij."""
        inv = np.linalg.inv(self._gram())
        return np.einsum("ij,jkl->ikl", inv, np.stack(self.basis))

    @cached_property
    def terms(self) -> tuple:
        """``(j, p, q, E_j[p, q])`` for every nonzero basis entry, in basis order."""
        return tuple((j, int(p), int(q), complex(e[p, q]))
                     for j, e in enumerate(self.basis) for p, q in zip(*np.nonzero(e)))


@dataclass(frozen=True, eq=False)
class NCPoint:
    """Element of the level-n slice of the matrix universe over a system.

    ``coeffs`` is given as any sequence of m square matrices of one size and
    kept as a read-only complex ``(m, n, n)`` array; ``coeffs[j]`` is A_j.
    """

    system: OpSysBasis
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != self.system.size:
            raise ValueError("coefficient count must equal the basis size")
        try:
            coeffs = np.array(self.coeffs, dtype=np.complex128)
        except ValueError:  # ragged: the coefficients differ in shape
            coeffs = None
        if coeffs is None or coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            for a in self.coeffs:
                as_matrix(a)  # names a coefficient that is not a finite square matrix
            raise ValueError("all coefficients must share one level")
        if not np.isfinite(coeffs).all():
            raise NonFiniteError("matrix entries must all be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def level(self) -> int:
        return self.coeffs.shape[1]

    def __add__(self, other: "NCPoint") -> "NCPoint":
        _require_compatible(self, other)
        return NCPoint(self.system, self.coeffs + other.coeffs)

    def __sub__(self, other: "NCPoint") -> "NCPoint":
        _require_compatible(self, other)
        return NCPoint(self.system, self.coeffs - other.coeffs)

    def __neg__(self) -> "NCPoint":
        return NCPoint(self.system, -self.coeffs)

    def __mul__(self, scalar) -> "NCPoint":
        return NCPoint(self.system, complex(scalar) * self.coeffs)

    __rmul__ = __mul__


def _require_compatible(p: NCPoint, q: NCPoint):
    if p.system.name != q.system.name:
        raise ValueError(f"system mismatch: {p.system.name!r} vs {q.system.name!r}")
    if p.level != q.level:
        raise ValueError(f"level mismatch: {p.level} vs {q.level}")


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Free domain descriptor, closed under direct sums and unitary conjugation."""

    kind: str  # full | pd_cone | spectral_interval
    system: OpSysBasis
    a: float = float("-inf")
    b: float = float("inf")


def full_domain(system: OpSysBasis) -> DomainSpec:
    return DomainSpec("full", system)


def pd_cone(system: OpSysBasis) -> DomainSpec:
    return DomainSpec("pd_cone", system)


def spectral_interval(system: OpSysBasis, a: float, b: float) -> DomainSpec:
    if not a < b:
        raise ValueError("interval endpoints must satisfy a < b")
    return DomainSpec("spectral_interval", system, float(a), float(b))


# --------------------------------------------------------------------------
# Built-in systems.

def builtin_system(name: str) -> OpSysBasis:
    """scalar | diagonal(d) | block2."""
    if name == "scalar":
        return OpSysBasis("scalar", 1, (np.eye(1),), (1.0,))
    m = re.fullmatch(r"diagonal\((\d+)\)", name)
    if m:
        d = int(m.group(1))
        if d < 1:
            raise ValueError("diagonal system needs at least one slot")
        units = []
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[j, j] = 1.0
            units.append(e)
        return OpSysBasis(name, d, tuple(units), (1.0,) * d)
    if name == "block2":
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        re_off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        im_off = np.array([[0.0, 1j], [-1j, 0.0]], dtype=np.complex128)
        return OpSysBasis("block2", 2, (e11, e22, re_off, im_off), (1.0, 1.0, 0.0, 0.0))
    raise ValueError(f"unknown operator system {name!r}")


# --------------------------------------------------------------------------
# Core operations.

def realize(point: NCPoint) -> np.ndarray:
    """Assemble sum_j kron(E_j, A_j) as one (n*k)-by-(n*k) matrix.

    Block (p, q) accumulates ``E_j[p, q] * A_j`` over the basis's nonzero
    entries in basis order.  That is the kron sum bit for bit: a skipped
    zero entry adds only a signed zero, which changes no nonzero sum, and a
    zero sum starting from +0 is +0 either way.
    """
    system, n, coeffs = point.system, point.level, point.coeffs
    k = system.k
    acc = np.zeros((k, n, k, n), dtype=np.complex128)
    for j, p, q, w in system.terms:
        acc[p, :, q, :] += w * coeffs[j]
    return acc.reshape(k * n, k * n)


def decode(m, system: OpSysBasis, level: int) -> NCPoint:
    """Invert ``realize`` on its image via the dual frame, extended complex-linearly.

    Raises :class:`NotInImageError` when the reassembly residual exceeds
    ``1e-9 * (1 + ||m||)``.
    """
    m = as_matrix(m)
    k, n = system.k, int(level)
    if m.shape[0] != n * k:
        raise ValueError(f"matrix side {m.shape[0]} does not equal level*k = {n * k}")
    blocks = m.reshape(k, n, k, n)
    coeffs = []
    for dual in system.dual_basis:
        acc = np.zeros((n, n), dtype=np.complex128)
        for p in range(k):
            for q in range(k):
                w = dual[p, q]
                if w != 0:
                    acc = acc + w * blocks[q, :, p, :]
        coeffs.append(acc)
    point = NCPoint(system, tuple(coeffs))
    back = realize(point)
    if np.array_equal(back, m):  # exact round trip: the residual is 0
        return point
    resid = op_norm(back - m)
    if resid > 1e-9 * (1.0 + op_norm(m)):
        raise NotInImageError(
            f"matrix is not in the realization image (residual {resid:.3e})"
        )
    return point


def is_hermitian_point(point: NCPoint) -> bool:
    """True when every coefficient is Hermitian."""
    return all(is_hermitian(a) for a in point.coeffs)


def order_leq(p: NCPoint, q: NCPoint, tol: float = kernels.TOL_PSD) -> bool:
    """Semidefinite order: true when realize(q) - realize(p) is PSD within tol."""
    _require_compatible(p, q)
    if not (is_hermitian_point(p) and is_hermitian_point(q)):
        raise ValueError("order is defined between Hermitian points only")
    w = np.linalg.eigvalsh(hermitize(realize(q - p)))
    return float(w[0]) >= -tol * (1.0 + max(abs(float(w[0])), abs(float(w[-1]))))


def direct_sum(p: NCPoint, q: NCPoint) -> NCPoint:
    """Coefficientwise block-diagonal sum; output level is the sum of levels."""
    if p.system.name != q.system.name:
        raise ValueError("direct sum requires points over the same system")
    n, m = p.level, q.level
    coeffs = []
    for a, b in zip(p.coeffs, q.coeffs):
        c = np.zeros((n + m, n + m), dtype=np.complex128)
        c[:n, :n] = a
        c[n:, n:] = b
        coeffs.append(c)
    return NCPoint(p.system, tuple(coeffs))


def conjugate(p: NCPoint, s) -> NCPoint:
    """Coefficientwise similarity S^{-1} A_j S."""
    s = as_matrix(s)
    if s.shape[0] != p.level:
        raise ValueError("conjugating matrix must match the point's level")
    s_inv = kernels.safe_inv(s)
    return NCPoint(p.system, tuple(s_inv @ a @ s for a in p.coeffs))


def identity_point(system: OpSysBasis, level: int) -> NCPoint:
    """The point realizing the identity matrix."""
    eye = np.eye(level, dtype=np.complex128)
    return NCPoint(system, tuple(c * eye for c in system.id_coeffs))


def shuffle_permutation(k: int, n: int, m: int) -> np.ndarray:
    """Index permutation relating realize(P (+) Q) to realize(P) (+) realize(Q).

    With ``perm`` the returned array and ``R = blockdiag(realize(P), realize(Q))``,
    ``realize(direct_sum(P, Q)) == R[ix_(perm, perm)]`` exactly: index
    (ambient block p, summand s, inner i) is mapped to the stacked layout.
    """
    perm = np.empty(k * (n + m), dtype=np.intp)
    for p in range(k):
        for i in range(n):
            perm[p * (n + m) + i] = p * n + i
        for i in range(m):
            perm[p * (n + m) + n + i] = k * n + p * m + i
    return perm


def in_domain(point: NCPoint, domain: DomainSpec) -> bool:
    """Membership predicate; interval and cone slices shrink by ``TOL_PSD`` for openness."""
    tol = kernels.TOL_PSD
    if point.system.name != domain.system.name:
        raise ValueError("point and domain refer to different systems")
    if domain.kind == "full":
        return True
    if not is_hermitian_point(point):
        return False
    w = np.linalg.eigvalsh(hermitize(realize(point)))
    if domain.kind == "pd_cone":
        return float(w[0]) > tol
    if domain.kind == "spectral_interval":
        return float(w[0]) > domain.a + tol and float(w[-1]) < domain.b - tol
    raise ValueError(f"unknown domain kind {domain.kind!r}")


# --------------------------------------------------------------------------
# Samplers.  All are pure functions of their Rng argument.

def _hermitian_point(system: OpSysBasis, level: int, gen) -> NCPoint:
    return NCPoint(system, tuple(draw_hermitian(gen, level) for _ in range(system.size)))


def _psd_point(system: OpSysBasis, level: int, gen) -> NCPoint:
    # Shift a Hermitian draw until its realization clears margin >= 0.1.
    g = _hermitian_point(system, level, gen)
    margin = kernels.min_eig_h(hermitize(realize(g)))
    shift = max(0.0, -margin) + 0.1 + 0.9 * float(gen.random())
    return g + shift * identity_point(system, level)


def _draw_in_domain(domain: DomainSpec, level: int, gen) -> NCPoint:
    system = domain.system
    if domain.kind == "full":
        return _hermitian_point(system, level, gen)
    g = _hermitian_point(system, level, gen)
    w = np.linalg.eigvalsh(hermitize(realize(g)))
    lo, hi = float(w[0]), float(w[-1])
    a, b = domain.a, domain.b
    if domain.kind == "pd_cone":
        a, b = 0.0, float("inf")
    if np.isinf(a) and np.isinf(b):
        return g
    ident = identity_point(system, level)
    if np.isinf(b):
        shift = a + 0.1 + 0.9 * float(gen.random()) - lo
        return g + shift * ident
    if np.isinf(a):
        shift = b - 0.1 - 0.9 * float(gen.random()) - hi
        return g + shift * ident
    # Finite interval: affine map of the spectrum into a random interior window.
    width = b - a
    start = a + width * (0.05 + 0.2 * float(gen.random()))
    target = width * (0.3 + 0.4 * float(gen.random()))
    alpha = target / max(hi - lo, 1e-9)
    beta = start - alpha * lo
    return alpha * g + beta * ident


def sample_point(domain: DomainSpec, level: int, rng: Rng, budget: int = 1000) -> NCPoint:
    """Draw one point of the domain's level-n slice."""
    gen = rng.generator()
    for _ in range(budget):
        p = _draw_in_domain(domain, level, gen)
        if in_domain(p, domain):
            return p
    raise SamplingError(f"could not draw a point of {domain.kind} within {budget} attempts")


def sample_ordered_pair(domain: DomainSpec, level: int, rng: Rng,
                        t_scale: float = 1.0, budget: int = 1000) -> tuple[NCPoint, NCPoint]:
    """Draw Hermitian ``(P, Q)`` with both in the domain and ``P <= Q``.

    Q is P plus a scaled PSD Hermitian point; the scale is bisected down
    until Q stays in the domain.
    """
    gen = rng.generator()
    for _ in range(budget):
        p = _draw_in_domain(domain, level, gen)
        if not in_domain(p, domain):
            continue
        h = _psd_point(domain.system, level, gen)
        t = t_scale * (0.2 + 0.8 * float(gen.random()))
        for _ in range(60):
            q = p + t * h
            if in_domain(q, domain):
                return p, q
            if t == 0.0:
                break
            t /= 2.0
    raise SamplingError(f"ordered-pair sampling budget ({budget}) exhausted")


def sample_halfplane(system: OpSysBasis, level: int, rng: Rng) -> NCPoint:
    """Draw P = H + iK with K realizing a positive definite matrix."""
    gen = rng.generator()
    h = _hermitian_point(system, level, gen)
    k = _psd_point(system, level, gen)
    return h + 1j * k


# --------------------------------------------------------------------------
# JSON encodings.

def point_to_json(point: NCPoint) -> dict:
    return {
        "system": point.system.name,
        "level": point.level,
        "coeffs": [kernels.matrix_to_json(a) for a in point.coeffs],
    }


def point_from_json(doc: dict, system: OpSysBasis | None = None) -> NCPoint:
    name = doc["system"]
    if system is None:
        system = builtin_system(name)
    elif system.name != name:
        raise ValueError(f"point JSON names system {name!r}, expected {system.name!r}")
    coeffs = tuple(kernels.matrix_from_json(c) for c in doc["coeffs"])
    point = NCPoint(system, coeffs)
    if point.level != int(doc["level"]):
        raise ValueError("point JSON level does not match its coefficients")
    return point


def system_to_json(system: OpSysBasis) -> dict:
    return {
        "k": system.k,
        "basis": [kernels.matrix_to_json(e) for e in system.basis],
        "id_coeffs": [float(c) for c in system.id_coeffs],
        "name": system.name,
    }


def system_from_json(doc: dict) -> OpSysBasis:
    return OpSysBasis(
        name=doc["name"],
        k=int(doc["k"]),
        basis=tuple(kernels.matrix_from_json(e) for e in doc["basis"]),
        id_coeffs=tuple(float(c) for c in doc["id_coeffs"]),
    )
