"""Concrete operator systems and the matrix universe above them.

An operator system is given by a self-adjoint basis ``E_1..E_m`` of k-by-k
matrices whose real span contains the identity.  A point at level n is one
n-by-n complex coefficient matrix per basis element, held as a single
read-only ``(m, n, n)`` array; ``realize`` assembles the (n*k)-by-(n*k)
matrix ``sum_j kron(E_j, A_j)``, a k-by-k grid of n-by-n blocks.  The
ambient index is kept outermost so block (p, q) of the realization is
``sum_j E_j[p, q] * A_j``, a plain linear read of the coefficients; it is
built from the basis's table of nonzero entries, one scaled add per entry.
A system whose basis is the one 1-by-1 matrix ``[1]``, such as ``scalar``
(the output system of every catalog function), is the identity frame:
``realize`` and ``decode`` are both ``m + 0.0`` there, which is exactly what
the entry table and the dual frame give, and since its image is every
matrix, ``decode`` makes no round trip.  It is told from the basis's values,
not its name.

A stack of points of one level holds an ``(..., m, n, n)`` array, any
leading shape including none, after the convention of
:mod:`freemono.kernels`: ``realize``, ``decode``, ``in_domain``,
``direct_sum`` and ``conjugate`` work on each point of a stack as they
would on it alone and keep the leading shape.  The samplers draw a stack
from an array of Rngs, each row drawing its own Rng's stream.  A try of a
rejection sampler makes one draw per row and one stacked eigendecomposition
of all its Hermitian draws; each candidate's spectrum is bounded from its
draw's, and ``in_domain`` decides only the rows those certified bounds leave
open.  An ordered pair's row rejected at P gives back the draw of its step,
so every row draws, accepts and rejects what it would alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .kernels import (
    NonFiniteError,
    SamplingError,
    _generators,
    _uniforms,
    as_matrix,
    finite_rows,
    hermitize,
    is_hermitian,
    op_norm,
    settle,
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
        if self.k < 1 or len(self.basis) == 0:
            raise ValueError("a system needs k >= 1 and a nonempty basis")
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
        if not np.isfinite(self.id_coeffs).all():
            raise ValueError("id_coeffs must be finite")
        gram = self._gram()
        if np.linalg.matrix_rank(gram) < len(mats):
            raise ValueError("basis elements are not linearly independent over the reals")
        if self.identity_defect > 1e-12 * (1.0 + np.sqrt(self.k)):
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
        dual = np.einsum("ij,jkl->ikl", inv, np.stack(self.basis))
        dual.setflags(write=False)
        return dual

    @cached_property
    def identity_defect(self) -> float:
        """``||sum_j c_j E_j - I||`` as computed; exactly 0.0 for the built-in systems."""
        ident = sum(c * e for c, e in zip(self.id_coeffs, self.basis))
        return float(op_norm(ident - np.eye(self.k)))

    @cached_property
    def basis_norms(self) -> np.ndarray:
        """The Frobenius norm of each basis element."""
        norms = np.array([np.linalg.norm(e) for e in self.basis])
        norms.setflags(write=False)
        return norms

    @cached_property
    def terms(self) -> tuple:
        """``(j, p, q, E_j[p, q])`` for every nonzero basis entry, in basis order."""
        return tuple((j, int(p), int(q), complex(e[p, q]))
                     for j, e in enumerate(self.basis) for p, q in zip(*np.nonzero(e)))

    @cached_property
    def identity_frame(self) -> bool:
        """True when the basis is the one 1-by-1 matrix ``[1]``, whatever the name:
        then ``realize`` and ``decode`` are both ``m + 0.0`` (see :func:`realize`)."""
        return self.k == 1 and self.size == 1 and bool(self.basis[0][0, 0] == 1.0)


@dataclass(frozen=True, eq=False)
class NCPoint:
    """Element of the level-n slice of the matrix universe over a system.

    ``coeffs`` is given as any sequence of m square matrices of one size and
    kept as a read-only complex ``(m, n, n)`` array; ``coeffs[j]`` is A_j.
    A stack of points (see the module docstring) holds ``(..., m, n, n)``;
    stacks come from the samplers, ``decode`` and :func:`stack_points`.
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
        _check_finite(coeffs)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def level(self) -> int:
        return self.coeffs.shape[-1]

    def __getitem__(self, rows) -> "NCPoint":
        """Point ``rows`` of a stack, or the stack of the points an index array selects."""
        if self.coeffs.ndim < 4:
            raise TypeError("only a stack of points can be indexed")
        return _point(self.system, self.coeffs[rows])

    def __add__(self, other: "NCPoint") -> "NCPoint":
        _require_compatible(self, other)
        return _point(self.system, _check_finite(self.coeffs + other.coeffs))

    def __sub__(self, other: "NCPoint") -> "NCPoint":
        _require_compatible(self, other)
        return _point(self.system, _check_finite(self.coeffs - other.coeffs))

    def __neg__(self) -> "NCPoint":
        return _point(self.system, -self.coeffs)

    def __mul__(self, scalar) -> "NCPoint":
        """Scale by a complex scalar, or each point of a stack by its own entry of a vector."""
        s = np.asarray(scalar, dtype=np.complex128)
        return _point(self.system, _check_finite(s.reshape(s.shape + (1, 1, 1)) * self.coeffs))

    __rmul__ = __mul__


def _check_finite(coeffs: np.ndarray) -> np.ndarray:
    if not np.isfinite(coeffs).all():
        raise NonFiniteError("matrix entries must all be finite")
    return coeffs


def _point(system: OpSysBasis, coeffs: np.ndarray) -> NCPoint:
    """A point, or a stack, that holds ``coeffs``: finite, and held by no one else.

    The array is made read-only, not copied.
    """
    coeffs.setflags(write=False)
    point = object.__new__(NCPoint)
    object.__setattr__(point, "system", system)
    object.__setattr__(point, "coeffs", coeffs)
    return point


def stack_points(*points: NCPoint) -> NCPoint:
    """The stack of the given points, and of the rows of the given stacks, in order."""
    for p in points[1:]:
        _require_compatible(points[0], p)
    return _point(points[0].system,
                  np.concatenate([p.coeffs.reshape((-1,) + p.coeffs.shape[-3:]) for p in points]))


def _require_compatible(p: NCPoint, q: NCPoint):
    if p.system.name != q.system.name:
        raise ValueError(f"system mismatch: {p.system.name!r} vs {q.system.name!r}")
    if p.level != q.level:
        raise ValueError(f"level mismatch: {p.level} vs {q.level}")


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """The free domain of the Hermitian points whose realization has its spectrum in
    the open interval ``(a, b)``; closed under direct sums and unitary conjugation.

    The full domain is (-inf, inf) and the positive-definite cone is (0, inf).
    """

    system: OpSysBasis
    a: float = float("-inf")
    b: float = float("inf")

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("interval endpoints must satisfy a < b")


def full_domain(system: OpSysBasis) -> DomainSpec:
    return DomainSpec(system)


def pd_cone(system: OpSysBasis) -> DomainSpec:
    return DomainSpec(system, 0.0)


def spectral_interval(system: OpSysBasis, a: float, b: float) -> DomainSpec:
    return DomainSpec(system, float(a), float(b))


# --------------------------------------------------------------------------
# Built-in systems.

DIAGONAL_MAX = 64  # the most slots of a diagonal(d) system: it holds d dense d-by-d units


@lru_cache(maxsize=128)  # bounded: "diagonal(02)" is a name of its own
def builtin_system(name: str) -> OpSysBasis:
    """scalar | diagonal(d) for 1 <= d <= ``DIAGONAL_MAX`` | block2.

    Built and validated at its first use, then shared: each call with one
    name returns the same frozen system, whose arrays are read-only.
    """
    if name == "scalar":
        return OpSysBasis("scalar", 1, (np.eye(1),), (1.0,))
    m = re.fullmatch(r"diagonal\(([0-9]+)\)", name)
    if m:
        d = int(m.group(1))
        if d < 1:
            raise ValueError("diagonal system needs at least one slot")
        if d > DIAGONAL_MAX:
            raise ValueError(f"diagonal system has at most {DIAGONAL_MAX} slots, got {d}")
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
    """Assemble sum_j kron(E_j, A_j) as one (n*k)-by-(n*k) matrix; one per point of a stack.

    Block (p, q) accumulates ``E_j[p, q] * A_j`` over the basis's nonzero
    entries in basis order.  That is the kron sum bit for bit: a skipped
    zero entry adds only a signed zero, which changes no nonzero sum, and a
    zero sum starting from +0 is +0 either way.

    For the identity frame (basis ``[1]``) that sum is ``A_1 + 0.0``:
    multiplying by ``1+0j`` keeps every finite part, up to the sign of a
    zero, and adding the product to the +0 start turns each zero into +0,
    just as adding +0.0 does.
    """
    system, n, coeffs = point.system, point.level, point.coeffs
    if system.identity_frame:
        return coeffs[..., 0, :, :] + 0.0
    k, stack = system.k, coeffs.shape[:-3]
    acc = np.zeros(stack + (k, n, k, n), dtype=np.complex128)
    for j, p, q, w in system.terms:
        acc[..., p, :, q, :] += w * coeffs[..., j, :, :]
    return acc.reshape(stack + (k * n, k * n))


def decode(m, system: OpSysBasis, level: int, errors: dict | None = None) -> NCPoint:
    """Invert ``realize`` on its image via the dual frame, extended complex-linearly.

    Raises :class:`NotInImageError` when the reassembly residual exceeds
    ``1e-9 * (1 + ||m||)``.  A matrix that is not finite or not in the
    image is a failed row and decodes to a finite stand-in.

    The identity frame's dual is its basis ``[1]``, so its coefficient is
    ``m + 0.0`` (see :func:`realize`), and since its image is every matrix,
    a finite row needs no round trip.
    """
    m, lead = kernels.as_stack(m)
    m = finite_rows(m, errors)
    k, n = system.k, int(level)
    if m.shape[-1] != n * k:
        raise ValueError(f"matrix side {m.shape[-1]} does not equal level*k = {n * k}")
    if system.identity_frame:
        return _point(system, (m + 0.0).reshape(lead + (1, n, n)))
    errs = {}
    blocks = m.reshape(len(m), k, n, k, n)
    coeffs = np.empty((len(m), system.size, n, n), dtype=np.complex128)
    for j, dual in enumerate(system.dual_basis):
        acc = np.zeros((len(m), n, n), dtype=np.complex128)
        for p in range(k):
            for q in range(k):
                w = dual[p, q]
                if w != 0:
                    acc = acc + w * blocks[:, q, :, p, :]
        coeffs[:, j] = acc
    if not np.isfinite(coeffs).all():  # the dual frame overflowed
        bad = ~np.isfinite(coeffs).all(axis=(1, 2, 3))
        for row in np.flatnonzero(bad):
            errs.setdefault(row, NonFiniteError("matrix entries must all be finite"))
        coeffs[bad] = 0.0
    point = _point(system, coeffs)
    back = realize(point)
    exact = (back == m).all(axis=(1, 2))  # an exact round trip has residual 0
    if np.count_nonzero(exact) < len(m):
        rows = np.flatnonzero(~exact)
        resid = op_norm(back[rows] - m[rows])
        bad = resid > 1e-9 * (1.0 + op_norm(m[rows]))
        for row, r in zip(rows[bad], resid[bad]):
            errs.setdefault(row, NotInImageError(
                f"matrix is not in the realization image (residual {r:.3e})"))
    settle(errs, errors)
    return _point(system, coeffs.reshape(lead + coeffs.shape[1:]))


def is_hermitian_point(point: NCPoint):
    """True when every coefficient is Hermitian."""
    return is_hermitian(point.coeffs).all(axis=-1)


def order_leq(p: NCPoint, q: NCPoint, tol: float = kernels.TOL_PSD) -> bool:
    """Semidefinite order: true when realize(q) - realize(p) is PSD within tol."""
    _require_compatible(p, q)
    if not (is_hermitian_point(p) and is_hermitian_point(q)):
        raise ValueError("order is defined between Hermitian points only")
    return bool(kernels.scaled_min_eig(hermitize(realize(q - p))) >= -tol)


def direct_sum(p: NCPoint, q: NCPoint) -> NCPoint:
    """Coefficientwise block-diagonal sum; output level is the sum of levels."""
    if p.system.name != q.system.name:
        raise ValueError("direct sum requires points over the same system")
    n = p.level
    c = np.zeros(p.coeffs.shape[:-2] + (n + q.level,) * 2, dtype=np.complex128)
    c[..., :n, :n] = p.coeffs
    c[..., n:, n:] = q.coeffs
    return _point(p.system, c)


def conjugate(p: NCPoint, s) -> NCPoint:
    """Coefficientwise similarity S^{-1} A_j S; a stack of points takes one S or one per point."""
    s, lead = kernels.as_stack(s)
    if s.shape[-1] != p.level:
        raise ValueError("conjugating matrix must match the point's level")
    s = s.reshape(lead + (1,) + s.shape[1:])  # broadcast over the coefficients
    return _point(p.system, _check_finite(kernels.safe_inv(s) @ p.coeffs @ s))


def identity_point(system: OpSysBasis, level: int) -> NCPoint:
    """The point realizing the identity matrix."""
    c = np.array(system.id_coeffs).reshape(-1, 1, 1)
    return _point(system, c * np.eye(level, dtype=np.complex128))


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


def in_domain(point: NCPoint, domain: DomainSpec):
    """Membership predicate; the interval shrinks by ``TOL_PSD`` at each end for openness."""
    tol = kernels.TOL_PSD
    if point.system.name != domain.system.name:
        raise ValueError("point and domain refer to different systems")
    w = kernels._eigh(hermitize(realize(point)))
    return is_hermitian_point(point) & (w[..., 0] > domain.a + tol) & (w[..., -1] < domain.b - tol)


# --------------------------------------------------------------------------
# Samplers.  All are pure functions of their Rng argument: one Rng draws
# one point, an array of them a stack of that shape, each row from its own
# Rng's stream (kernels._uniforms) and with the draws that row would make
# alone.  A point takes its uniforms in one draw (on Philox, drawing a then
# b uniforms equals drawing a + b).
#
# A try of a rejection sampler draws each row's uniforms once, and realizes
# and decomposes all its Hermitian draws as one stack: P's, and for an
# ordered pair also the PD step H's.  A candidate is a shift or a positive
# scaling of its draw, so bounds on its spectrum follow from its draw's
# (:func:`_bounds`), and ``in_domain`` decides only the rows those bounds
# leave open.  A pair's row rejected at P gives back its H draw, so its
# next try draws what a sampler that draws H only after accepting P draws.

SAMPLE_BUDGET = 1000  # tries of a rejection sampler's row before it gets a SamplingError


def _hermitian_point(system: OpSysBasis, level: int, u: np.ndarray) -> NCPoint:
    # a stack of Hermitian draws from 2 n^2 uniforms per coefficient and row
    u = u.reshape(len(u), system.size, 2 * level * level)
    return _point(system, kernels.matrix_from_uniforms("hermitian", u, level))


def _decomposed(system: OpSysBasis, level: int, *blocks: np.ndarray):
    # The Hermitian draws of each block of uniform rows, as one stack in block
    # order, and the least and greatest eigenvalues of their realizations, from
    # one stacked decomposition: (draws, lo, hi).
    g = _hermitian_point(system, level, np.concatenate(blocks))
    w = kernels._eigh(hermitize(realize(g)))
    return g, w[:, 0], w[:, -1]


def _bounds(g: NCPoint, lo, hi, beta, alpha=1.0) -> tuple:
    """Certified bounds ``(lower, upper)`` on the extreme eigenvalues that
    :func:`in_domain` computes for ``alpha G + beta I``, as the samplers build
    it from the Hermitian draws G whose realizations have the computed extreme
    eigenvalues ``lo`` and ``hi``; ``alpha >= 0`` and ``beta`` are per row."""
    # Let u = 2^-53, N = n k, m the basis size and sigma(X) = sum_j ||E_j||_F
    # ||X_j||_F, which bounds ||realize(X)||_F.  ``realize`` and ``hermitize``
    # round each entry by at most (m + 4) u times the sum of the magnitudes of
    # its terms, so by (m + 4) u sigma(X) in norm, and the eigenvalues LAPACK
    # computes for a Hermitian M are the exact ones of M + E with ||E|| <=
    # p(N) u ||M|| (Higham, "Accuracy and Stability of Numerical Algorithms",
    # ch. 19, for the Householder reduction; LAPACK Users' Guide sec. 4.7,
    # where p(N) is a modest function of N that its own error estimates take
    # as 1; here it is 16 N^2).  By Weyl's inequality each computed eigenvalue
    # of X is then within rho sigma(X) of the exact one, rho = (16 N^2 + 2m +
    # 8) u.  Exactly, realize(alpha G + beta I) = alpha realize(G) + beta (I +
    # D), D being the identity defect kron(sum_j c_j E_j - I, I_n), and forming
    # the point P rounds it by at most 2 u sigma(P) in norm, where sigma(P) <=
    # alpha sigma(G) + |beta| sqrt(n) sum_j |c_j| ||E_j||_F.  So in_domain's
    # extreme eigenvalues of P lie within alpha rho sigma(G) + 2 u sigma(P) +
    # |beta| ||D|| + rho sigma(P) of alpha lo + beta and alpha hi + beta.  The
    # slack 4 rho sigma(P) + |beta| ||D|| also covers the rounding of these
    # bounds and of ||D||, and one step more: Q = P + t H with t >= 0 has
    # lmin(Q) >= lmin(P) + t lmin(H) and lmax(Q) <= lmax(P) + t lmax(H) (Weyl),
    # and forming Q and decomposing it add 2 u + rho times sigma(P) + t
    # sigma(H), so lower(P) + t lower(H) and upper(P) + t upper(H) bound it.
    # The coefficients are exactly Hermitian (a Hermitian part, real scalings,
    # real diagonal shifts and sums of such), so in_domain's Hermitian test
    # holds.  A bound that is not finite certifies nothing.
    system, n = g.system, g.level
    nk, m, norms = n * system.k, system.size, system.basis_norms
    rho4 = 4.0 * (16 * nk * nk + 2 * m + 8) * 2.0 ** -53
    # the slack per unit of |beta|: 4 rho sqrt(n) sum_j |c_j| ||E_j||_F + ||D||
    per_shift = rho4 * math.sqrt(n) * float(np.abs(system.id_coeffs) @ norms) + system.identity_defect
    c = g.coeffs.reshape(len(lo), m, n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = (rho4 * alpha) * (np.sqrt(np.vecdot(c, c).real) @ norms) + per_shift * np.abs(beta)
        return alpha * lo + beta - slack, alpha * hi + beta + slack


def _inside(domain: DomainSpec, p: NCPoint, lower, upper) -> np.ndarray:
    # The mask of the candidates in the domain: the rows whose certified
    # bounds clear the interval, and in_domain's decision on the others.
    tol = kernels.TOL_PSD
    inside = (lower > domain.a + tol) & (upper < domain.b - tol)
    unsure = np.flatnonzero(~inside)
    if unsure.size:
        inside[unsure] = in_domain(p[unsure], domain)
    return inside


def _psd_point(g: NCPoint, lo, u) -> tuple:
    # Shift the Hermitian draws g, whose realizations have least eigenvalues
    # lo, until they clear margin >= 0.1; the shift takes the uniform u of
    # each row: (the points, the shifts).
    shift = np.where(-lo > 0.0, -lo, 0.0) + 0.1 + 0.9 * u
    return g + identity_point(g.system, g.level) * shift, shift


def _draw_count(domain: DomainSpec, level: int) -> int:
    # the uniforms of one candidate: its Hermitian draw, then one per finite end
    count = 2 * domain.system.size * level * level
    return count + int(np.isfinite(domain.a)) + int(np.isfinite(domain.b))


def _draw_in_domain(domain: DomainSpec, g: NCPoint, lo, hi, u: np.ndarray) -> tuple:
    """Candidates, one per Hermitian draw of the stack ``g``: each draw's
    realization has extreme eigenvalues ``lo`` and ``hi`` and is moved into
    the domain by the row's placement uniforms ``u``.  Returns the stack and
    the certified bounds of its spectra (:func:`_bounds`)."""
    a, b = domain.a, domain.b
    if np.isinf(a) and np.isinf(b):
        return g, _bounds(g, lo, hi, 0.0)
    ident = identity_point(g.system, g.level)
    with np.errstate(over="ignore", invalid="ignore"):  # per-row scalars overflow silently
        if np.isinf(b):
            shift = a + 0.1 + 0.9 * u[:, -1] - lo
        elif np.isinf(a):
            shift = b - 0.1 - 0.9 * u[:, -1] - hi
        else:
            # Finite interval: affine map of the spectrum into a random interior window.
            width = b - a
            start = a + width * (0.05 + 0.2 * u[:, -2])
            target = width * (0.3 + 0.4 * u[:, -1])
            alpha = target / np.where(1e-9 > hi - lo, 1e-9, hi - lo)
            beta = start - alpha * lo
    if np.isinf(a) or np.isinf(b):
        return g + ident * shift, _bounds(g, lo, hi, shift)
    return g * alpha + ident * beta, _bounds(g, lo, hi, beta, alpha)


def _redraw(attempt, rows: int, budget: int, exhausted: str, errors: dict | None):
    """The rejection loop of every sampler: ``attempt(live, k)`` makes try k of the rows
    ``live`` still drawing and returns the mask it accepts, until no row is left or each
    has had ``budget`` tries; a row left gets ``SamplingError(exhausted)``, handed to settle.
    """
    live = np.arange(rows)
    for k in range(budget):
        if not live.size:
            break
        live = live[~attempt(live, k)]
    settle({row: SamplingError(exhausted) for row in live}, errors)


def sample_point(domain: DomainSpec, level: int, rng, errors: dict | None = None) -> NCPoint:
    """Draw a point of the domain's level-n slice; a row out of budget gets the zero point."""
    gens, lead = _generators(rng)
    system, count = domain.system, 2 * domain.system.size * level * level
    draw = _draw_count(domain, level)
    coeffs = np.zeros((len(gens), system.size, level, level), dtype=np.complex128)

    def attempt(rows, k):
        u = _uniforms([gens[i] for i in rows], draw)
        p, bounds = _draw_in_domain(domain, *_decomposed(system, level, u[:, :count]), u[:, count:])
        inside = _inside(domain, p, *bounds)
        coeffs[rows[inside]] = p.coeffs[inside]
        return inside

    _redraw(attempt, len(gens), SAMPLE_BUDGET,
            f"could not draw a point with spectrum in ({domain.a}, {domain.b}) "
            f"within {SAMPLE_BUDGET} attempts", errors)
    return _point(system, coeffs.reshape(lead + coeffs.shape[1:]))


def _bisect(domain: DomainSpec, p: NCPoint, h: NCPoint, t: np.ndarray, p_bounds, h_bounds):
    # Per row, the first Q = P + t H inside the domain, halving t at most 60
    # times and stopping at t == 0: (mask of the rows that found one, the Qs).
    # The first Q's bounds are P's plus t times H's (see _bounds).
    q = p + h * t
    with np.errstate(over="ignore", invalid="ignore"):
        found = _inside(domain, q, p_bounds[0] + t * h_bounds[0], p_bounds[1] + t * h_bounds[1])
    if np.count_nonzero(found) == len(t):
        return found, q.coeffs
    q_out = q.coeffs.copy()
    live = np.flatnonzero(~found & (t != 0.0))
    for _ in range(59):
        if not live.size:
            break
        t[live] /= 2.0
        q = p[live] + h[live] * t[live]
        inside = in_domain(q, domain)
        found[live[inside]] = True
        q_out[live[inside]] = q.coeffs[inside]
        live = live[~inside]
        live = live[t[live] != 0.0]
    return found, q_out


def sample_ordered_pair(domain: DomainSpec, level: int, rng, errors: dict | None = None):
    """Draw Hermitian ``(P, Q)`` with both in the domain and ``P <= Q``.

    Q is P plus a scaled PSD Hermitian point; the scale is bisected down
    until Q stays in the domain.  A row that exhausts its budget is handed
    to :func:`~freemono.kernels.settle` and gets zero points.
    """
    gens, lead = _generators(rng)
    system, count = domain.system, 2 * domain.system.size * level * level
    draw = _draw_count(domain, level)  # P's uniforms; then H's draw, H's shift and t
    pq = np.zeros((2, len(gens), system.size, level, level), dtype=np.complex128)

    def attempt(rows, k):
        live, size = [gens[i] for i in rows], len(rows)
        u = _uniforms(live, draw + count + 2)
        g, lo, hi = _decomposed(system, level, u[:, :count], u[:, draw:-2])
        p, p_bounds = _draw_in_domain(domain, g[:size], lo[:size], hi[:size], u[:, count:draw])
        inside = _inside(domain, p, *p_bounds)
        for i in np.flatnonzero(~inside):
            live[i][1] -= count + 2  # no H after a rejected P: the next try draws from here
        inside = np.flatnonzero(inside)
        found = np.zeros(size, dtype=bool)
        if inside.size:
            steps = inside + size
            h, shift = _psd_point(g[steps], lo[steps], u[inside, -2])
            if inside.size < size:
                p, p_bounds = p[inside], (p_bounds[0][inside], p_bounds[1][inside])
            hit, q = _bisect(domain, p, h, 0.2 + 0.8 * u[inside, -1], p_bounds,
                             _bounds(g[steps], lo[steps], hi[steps], shift))
            done = inside[hit]
            found[done] = True
            pq[0, rows[done]] = p.coeffs[hit]
            pq[1, rows[done]] = q[hit]
        return found

    _redraw(attempt, len(gens), SAMPLE_BUDGET,
            f"ordered-pair sampling budget ({SAMPLE_BUDGET}) exhausted", errors)
    pq = pq.reshape((2,) + lead + pq.shape[2:])
    return _point(system, pq[0]), _point(system, pq[1])


def sample_halfplane(system: OpSysBasis, level: int, rng) -> NCPoint:
    """Draw P = H + iK with K realizing a positive definite matrix."""
    gens, lead = _generators(rng)
    count = 2 * system.size * level * level
    u = _uniforms(gens, 2 * count + 1)
    g, lo, _ = _decomposed(system, level, u[:, count:-1])
    k, _ = _psd_point(g, lo, u[:, -1])
    p = _hermitian_point(system, level, u[:, :count]) + 1j * k
    return _point(system, p.coeffs.reshape(lead + p.coeffs.shape[1:]))


# --------------------------------------------------------------------------
# JSON encodings.

def point_to_json(point: NCPoint) -> dict:
    return {
        "system": point.system.name,
        "level": point.level,
        "coeffs": [kernels.matrix_to_json(a) for a in point.coeffs],
    }


def point_from_json(doc: dict, system: OpSysBasis | None = None) -> NCPoint:
    """The point a point JSON document encodes, over ``system`` when given, which
    the document must name; input ``NCPoint`` rejects gets the error it raises."""
    name = doc["system"]
    if system is None:
        system = builtin_system(name)
    elif system.name != name:
        raise ValueError(f"point JSON names system {name!r}, expected {system.name!r}")
    coeffs = [kernels.matrix_from_json(c) for c in doc["coeffs"]]  # finite square matrices
    if len(coeffs) == system.size and all(c.shape == coeffs[0].shape for c in coeffs):
        point = _point(system, np.array(coeffs))
    else:
        point = NCPoint(system, coeffs)  # raises the error of the check that fails first
    if point.level != kernels._json_int(doc, "level"):
        raise ValueError("point JSON level does not match its coefficients")
    return point


def system_from_json(doc: dict) -> OpSysBasis:
    return OpSysBasis(
        name=doc["name"],
        k=kernels._json_int(doc, "k"),
        basis=tuple(kernels.matrix_from_json(e) for e in doc["basis"]),
        id_coeffs=tuple(float(c) for c in doc["id_coeffs"]),
    )
