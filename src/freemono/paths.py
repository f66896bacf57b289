"""Paths of commuting Hermitian tuples with positive-definite velocity.

The sampled family is, per coordinate i,

    gamma_i(t) = R(t) U diag(D_i + t Delta_i) U* R(t)*,

with U a fixed Haar unitary, D_i real diagonals, Delta_i positive diagonals,
and R(t) = expm(t K) for a skew-Hermitian K.  At every t the coordinates
share the eigenbasis R(t) U, so they commute pairwise, and the joint
spectrum is exactly the entries of (D_1 + t Delta_1, ..., D_d + t Delta_d).
The rotation makes the velocity

    gamma_i'(t) = R(t) [ U Delta_i U*  +  [K, X_i(t)] ] R(t)*

non-commuting with the path point, which is what exposes order violations
of functions that are merely scalar-monotone.  K is scaled as large as the
positivity of the velocity allows: the bracket is linear in t, so its
minimum eigenvalue is concave in t and positivity on an interval follows
from positivity at the endpoints.

A :class:`CommutingPath` holds one path or a stack: ``unitary`` and ``skew``
are ``(..., n, n)``, ``diags`` and ``deltas`` ``(..., d, n)``, ``eps`` is
``(...)``.  ``sample_path`` draws one path in a domain from one Rng and a
stack from an array of them, each row as it would be drawn alone.  This
module alone chooses, from the domain, the window every coordinate's
spectrum stays in.  Sampling a path needs NumPy alone; ``path_points``
imports SciPy for ``expm`` at the first rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import _ct, hermitize
from .opsys import DomainSpec, NCPoint, OpSysBasis, _check_finite, _point

# Lower bound on every coordinate's velocity, as a fraction of the smallest
# diagonal velocity entry, over the whole band |t| <= eps.
VELOCITY_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class CommutingPath:
    system: OpSysBasis
    unitary: np.ndarray
    diags: np.ndarray
    deltas: np.ndarray
    skew: np.ndarray
    eps: np.ndarray

    def __getitem__(self, rows) -> CommutingPath:
        return CommutingPath(self.system, self.unitary[rows], self.diags[rows], self.deltas[rows],
                             self.skew[rows], np.asarray(self.eps)[rows])

    def point(self, t) -> NCPoint:
        return path_points(self, t)

    def velocity_margin(self, t):
        """Smallest eigenvalue, over coordinates, of the path velocity at t."""
        skew = self.skew[..., np.newaxis, :, :]
        x = _coordinates(self.unitary, self.diags + t * self.deltas)
        bracket = skew @ x - x @ skew
        w = kernels._eigh(hermitize(_coordinates(self.unitary, self.deltas) + bracket))
        return w[..., 0].min(axis=-1)[()]

    def to_witness(self) -> dict:
        return {
            "system": self.system.name,
            "unitary": kernels.matrix_to_json(self.unitary),
            "diags": self.diags.tolist(),
            "deltas": self.deltas.tolist(),
            "skew": kernels.matrix_to_json(self.skew),
            "eps": float(self.eps),
        }


def _coordinates(u, values) -> np.ndarray:
    """U diag(values_i) U* for each coordinate i: ``(..., d, n, n)`` from ``(..., d, n)``."""
    u = u[..., np.newaxis, :, :]
    return (u * values[..., np.newaxis, :]) @ _ct(u)


def path_points(path: CommutingPath, ts) -> NCPoint:
    """The points of ``path`` at ``ts``, which broadcasts against its leading shape.

    The rotations R(t) come from one stacked ``expm``, which runs the same
    algorithm on each matrix as a call on that matrix alone.
    """
    import scipy.linalg  # here, not at module level: see the module docstring

    t = np.asarray(ts, dtype=float)[..., np.newaxis, np.newaxis]
    r = scipy.linalg.expm(t * path.skew)[..., np.newaxis, :, :]
    base = _coordinates(path.unitary, path.diags + t * path.deltas)
    return _point(path.system, _check_finite(hermitize(r @ base @ _ct(r))))


def path_from_witness(system: OpSysBasis, doc: dict) -> CommutingPath:
    return CommutingPath(
        system=system,
        unitary=kernels.matrix_from_json(doc["unitary"]),
        diags=np.asarray(doc["diags"], dtype=float),
        deltas=np.asarray(doc["deltas"], dtype=float),
        skew=kernels.matrix_from_json(doc["skew"]),
        eps=float(doc["eps"]),
    )


def _max_rotation(u, diags, deltas, khat, eps, floor) -> np.ndarray:
    # Per row, the largest kappa keeping every velocity above the floor.
    # Per coordinate and endpoint the constraint is mineig(A0 + kappa*C) >= 0
    # with A0 = U diag(Delta) U* - floor*I > 0, whose exact boundary is
    # 1 / (-mineig(A0^{-1/2} C A0^{-1/2})).
    x0, x1 = _coordinates(u, diags), _coordinates(u, deltas)
    a0 = hermitize(x1) - floor[:, np.newaxis, np.newaxis, np.newaxis] * np.eye(u.shape[-1])
    w, v = kernels._eigh(a0, vectors=True)
    isq = ((v / np.sqrt(w)[..., np.newaxis, :]) @ _ct(v))[:, :, np.newaxis]
    t = np.stack([-eps, eps], axis=-1)[:, np.newaxis, :, np.newaxis, np.newaxis]
    x = x0[:, :, np.newaxis] + t * x1[:, :, np.newaxis]  # (rows, d, endpoint, n, n)
    k = khat[:, np.newaxis, np.newaxis]
    lam = kernels._eigh(isq @ hermitize(k @ x - x @ k) @ isq)[..., 0]
    bound = np.divide(1.0, -lam, out=np.full_like(lam, np.inf), where=lam < 0.0)
    return np.minimum(bound.min(axis=(1, 2)), 1e6)


def _window(domain: DomainSpec) -> tuple:
    """The finite open interval every coordinate's spectrum of a path in ``domain`` stays in."""
    a, b = domain.a, domain.b
    if np.isinf(a) and np.isinf(b):
        return -2.0, 2.0
    # A half-line gets wide spectra: large eigenvalue ratios make rotation
    # obstructions visible.
    if np.isinf(b):
        return a + 0.1, a + 5.0
    if np.isinf(a):
        return b - 5.0, b - 0.1
    return a, b


def sample_path(domain: DomainSpec, level: int, rng) -> CommutingPath:
    """Draw a commuting path in ``domain`` from one Rng, or a stack of them from
    an array of Rngs.

    Every coordinate's spectrum stays inside the domain's :func:`_window`; the
    rotation strength is pushed to a random fraction of the largest value
    keeping every coordinate's velocity above ``VELOCITY_FLOOR`` times the
    smallest diagonal velocity entry, across the whole band |t| <= eps.
    """
    system = domain.system
    n, d = int(level), system.size
    lo, hi = _window(domain)
    width = hi - lo
    # Each row takes every uniform it may use in one call: 2n^2 for U, the
    # spread coin, 4n per coordinate, 2n^2 for K's direction and K's scale.
    # A spread row reads side, low, high and delta per coordinate, any other
    # row only the first 2dn values, a spectrum and delta per coordinate; K
    # starts right after what the row read.
    gens, lead = kernels._generators(rng)
    nn = n * n
    u = kernels._uniforms(gens, 4 * nn + 4 * d * n + 2)
    unitary = kernels.matrix_from_uniforms("unitary", u[:, :2 * nn], n)
    spread = u[:, 2 * nn] < 0.5
    wide = u[:, 2 * nn + 1:][:, :4 * d * n].reshape(-1, d, 4, n)
    plain = u[:, 2 * nn + 1:][:, :2 * d * n].reshape(-1, d, 2, n)
    # Bimodal eigenvalues: large spectral ratios make rotation obstructions
    # visible while staying inside the range.
    bimodal = np.where(wide[:, :, 0] < 0.5, lo + width * (0.08 + 0.10 * wide[:, :, 1]),
                       lo + width * (0.82 + 0.10 * wide[:, :, 2]))
    s = spread[:, np.newaxis, np.newaxis]
    diags = np.where(s, bimodal, lo + width * (0.1 + 0.8 * plain[:, :, 0]))
    deltas = 0.3 + 0.7 * np.where(s, wide[:, :, 3], plain[:, :, 1])
    room = np.minimum(diags - lo - 0.02 * width, hi - 0.02 * width - diags)
    eps = (room / deltas).min(axis=(1, 2)) * 0.9
    start = 2 * nn + 1 + d * n * np.where(spread, 4, 2)
    tail = np.take_along_axis(u, start[:, np.newaxis] + np.arange(2 * nn + 1), axis=1)
    k0 = kernels.matrix_from_uniforms("ginibre", tail[:, :-1], n)
    khat = (k0 - _ct(k0)) / 2.0
    nrm = kernels.op_norm(khat)[:, np.newaxis, np.newaxis]
    turn = nrm > 1e-12
    khat = khat / np.where(turn, nrm, 1.0)
    kappa = _max_rotation(unitary, diags, deltas, khat, eps,
                          VELOCITY_FLOOR * deltas.min(axis=(1, 2)))
    # Bias toward the feasibility boundary: weakly rotated paths cannot
    # expose order violations of merely scalar-monotone functions.
    skew = np.where(turn, ((0.75 + 0.25 * tail[:, -1]) * kappa)[:, np.newaxis, np.newaxis] * khat,
                    0.0)
    return CommutingPath(system, *(a.reshape(lead + a.shape[1:])
                                   for a in (unitary, diags, deltas, skew)), eps.reshape(lead)[()])
