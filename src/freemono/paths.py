"""Commuting Hermitian tuples with a positive-definite velocity tangent to them.

The sampled family is, per coordinate i, the path

    gamma_i(t) = R(t) U diag(D_i + t Delta_i) U* R(t)*,   R(t) = exp(t K),

with U a fixed Haar unitary, D_i real diagonals, Delta_i positive diagonals
and K skew-Hermitian.  At every t the coordinates share the eigenbasis
R(t) U, so they commute pairwise.  The local check reads the path at t = 0
only, where both the point and the velocity have closed forms:

    X_i = U diag(D_i) U*,    H_i = U diag(Delta_i) U*  +  [K, X_i].

The rotation makes H non-commuting with X, which is what exposes order
violations of functions that are merely scalar-monotone.  K is scaled as
large as the positivity of every H_i allows.  :meth:`CommutingPath.point`
and :meth:`CommutingPath.velocity` give X and H, at which the local check
takes the derivative ``Df(X)[H]``.

A :class:`CommutingPath` holds one path or a stack: ``unitary`` and ``skew``
are ``(..., n, n)``, ``diags`` and ``deltas`` ``(..., d, n)``.
``sample_path`` draws one path in a domain from one Rng and a stack from an
array of them, each row as it would be drawn alone.  This module alone
chooses, from the domain, the window every coordinate's spectrum lies in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import _ct, hermitize
from .opsys import DomainSpec, NCPoint, OpSysBasis, _check_finite, _point

# Lower bound on every coordinate's velocity, as a fraction of the smallest
# diagonal velocity entry.
VELOCITY_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class CommutingPath:
    system: OpSysBasis
    unitary: np.ndarray
    diags: np.ndarray
    deltas: np.ndarray
    skew: np.ndarray

    def __getitem__(self, rows) -> CommutingPath:
        return CommutingPath(self.system, self.unitary[rows], self.diags[rows], self.deltas[rows],
                             self.skew[rows])

    def _x(self) -> np.ndarray:
        return hermitize(_coordinates(self.unitary, self.diags))

    def point(self) -> NCPoint:
        """The path's point X at t = 0, one point per path of a stack."""
        return _point(self.system, _check_finite(self._x()))

    def velocity(self) -> NCPoint:
        """The path's velocity H at t = 0, one point per path of a stack."""
        x = self._x()
        k = self.skew[..., np.newaxis, :, :]
        h = hermitize(_coordinates(self.unitary, self.deltas) + (k @ x - x @ k))
        return _point(self.system, _check_finite(h))

    def to_witness(self) -> dict:
        return {
            "system": self.system.name,
            "unitary": kernels.matrix_to_json(self.unitary),
            "diags": self.diags.tolist(),
            "deltas": self.deltas.tolist(),
            "skew": kernels.matrix_to_json(self.skew),
        }


def _coordinates(u, values) -> np.ndarray:
    """U diag(values_i) U* for each coordinate i: ``(..., d, n, n)`` from ``(..., d, n)``."""
    u = u[..., np.newaxis, :, :]
    return (u * values[..., np.newaxis, :]) @ _ct(u)


def path_from_witness(system: OpSysBasis, doc: dict) -> CommutingPath:
    return CommutingPath(
        system=system,
        unitary=kernels.matrix_from_json(doc["unitary"]),
        diags=np.asarray(doc["diags"], dtype=float),
        deltas=np.asarray(doc["deltas"], dtype=float),
        skew=kernels.matrix_from_json(doc["skew"]),
    )


def _max_rotation(u, diags, deltas, khat, floor) -> np.ndarray:
    # Per row, the largest kappa keeping every velocity above the floor.
    # Per coordinate the constraint is mineig(A0 + kappa*C) >= 0 with
    # A0 = U diag(Delta) U* - floor*I > 0 and C = [K^, X], whose exact
    # boundary is 1 / (-mineig(A0^{-1/2} C A0^{-1/2})).
    x0, x1 = _coordinates(u, diags), _coordinates(u, deltas)
    a0 = hermitize(x1) - floor[:, np.newaxis, np.newaxis, np.newaxis] * np.eye(u.shape[-1])
    w, v = kernels._eigh(a0, vectors=True)
    isq = (v / np.sqrt(w)[..., np.newaxis, :]) @ _ct(v)
    k = khat[:, np.newaxis]
    lam = kernels._eigh(isq @ hermitize(k @ x0 - x0 @ k) @ isq)[..., 0]
    bound = np.divide(1.0, -lam, out=np.full_like(lam, np.inf), where=lam < 0.0)
    return np.minimum(bound.min(axis=1), 1e6)


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

    Every coordinate's spectrum lies inside the domain's :func:`_window`; the
    rotation strength is pushed to a random fraction of the largest value
    keeping every coordinate's velocity above ``VELOCITY_FLOOR`` times the
    smallest diagonal velocity entry.
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
    start = 2 * nn + 1 + d * n * np.where(spread, 4, 2)
    tail = np.take_along_axis(u, start[:, np.newaxis] + np.arange(2 * nn + 1), axis=1)
    k0 = kernels.matrix_from_uniforms("ginibre", tail[:, :-1], n)
    khat = (k0 - _ct(k0)) / 2.0
    nrm = kernels.op_norm(khat)[:, np.newaxis, np.newaxis]
    turn = nrm > 1e-12
    khat = khat / np.where(turn, nrm, 1.0)
    kappa = _max_rotation(unitary, diags, deltas, khat, VELOCITY_FLOOR * deltas.min(axis=(1, 2)))
    # Bias toward the feasibility boundary: weakly rotated paths cannot
    # expose order violations of merely scalar-monotone functions.
    skew = np.where(turn, ((0.75 + 0.25 * tail[:, -1]) * kappa)[:, np.newaxis, np.newaxis] * khat,
                    0.0)
    return CommutingPath(system, *(a.reshape(lead + a.shape[1:])
                                   for a in (unitary, diags, deltas, skew)))
