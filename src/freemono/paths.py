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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .kernels import _ct, hermitize
from .opsys import NCPoint, OpSysBasis, _check_finite, _point

# Lower bound on every coordinate's velocity, as a fraction of the smallest
# diagonal velocity entry, over the whole band |t| <= eps.
VELOCITY_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class CommutingPath:
    system: OpSysBasis
    unitary: np.ndarray
    diags: tuple
    deltas: tuple
    skew: np.ndarray
    eps: float

    @property
    def level(self) -> int:
        return self.unitary.shape[0]

    def point(self, t: float) -> NCPoint:
        return path_points([self], [t])[0]

    def velocity_margin(self, t: float) -> float:
        """Smallest eigenvalue, over coordinates, of the path velocity at t."""
        return _velocity_margin(self.unitary, self.diags, self.deltas, self.skew, t)

    def to_witness(self) -> dict:
        return {
            "system": self.system.name,
            "unitary": kernels.matrix_to_json(self.unitary),
            "diags": [[float(x) for x in d] for d in self.diags],
            "deltas": [[float(x) for x in d] for d in self.deltas],
            "skew": kernels.matrix_to_json(self.skew),
            "eps": float(self.eps),
        }


def path_points(paths, ts) -> NCPoint:
    """The stack of ``paths[i].point(ts[i])``, for paths of one system and level.

    The rotations R(t) come from one stacked ``expm``, which runs the same
    algorithm on each matrix as a call on that matrix alone.
    """
    ts = np.asarray(ts, dtype=float)
    u = np.stack([p.unitary for p in paths])[:, np.newaxis]
    r = scipy.linalg.expm(ts[:, np.newaxis, np.newaxis] * np.stack([p.skew for p in paths]))
    r = r[:, np.newaxis]
    spectra = np.array([p.diags for p in paths]) + ts[:, np.newaxis, np.newaxis] * np.array(
        [p.deltas for p in paths])
    base = (u * spectra[:, :, np.newaxis, :]) @ _ct(u)
    return _point(paths[0].system, _check_finite(hermitize(r @ base @ _ct(r))))


def path_from_witness(system: OpSysBasis, doc: dict) -> CommutingPath:
    return CommutingPath(
        system=system,
        unitary=kernels.matrix_from_json(doc["unitary"]),
        diags=tuple(np.asarray(d, dtype=float) for d in doc["diags"]),
        deltas=tuple(np.asarray(d, dtype=float) for d in doc["deltas"]),
        skew=kernels.matrix_from_json(doc["skew"]),
        eps=float(doc["eps"]),
    )


def _velocity_margin(u, diags, deltas, skew, t) -> float:
    worst = np.inf
    for d, dl in zip(diags, deltas):
        base = (u * dl) @ u.conj().T
        x = (u * (d + t * dl)) @ u.conj().T
        bracket = skew @ x - x @ skew
        w = kernels._eigh(hermitize(base + bracket))
        worst = min(worst, float(w[0]))
    return worst


def _max_rotation(u, diags, deltas, khat, endpoints, floor) -> float:
    # Largest kappa keeping every velocity above the floor.  Per coordinate
    # and endpoint the constraint is mineig(A0 + kappa*C) >= 0 with
    # A0 = U diag(Delta) U* - floor*I > 0, whose exact boundary is
    # 1 / (-mineig(A0^{-1/2} C A0^{-1/2})).
    n = u.shape[0]
    eye = np.eye(n)
    limit = 1e6
    for d, dl in zip(diags, deltas):
        a0 = hermitize((u * dl) @ u.conj().T) - floor * eye
        w, v = kernels._eigh(a0, vectors=True)
        if w[0] <= 0.0:
            return 0.0
        isq = (v / np.sqrt(w)) @ v.conj().T
        x0 = (u * d) @ u.conj().T
        x1 = (u * dl) @ u.conj().T
        for t in endpoints:
            x = x0 + t * x1
            bracket = hermitize(khat @ x - x @ khat)
            lam = float(kernels._eigh(isq @ bracket @ isq)[0])
            if lam < 0.0:
                limit = min(limit, 1.0 / -lam)
    return limit


def sample_path(system: OpSysBasis, level: int, gen: np.random.Generator,
                ranges) -> CommutingPath:
    """Draw a commuting path whose joint spectrum stays inside ``ranges``.

    ``ranges`` gives one finite open interval per coordinate; the rotation
    strength is pushed to a random fraction of the largest value keeping
    every coordinate's velocity above ``VELOCITY_FLOOR`` times the smallest
    diagonal velocity entry, across the whole band |t| <= eps.
    """
    n = int(level)
    d = system.size
    if len(ranges) != d:
        raise ValueError("need one spectral range per coordinate")
    u = kernels.matrix_from_uniforms("unitary", gen.random(2 * n * n), n)
    spread = bool(gen.random() < 0.5)
    diags, deltas = [], []
    eps = np.inf
    for lo, hi in ranges:
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("path ranges must be finite nonempty intervals")
        width = hi - lo
        if spread:
            # Bimodal eigenvalues: large spectral ratios make rotation
            # obstructions visible while staying inside the range.
            side = gen.random(n) < 0.5
            dvals = np.where(side,
                             lo + width * (0.08 + 0.10 * gen.random(n)),
                             lo + width * (0.82 + 0.10 * gen.random(n)))
        else:
            dvals = lo + width * (0.1 + 0.8 * gen.random(n))
        dl = 0.3 + 0.7 * gen.random(n)
        diags.append(dvals)
        deltas.append(dl)
        room = np.minimum(dvals - lo - 0.02 * width, hi - 0.02 * width - dvals)
        eps = min(eps, float(np.min(room / dl)))
    eps *= 0.9
    k0 = kernels.matrix_from_uniforms("ginibre", gen.random(2 * n * n), n)
    khat = (k0 - k0.conj().T) / 2.0
    nrm = kernels.op_norm(khat)
    if nrm > 1e-12:
        khat = khat / nrm
        floor = VELOCITY_FLOOR * min(float(np.min(dl)) for dl in deltas)
        kappa = _max_rotation(u, diags, deltas, khat, (-eps, eps), floor)
        # Bias toward the feasibility boundary: weakly rotated paths cannot
        # expose order violations of merely scalar-monotone functions.
        skew = (0.75 + 0.25 * float(gen.random())) * kappa * khat
    else:
        skew = np.zeros((n, n), dtype=np.complex128)
    return CommutingPath(system, u, tuple(diags), tuple(deltas), skew, eps)
