"""Classical one-variable monotonicity oracles.

Three independent certificates for a scalar function f, any
:class:`~freemono.freeexpr.FreeFunction` from the ``scalar`` system to
itself: positive Loewner matrices at real nodes, positive Pick matrices at
upper-half-plane points, and :mod:`freemono.verifiers`' monotone pair
check.  For an operator monotone f all three agree (Loewner's theorem);
``cross_check`` runs them side by side.  ``loewner_matrix`` and
``pick_matrix`` evaluate f once at ``(..., c)`` nodes or points, each a
level-1 point, and give ``(..., c, c)`` matrices.
"""

from __future__ import annotations

import functools

import numpy as np

from .freeexpr import FreeFunction, eval_derivative, eval_function, parse
from .kernels import Rng, _generators, _uniforms, hermitize, scaled_min_eig
from .opsys import (
    NCPoint, _point, _redraw, builtin_system, full_domain, pd_cone, realize, spectral_interval,
)
from .report import ConsistencyReport
from .verifiers import _pair_check, _run_trials, _trial_levels

MIN_NODE_GAP = 1e-8
NODE_COUNT = 5  # the nodes of a Loewner matrix and the points of a Pick matrix
INTERVAL = (0.1, 10.0)  # where the Loewner nodes and the monotone_1d spectra lie

# name -> (expression over the scalar system, its domain)
_SCALAR_CATALOG = {
    "x": ("X1", full_domain),
    "sqrt": ("sqrt(X1)", pd_cone),
    "neg_inverse": ("-inv(X1)", pd_cone),
    "square": ("X1*X1", full_domain),
    "cube": ("X1*X1*X1", full_domain),
}

SCALAR_CATALOG_NAMES = tuple(_SCALAR_CATALOG)


@functools.cache
def scalar_catalog(name: str) -> FreeFunction:
    """Look up a named scalar function; parsed and compiled at its first use, then shared."""
    try:
        text, domain = _SCALAR_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown scalar function {name!r}") from None
    scalar = builtin_system("scalar")
    return FreeFunction(name, scalar, scalar, ((parse(text, scalar),),), domain(scalar), text)


# --------------------------------------------------------------------------
# Certificate matrices.

def _level_one(f: FreeFunction, values: np.ndarray) -> NCPoint:
    """The stack of level-1 points at ``values``, for f on the scalar system."""
    if f.in_system.name != "scalar" or f.out_system.name != "scalar":
        raise ValueError(f"{f.name!r} does not map the scalar system to itself")
    return _point(f.in_system, values.astype(np.complex128).reshape(values.shape + (1, 1, 1)))


def loewner_matrix(f: FreeFunction, nodes) -> np.ndarray:
    """Divided-difference matrices ``(..., c, c)`` at strictly increasing interior nodes
    ``(..., c)``, one vector or a stack.

    Off-diagonal entries are (f(x_i) - f(x_j)) / (x_i - x_j); the diagonal
    carries f's derivative along 1.  Positive semidefiniteness is the
    classical certificate of monotonicity at that node count.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("nodes must be a nonempty vector")
    if np.any(np.diff(x) < MIN_NODE_GAP):
        raise ValueError(f"nodes must increase with gaps of at least {MIN_NODE_GAP:g}")
    a, b = f.domain.a, f.domain.b
    if np.any(x[..., 0] <= a) or np.any(x[..., -1] >= b):
        raise ValueError(f"nodes must lie inside the open interval ({a}, {b})")
    p = _level_one(f, x)
    fx, dfx = (realize(v)[..., 0, 0].real
               for v in eval_derivative(f, p, _point(p.system, np.ones_like(p.coeffs))))
    n = x.shape[-1]  # the diagonal divides 0 by 1; the derivative replaces it
    out = (fx[..., :, None] - fx[..., None, :]) / (x[..., :, None] - x[..., None, :] + np.eye(n))
    out[..., range(n), range(n)] = dfx
    return out


def pick_matrix(f: FreeFunction, points) -> np.ndarray:
    """Pick kernel matrices ``(..., c, c)`` of entries (f(z_i) - conj f(z_j)) / (z_i - conj z_j)
    at half-plane points ``(..., c)``, one vector or a stack."""
    z = np.asarray(points, dtype=complex)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ValueError("points must be a nonempty vector")
    if np.any(z.imag <= 0):
        raise ValueError("points must have strictly positive imaginary part")
    if np.any(np.abs(z[..., :, None] - z[..., None, :]) + np.eye(z.shape[-1]) < MIN_NODE_GAP):
        raise ValueError("points must be pairwise distinct")
    fz = realize(eval_function(f, _level_one(f, z)))[..., 0, 0]
    return (fz[..., :, None] - fz[..., None, :].conj()) / (z[..., :, None] - z[..., None, :].conj())


# --------------------------------------------------------------------------
# Cross-check of the three certificates.

def cross_check(f: FreeFunction, levels=(2, 3, 4), trials: int = 100, tol: float = 1e-8,
                rng: Rng = Rng(0)) -> ConsistencyReport:
    """Loewner-matrix, Pick-matrix and matrix-monotone verdicts side by side.

    The Loewner and Pick checks each draw ``trials`` sets of ``NODE_COUNT``
    nodes in ``INTERVAL`` or points in the box (-3, 3) x (0.1, 3); the
    monotone check ``monotone_1d`` draws ``trials`` ordered pairs at each of
    ``levels``, their spectra in ``INTERVAL``.  ``levels`` and ``trials`` are
    checked before any of them runs.
    """
    levels = _trial_levels(levels, trials)

    def certificate_run(tag, width, draw, exhausted, build, witness):
        # The trials of one certificate.  A chunk's rows draw together, each row
        # up to 100 tries of draw(u), u its width uniforms, until the entries lie
        # 1e-6 apart; then their matrices are built in one call.
        def run(level, ts):
            gens, _ = _generators(rng.split_each(ts, tag, f.name))
            errors = {}
            x = draw(np.zeros((len(gens), width)))  # of the stack's shape; accepted tries overwrite

            def attempt(rows, k):
                v = draw(_uniforms([gens[i] for i in rows], width))
                # |v_i - v_j|, and 1 on the diagonal
                gaps = np.abs(v[:, :, None] - v[:, None, :]) + np.eye(v.shape[1])
                ok = np.all(gaps >= 1e-6, axis=(1, 2))
                x[rows[ok]] = v[ok]
                return ok

            _redraw(attempt, len(gens), 100, exhausted, errors)
            # the trials from the first one out of tries on are not built, so a
            # lower trial's ValueError comes before that trial's error
            live = min(errors, default=len(gens))
            margins = np.zeros(len(gens))
            margins[:live] = scaled_min_eig(build(x[:live]), errors)
            return margins, errors, lambda i, extra: {**witness(x[i].tolist()), **extra}

        return run

    a, b = INTERVAL
    c = NODE_COUNT
    loewner_rep = _run_trials("loewner_psd", f.name, certificate_run(
        "loewner", c, lambda u: np.sort(a + (b - a) * u, axis=1),
        "could not draw well-separated nodes", lambda x: loewner_matrix(f, x),
        lambda x: {"nodes": x}), (c,), trials, tol, rng)
    pick_rep = _run_trials("pick_psd", f.name, certificate_run(
        "pick", 2 * c,
        lambda u: (-3.0 + 6.0 * u[:, :c]) + 1j * (0.1 + 2.9 * u[:, c:]),
        "could not draw well-separated half-plane points", lambda z: hermitize(pick_matrix(f, z)),
        lambda z: {"points": [[v.real, v.imag] for v in z]}), (c,), trials, tol, rng)
    mono_rep = _pair_check("monotone_1d", f, spectral_interval(f.in_system, *INTERVAL), levels,
                           trials, tol, rng)
    reports = (loewner_rep, pick_rep, mono_rep)
    sides = dict(zip(("loewner_psd", "pick_psd", "matrix_monotone"), (r.verdict for r in reports)))
    return ConsistencyReport("cross_check_1d", f.name, reports, sides)
