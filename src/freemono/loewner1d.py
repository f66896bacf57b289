"""Classical one-variable monotonicity oracles.

Three independent certificates for a scalar function: positivity of its
divided-difference (Loewner) matrices at real node sets, positivity of its
Pick matrices at upper-half-plane configurations, and direct functional-
calculus monotonicity on sampled Hermitian pairs.  For an operator monotone
function all three agree; ``cross_check`` runs them side by side.
Each check runs its trials as stacks on the engine that every check of
:mod:`freemono.verifiers` shares: per chunk, one draw of its nodes, points
or pairs through ``opsys._redraw``, one build of its matrices (for
``monotone_1d`` one functional calculus) and one eigenvalue call.
``loewner_matrix`` and ``pick_matrix`` take ``(..., c)`` nodes or points,
one vector or a stack, and give ``(..., c, c)`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (
    Rng, _generators, _uniforms, func_calc, hermitize, matrix_to_json, scaled_min_eig,
)
from .opsys import _redraw, builtin_system, sample_ordered_pair, spectral_interval
from .report import CheckReport, ConsistencyReport
from .verifiers import _differences, _run_trials, _trial_levels

MIN_NODE_GAP = 1e-8
NODE_COUNT = 5  # the nodes of a Loewner matrix and the points of a Pick matrix
INTERVAL = (0.1, 10.0)  # where the Loewner nodes and the monotone_1d spectra lie


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function on the open interval ``domain``: a NumPy ``rule`` that maps a
    float array to its values and a complex array to its principal-branch values,
    and a ``deriv_rule`` for real arguments."""

    name: str
    domain: tuple
    rule: Callable
    deriv_rule: Callable


_INF = float("inf")

_SCALAR_CATALOG = {
    "x": ScalarFunction(
        "x", (-_INF, _INF), lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float))),
    "sqrt": ScalarFunction(
        "sqrt", (0.0, _INF), np.sqrt, lambda x: 0.5 / np.sqrt(np.asarray(x, dtype=float))),
    "neg_inverse": ScalarFunction(
        "neg_inverse", (0.0, _INF), lambda x: -1.0 / x,
        lambda x: 1.0 / np.asarray(x, dtype=float) ** 2),
    "square": ScalarFunction(
        "square", (-_INF, _INF), lambda x: x ** 2, lambda x: 2.0 * np.asarray(x, dtype=float)),
    "cube": ScalarFunction(
        "cube", (-_INF, _INF), lambda x: x ** 3,
        lambda x: 3.0 * np.asarray(x, dtype=float) ** 2),
}

SCALAR_CATALOG_NAMES = tuple(_SCALAR_CATALOG)


def scalar_catalog(name: str) -> ScalarFunction:
    try:
        return _SCALAR_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown scalar function {name!r}") from None


# --------------------------------------------------------------------------
# Certificate matrices.

def loewner_matrix(f: ScalarFunction, nodes) -> np.ndarray:
    """Divided-difference matrices ``(..., c, c)`` at strictly increasing interior nodes
    ``(..., c)``, one vector or a stack.

    Off-diagonal entries are (f(x_i) - f(x_j)) / (x_i - x_j); the diagonal
    carries the closed-form derivative.  Positive semidefiniteness is the
    classical certificate of monotonicity at that node count.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("nodes must be a nonempty vector")
    if np.any(np.diff(x) < MIN_NODE_GAP):
        raise ValueError(f"nodes must increase with gaps of at least {MIN_NODE_GAP:g}")
    a, b = f.domain
    if np.any(x[..., 0] <= a) or np.any(x[..., -1] >= b):
        raise ValueError(f"nodes must lie inside the open interval ({a}, {b})")
    fx = np.asarray(f.rule(x), dtype=float)
    n = x.shape[-1]  # the diagonal divides 0 by 1; the derivative replaces it
    out = (fx[..., :, None] - fx[..., None, :]) / (x[..., :, None] - x[..., None, :] + np.eye(n))
    out[..., range(n), range(n)] = np.asarray(f.deriv_rule(x), dtype=float)
    return out


def pick_matrix(f: ScalarFunction, points) -> np.ndarray:
    """Pick kernel matrices ``(..., c, c)`` of entries (f(z_i) - conj f(z_j)) / (z_i - conj z_j)
    at half-plane points ``(..., c)``, one vector or a stack."""
    z = np.asarray(points, dtype=complex)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ValueError("points must be a nonempty vector")
    if np.any(z.imag <= 0):
        raise ValueError("points must have strictly positive imaginary part")
    if np.any(np.abs(z[..., :, None] - z[..., None, :]) + np.eye(z.shape[-1]) < MIN_NODE_GAP):
        raise ValueError("points must be pairwise distinct")
    fz = np.asarray(f.rule(z), dtype=complex)
    return (fz[..., :, None] - fz[..., None, :].conj()) / (z[..., :, None] - z[..., None, :].conj())


# --------------------------------------------------------------------------
# Matrix-level monotonicity through the functional calculus.

def _monotone_matrix_report(f: ScalarFunction, levels, trials, tol, rng) -> CheckReport:
    dom = spectral_interval(builtin_system("scalar"), *INTERVAL)

    def run(level, ts):
        errors = {}
        p, q = sample_ordered_pair(dom, level, rng.split_each(ts, "monotone_1d", f.name, level),
                                   errors=errors)
        a, b = p.coeffs[:, 0], q.coeffs[:, 0]
        diff = _differences(lambda x, e: func_calc(f.rule, x, f.domain, e),
                            np.concatenate([a, b]), errors)
        return scaled_min_eig(hermitize(diff), errors), errors, lambda i, extra: {
            "A": matrix_to_json(a[i]), "B": matrix_to_json(b[i]), **extra}

    return _run_trials("monotone_1d", f.name, run, levels, trials, tol, rng)


# --------------------------------------------------------------------------
# Cross-check of the three certificates.

def cross_check(f: ScalarFunction, levels=(2, 3, 4), trials: int = 100, tol: float = 1e-8,
                rng: Rng = Rng(0)) -> ConsistencyReport:
    """Loewner-matrix, Pick-matrix and functional-calculus verdicts side by side.

    The Loewner and Pick checks each draw ``trials`` sets of ``NODE_COUNT``
    nodes in ``INTERVAL`` or points in the box (-3, 3) x (0.1, 3); the
    functional-calculus check draws ``trials`` ordered pairs at each of
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
    mono_rep = _monotone_matrix_report(f, levels, trials, tol, rng)
    sides = {
        "loewner_psd": loewner_rep.verdict,
        "pick_psd": pick_rep.verdict,
        "matrix_monotone": mono_rep.verdict,
    }
    return ConsistencyReport("cross_check_1d", f.name,
                             (loewner_rep, pick_rep, mono_rep), sides)
