"""Classical one-variable monotonicity oracles.

Three independent certificates for a scalar function: positivity of its
divided-difference (Loewner) matrices at real node sets, positivity of its
Pick matrices at upper-half-plane configurations, and direct functional-
calculus monotonicity on sampled Hermitian pairs.  For an operator monotone
function all three agree; ``cross_check`` runs them side by side.
Each check runs its trials as stacks on the engine that every check of
:mod:`freemono.verifiers` shares: one eigenvalue call, and for
``monotone_1d`` one functional calculus, per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .kernels import Rng, func_calc, hermitize, matrix_to_json, scaled_min_eig
from .opsys import builtin_system, full_domain, sample_ordered_pair, spectral_interval
from .report import CheckReport, ConsistencyReport
from .verifiers import _differences, _row_trials, _run_trials

MIN_NODE_GAP = 1e-8


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function with real, complex (principal-branch) and derivative rules."""

    name: str
    domain: tuple
    real_rule: Callable
    complex_rule: Callable
    deriv_rule: Callable


_INF = float("inf")

_SCALAR_CATALOG = {
    "x": ScalarFunction(
        "x", (-_INF, _INF),
        lambda x: np.asarray(x, dtype=float),
        lambda z: np.asarray(z, dtype=complex),
        lambda x: np.ones_like(np.asarray(x, dtype=float))),
    "sqrt": ScalarFunction(
        "sqrt", (0.0, _INF),
        lambda x: np.sqrt(np.asarray(x, dtype=float)),
        lambda z: np.sqrt(np.asarray(z, dtype=complex)),
        lambda x: 0.5 / np.sqrt(np.asarray(x, dtype=float))),
    "neg_inverse": ScalarFunction(
        "neg_inverse", (0.0, _INF),
        lambda x: -1.0 / np.asarray(x, dtype=float),
        lambda z: -1.0 / np.asarray(z, dtype=complex),
        lambda x: 1.0 / np.asarray(x, dtype=float) ** 2),
    "square": ScalarFunction(
        "square", (-_INF, _INF),
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda z: np.asarray(z, dtype=complex) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float)),
    "cube": ScalarFunction(
        "cube", (-_INF, _INF),
        lambda x: np.asarray(x, dtype=float) ** 3,
        lambda z: np.asarray(z, dtype=complex) ** 3,
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
    """Divided-difference matrix at strictly increasing interior nodes.

    Off-diagonal entries are (f(x_i) - f(x_j)) / (x_i - x_j); the diagonal
    carries the closed-form derivative.  Positive semidefiniteness is the
    classical certificate of monotonicity at that node count.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("nodes must be a nonempty vector")
    gaps = np.diff(x)
    if np.any(gaps < MIN_NODE_GAP):
        raise ValueError(f"nodes must increase with gaps of at least {MIN_NODE_GAP:g}")
    a, b = f.domain
    if x[0] <= a or x[-1] >= b:
        raise ValueError(f"nodes must lie inside the open interval ({a}, {b})")
    fx = np.asarray(f.real_rule(x), dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (fx[i] - fx[j]) / (x[i] - x[j]) if i != j else 0.0
    np.fill_diagonal(out, np.asarray(f.deriv_rule(x), dtype=float))
    return out


def pick_matrix(f: ScalarFunction, points) -> np.ndarray:
    """Pick kernel matrix (f(z_i) - conj f(z_j)) / (z_i - conj z_j) on the half-plane."""
    z = np.asarray(points, dtype=complex)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("points must be a nonempty vector")
    if np.any(z.imag <= 0):
        raise ValueError("points must have strictly positive imaginary part")
    for i in range(z.size):
        for j in range(i + 1, z.size):
            if abs(z[i] - z[j]) < MIN_NODE_GAP:
                raise ValueError("points must be pairwise distinct")
    fz = np.asarray(f.complex_rule(z), dtype=complex)
    return (fz[:, None] - fz[None, :].conj()) / (z[:, None] - z[None, :].conj())


# --------------------------------------------------------------------------
# Matrix-level monotonicity through the functional calculus.

def _monotone_matrix_report(f: ScalarFunction, levels, trials, tol, rng, interval) -> CheckReport:
    a, b = interval if interval is not None else f.domain
    scalar_sys = builtin_system("scalar")
    if np.isinf(a) and np.isinf(b):
        dom = full_domain(scalar_sys)
    else:
        dom = spectral_interval(scalar_sys, a, b)

    def run(level, ts):
        errors = {}
        p, q = sample_ordered_pair(dom, level, [rng.split("monotone_1d", f.name, level, t)
                                                for t in ts], errors=errors)
        a, b = p.coeffs[:, 0], q.coeffs[:, 0]
        diff = _differences(lambda x, e: func_calc(f.real_rule, x, f.domain, e),
                            np.concatenate([a, b]), errors)
        margins = scaled_min_eig(hermitize(diff), errors)
        return _row_trials(margins, errors, tol,
                           lambda i: {"A": matrix_to_json(a[i]), "B": matrix_to_json(b[i])})

    return _run_trials("monotone_1d", f.name, run, levels, trials, tol, rng)


# --------------------------------------------------------------------------
# Cross-check of the three certificates.

def _sample_nodes(gen, count, interval):
    a, b = interval
    for _ in range(100):
        x = np.sort(a + (b - a) * gen.random(count))
        if count < 2 or np.min(np.diff(x)) >= 1e-6:
            return x
    raise kernels.SamplingError("could not draw well-separated nodes")


def _sample_pick_points(gen, count):
    for _ in range(100):
        z = (-3.0 + 6.0 * gen.random(count)) + 1j * (0.1 + 2.9 * gen.random(count))
        ok = all(abs(z[i] - z[j]) >= 1e-6
                 for i in range(count) for j in range(i + 1, count))
        if ok:
            return z
    raise kernels.SamplingError("could not draw well-separated half-plane points")


def cross_check(f: ScalarFunction, node_count: int = 5, node_sets: int = 100,
                point_count: int = 5, pick_sets: int = 100,
                levels=(2, 3, 4), pairs: int = 200, interval=(0.1, 10.0),
                tol: float = 1e-8, rng: Rng = Rng(0)) -> ConsistencyReport:
    """Loewner-matrix, Pick-matrix and functional-calculus verdicts side by side."""

    def loewner_run(level, ts):
        nodes = [_sample_nodes(rng.split("loewner", f.name, t).generator(), node_count, interval)
                 for t in ts]
        errors = {}
        margins = scaled_min_eig(np.stack([loewner_matrix(f, x) for x in nodes]), errors)
        return _row_trials(margins, errors, tol, lambda i: {"nodes": nodes[i].tolist()})

    def pick_run(level, ts):
        zs = [_sample_pick_points(rng.split("pick", f.name, t).generator(), point_count)
              for t in ts]
        errors = {}
        margins = scaled_min_eig(hermitize(np.stack([pick_matrix(f, z) for z in zs])), errors)
        return _row_trials(margins, errors, tol,
                           lambda i: {"points": [[v.real, v.imag] for v in zs[i].tolist()]})

    loewner_rep = _run_trials("loewner_psd", f.name, loewner_run, (node_count,), node_sets,
                              tol, rng)
    pick_rep = _run_trials("pick_psd", f.name, pick_run, (point_count,), pick_sets, tol, rng)
    mono_rep = _monotone_matrix_report(f, levels, pairs, tol, rng, interval)
    sides = {
        "loewner_psd": loewner_rep.verdict,
        "pick_psd": pick_rep.verdict,
        "matrix_monotone": mono_rep.verdict,
    }
    return ConsistencyReport("cross_check_1d", f.name,
                             (loewner_rep, pick_rep, mono_rep), sides)
