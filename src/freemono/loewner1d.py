"""Classical one-variable monotonicity oracles.

Three independent certificates for a scalar function: positivity of its
divided-difference (Loewner) matrices at real node sets, positivity of its
Pick matrices at upper-half-plane configurations, and direct functional-
calculus monotonicity on sampled Hermitian pairs.  For an operator monotone
function all three agree; ``cross_check`` runs them side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels, opsys, paths
from .freeexpr import CodomainError, FreeFunction, OutOfDomainError, eval_function
from .kernels import Rng, func_calc, hermitize, scaled_min_eig
from .opsys import builtin_system, full_domain, realize, sample_ordered_pair, spectral_interval
from .report import OUT_OF_DOMAIN_MARGIN, CheckReport, ConsistencyReport
from .verifiers import _run_trials, _Trial, is_diagonal_type

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

    def trial(level, t):
        r = rng.split("monotone_1d", f.name, level, t)
        p, q = sample_ordered_pair(dom, level, r)
        fa = func_calc(f.real_rule, p.coeffs[0], f.domain)
        fb = func_calc(f.real_rule, q.coeffs[0], f.domain)
        margin = scaled_min_eig(hermitize(fb - fa))
        witness = None
        if margin < -tol:
            witness = {
                "A": kernels.matrix_to_json(p.coeffs[0]),
                "B": kernels.matrix_to_json(q.coeffs[0]),
                "margin": margin,
            }
        return _Trial(margin, witness)

    return _run_trials("monotone_1d", f.name, trial, levels, trials, tol, rng)


def check_1d_monotone(f: ScalarFunction, level: int = 2, trials: int = 200,
                      tol: float = 1e-8, rng: Rng = Rng(0), interval=None) -> CheckReport:
    """Sample Hermitian pairs A <= B with spectra in the interval and test
    func_calc(f, A) <= func_calc(f, B)."""
    return _monotone_matrix_report(f, (level,), trials, tol, rng, interval)


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

    def loewner_trial(level, t):
        gen = rng.split("loewner", f.name, t).generator()
        nodes = _sample_nodes(gen, node_count, interval)
        mat = loewner_matrix(f, nodes)
        margin = scaled_min_eig(mat)
        witness = None
        if margin < -tol:
            witness = {"nodes": [float(v) for v in nodes], "margin": margin}
        return _Trial(margin, witness)

    def pick_trial(level, t):
        gen = rng.split("pick", f.name, t).generator()
        z = _sample_pick_points(gen, point_count)
        mat = pick_matrix(f, z)
        margin = scaled_min_eig(hermitize(mat))
        witness = None
        if margin < -tol:
            witness = {"points": [[float(v.real), float(v.imag)] for v in z],
                       "margin": margin}
        return _Trial(margin, witness)

    loewner_rep = _run_trials("loewner_psd", f.name, loewner_trial,
                              (node_count,), node_sets, tol, rng)
    pick_rep = _run_trials("pick_psd", f.name, pick_trial,
                           (point_count,), pick_sets, tol, rng)
    mono_rep = _monotone_matrix_report(f, levels, pairs, tol, rng, interval)
    sides = {
        "loewner_psd": loewner_rep.verdict,
        "pick_psd": pick_rep.verdict,
        "matrix_monotone": mono_rep.verdict,
    }
    return ConsistencyReport("cross_check_1d", f.name,
                             (loewner_rep, pick_rep, mono_rep), sides)


# --------------------------------------------------------------------------
# Local monotonicity for commuting tuples on a box.

def amy_local_check(f: FreeFunction, box, level: int = 2, trials: int = 200,
                    tol: float = 1e-8, rng: Rng = Rng(0)) -> CheckReport:
    """Order preservation of f along commuting-tuple paths with joint spectrum
    in the box: g(gamma(t1)) <= g(gamma(t2)) for sampled t1 < t2."""
    if not is_diagonal_type(f.in_system):
        raise ValueError("commuting-tuple paths need a scalar or diagonal input system")
    if len(box) != f.in_system.size:
        raise ValueError("box must give one interval per coordinate")

    def trial(level_, t):
        r = rng.split("amy_local", f.name, level_, t)
        gen = r.generator()
        path = paths.sample_path(f.in_system, level_, gen, box)
        band = 0.95 * path.eps
        t1, t2 = np.sort(band * (2.0 * gen.random(2) - 1.0))
        try:
            fa = eval_function(f, path.point(t1))
            fb = eval_function(f, path.point(t2))
        except (OutOfDomainError, CodomainError) as exc:
            return _Trial(OUT_OF_DOMAIN_MARGIN,
                          {"path": path.to_witness(), "t1": float(t1), "t2": float(t2),
                           "error": str(exc)})
        margin = scaled_min_eig(hermitize(realize(fb) - realize(fa)))
        witness = None
        if margin < -tol:
            witness = {"path": path.to_witness(), "t1": float(t1), "t2": float(t2),
                       "margin": margin}
        return _Trial(margin, witness)

    return _run_trials("amy_local", f.name, trial, (level,), trials, tol, rng)


def amy_margin(f: FreeFunction, witness: dict) -> float:
    """Recompute the two-point order margin from an amy_local witness."""
    path = paths.path_from_witness(f.in_system, witness["path"])
    fa = eval_function(f, path.point(float(witness["t1"])))
    fb = eval_function(f, path.point(float(witness["t2"])))
    return scaled_min_eig(hermitize(realize(fb) - realize(fa)))
