"""Empirical checks for both sides of the monotonicity / half-plane equivalence.

Each check samples seeded trials, records a scaled margin per trial (the
most negative eigenvalue for order checks, minus the relative residual for
identity checks) and fails a trial when its margin drops below ``-tol``.
Trials derive their randomness from (master rng, check name, function,
level, trial index), so results do not depend on the order trials run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, opsys, paths
from .freeexpr import CodomainError, FreeFunction, OutOfDomainError, catalog, eval_function
from .kernels import (
    NumericalError, Rng, SamplingError, SingularMatrixError, hermitize, imag_part,
    min_eig_h, op_norm, scaled_min_eig,
)
from .opsys import (
    DomainSpec,
    conjugate,
    direct_sum,
    identity_point,
    point_to_json,
    realize,
    sample_halfplane,
    sample_ordered_pair,
    sample_point,
)
from .report import OUT_OF_DOMAIN_MARGIN, CheckReport, ConsistencyReport

BOUNDARY_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
LOCAL_STEP = 1e-4  # finite-difference half-step of the local check, capped by the path's eps


@dataclass(frozen=True)
class _Trial:
    margin: float
    witness: dict | None = None


def _run_trials(check, function, trial, levels, trials, tol, rng) -> CheckReport:
    """Run ``trial(level, t)`` for every level and trial index and report the margins.

    The witness is that of the most negative margin when some margin drops
    below ``-tol``.  Raises :class:`NumericalError` on a non-finite margin.
    """
    levels = tuple(int(x) for x in levels)
    results = [trial(level, t) for level in levels for t in range(trials)]
    for i, r in enumerate(results):
        if not math.isfinite(r.margin):
            raise NumericalError(f"{check} of {function}: margin {r.margin} at level "
                                 f"{levels[i // trials]}, trial {i % trials}")
    failures = sum(1 for r in results if r.margin < -tol)
    worst = min(results, key=lambda r: r.margin)
    return CheckReport(
        check=check,
        function=function,
        levels=levels,
        trials=int(trials),
        failures=failures,
        worst_margin=float(worst.margin),
        witness=worst.witness if failures else None,
        seed=rng.seed,
        tol=float(tol),
    )


def is_diagonal_type(system: opsys.OpSysBasis) -> bool:
    """True for systems whose basis is diagonal matrix units (commuting tuples)."""
    if system.size != system.k:
        return False
    return all(np.count_nonzero(e - np.diag(np.diag(e))) == 0 for e in system.basis)


# --------------------------------------------------------------------------
# Shared margin computations (also used to re-verify reported witnesses).

def pair_margin(f: FreeFunction, a: opsys.NCPoint, b: opsys.NCPoint) -> float:
    """Scaled PSD margin of realize(f(b)) - realize(f(a))."""
    fa = eval_function(f, a)
    fb = eval_function(f, b)
    return scaled_min_eig(hermitize(realize(fb) - realize(fa)))


def halfplane_margin(f: FreeFunction, p: opsys.NCPoint) -> float:
    """Scaled PSD margin of Im realize(f(p))."""
    return scaled_min_eig(imag_part(realize(eval_function(f, p))))


def local_margin(f: FreeFunction, witness: dict) -> float:
    """Recompute the finite-difference derivative margin from a witness."""
    path = paths.path_from_witness(f.in_system, witness["path"])
    h = float(witness["h"])
    fa = eval_function(f, path.point(-h))
    fb = eval_function(f, path.point(h))
    return scaled_min_eig(hermitize((realize(fb) - realize(fa)) / (2.0 * h)))


# --------------------------------------------------------------------------
# Checks.

def check_monotone(f: FreeFunction, domain: DomainSpec | None = None,
                   levels=(1, 2, 3), trials: int = 100, tol: float = 1e-8,
                   rng: Rng = Rng(0)) -> CheckReport:
    """Sample ordered pairs in the domain and test f(A) <= f(B)."""
    dom = domain or f.domain

    def trial(level, t):
        r = rng.split("monotone", f.name, level, t)
        a, b = sample_ordered_pair(dom, level, r)
        pair = {"A": point_to_json(a), "B": point_to_json(b)}
        try:
            margin = pair_margin(f, a, b)
        except (OutOfDomainError, CodomainError) as exc:
            return _Trial(OUT_OF_DOMAIN_MARGIN, dict(pair, error=str(exc)))
        witness = dict(pair, margin=margin) if margin < -tol else None
        return _Trial(margin, witness)

    return _run_trials("monotone", f.name, trial, levels, trials, tol, rng)


def find_counterexample(f: FreeFunction, domain: DomainSpec | None = None,
                        level: int = 2, budget: int = 1000, tol: float = 1e-8,
                        rng: Rng = Rng(0)) -> dict | None:
    """Return the first sampled ordered pair violating monotonicity, if any."""
    dom = domain or f.domain
    for t in range(budget):
        r = rng.split("counterexample", f.name, level, t)
        a, b = sample_ordered_pair(dom, level, r)
        try:
            margin = pair_margin(f, a, b)
        except (OutOfDomainError, CodomainError):
            continue
        if margin < -tol:
            return {"A": point_to_json(a), "B": point_to_json(b), "margin": margin}
    return None


def check_halfplane(f: FreeFunction, levels=(1, 2, 3), trials: int = 100,
                    tol: float = 1e-8, rng: Rng = Rng(0)) -> CheckReport:
    """Sample upper-half-plane points and test Im f >= 0.

    An evaluation error inside the half-plane counts as a failure: the
    continuation is supposed to be defined on all of it.
    """

    def trial(level, t):
        r = rng.split("halfplane", f.name, level, t)
        p = sample_halfplane(f.in_system, level, r)
        try:
            margin = halfplane_margin(f, p)
        except (OutOfDomainError, CodomainError) as exc:
            return _Trial(OUT_OF_DOMAIN_MARGIN, {"P": point_to_json(p), "error": str(exc)})
        witness = {"P": point_to_json(p), "margin": margin} if margin < -tol else None
        return _Trial(margin, witness)

    return _run_trials("halfplane", f.name, trial, levels, trials, tol, rng)


def check_free_axioms(f: FreeFunction, domain: DomainSpec | None = None,
                      levels=(1, 2, 3), trials: int = 200, tol: float = 1e-9,
                      rng: Rng = Rng(0)) -> CheckReport:
    """Direct-sum and similarity residuals of f on sampled domain points."""
    dom = domain or f.domain

    def trial(level, t):
        r = rng.split("axioms", f.name, level, t)
        for attempt in range(100):
            rr = r.split("attempt", attempt)
            x = sample_point(dom, level, rr.split("x"))
            y = sample_point(dom, level, rr.split("y"))
            u = kernels.random_matrix("unitary", level, rr.split("u"))
            try:
                fx = eval_function(f, x)
                fy = eval_function(f, y)
                fxy = eval_function(f, direct_sum(x, y))
                fu = eval_function(f, conjugate(x, u))
            except (OutOfDomainError, CodomainError):
                continue
            break
        else:
            raise SamplingError("axiom check found no evaluable sample in 100 attempts")
        res_ds = op_norm(realize(fxy) - realize(direct_sum(fx, fy)))
        res_sim = op_norm(realize(conjugate(fx, u)) - realize(fu))
        scale = 1.0 + op_norm(realize(fx))
        margin = -max(res_ds, res_sim) / scale
        witness = None
        if margin < -tol:
            witness = {
                "X": point_to_json(x),
                "Y": point_to_json(y),
                "unitary": kernels.matrix_to_json(u),
                "residual_direct_sum": float(res_ds / scale),
                "residual_similarity": float(res_sim / scale),
            }
        return _Trial(margin, witness)

    return _run_trials("free_axioms", f.name, trial, levels, trials, tol, rng)


def _path_ranges(domain: DomainSpec, count: int) -> list:
    if domain.kind == "pd_cone":
        # Wide spectra: large eigenvalue ratios make rotation obstructions visible.
        return [(0.1, 5.0)] * count
    if domain.kind == "full":
        return [(-2.0, 2.0)] * count
    if domain.kind == "spectral_interval":
        a, b = domain.a, domain.b
        if np.isinf(a) and np.isinf(b):
            return [(-2.0, 2.0)] * count
        if np.isinf(b):
            return [(a, a + 6.0)] * count
        if np.isinf(a):
            return [(b - 6.0, b)] * count
        return [(a, b)] * count
    raise ValueError(f"local paths are not defined over a {domain.kind!r} domain")


def check_local_monotone(f: FreeFunction, domain: DomainSpec | None = None,
                         levels=(1, 2, 3), trials: int = 100, tol: float = 1e-8,
                         rng: Rng = Rng(0)) -> CheckReport:
    """Finite-difference derivative of f along commuting paths with pd velocity."""
    if not is_diagonal_type(f.in_system):
        raise ValueError("local monotonicity needs a scalar or diagonal input system")
    dom = domain or f.domain
    ranges = _path_ranges(dom, f.in_system.size)

    def trial(level, t):
        r = rng.split("local", f.name, level, t)
        path = paths.sample_path(f.in_system, level, r.generator(), ranges)
        h_eff = min(LOCAL_STEP, 0.5 * path.eps)
        try:
            fa = eval_function(f, path.point(-h_eff))
            fb = eval_function(f, path.point(h_eff))
        except (OutOfDomainError, CodomainError) as exc:
            return _Trial(OUT_OF_DOMAIN_MARGIN,
                          {"path": path.to_witness(), "h": h_eff, "error": str(exc)})
        der = hermitize((realize(fb) - realize(fa)) / (2.0 * h_eff))
        margin = scaled_min_eig(der)
        witness = None
        if margin < -tol:
            witness = {"path": path.to_witness(), "h": h_eff, "margin": margin}
        return _Trial(margin, witness)

    return _run_trials("local_monotone", f.name, trial, levels, trials, tol, rng)


def check_boundary_continuity(f: FreeFunction, domain: DomainSpec | None = None,
                              levels=(1, 2, 3), trials: int = 50, tol: float = 1e-8,
                              rng: Rng = Rng(0)) -> CheckReport:
    """Approach a Hermitian interior point vertically and test for linear decay.

    The decay rate is calibrated at the largest epsilon; a trial fails when
    some smaller epsilon overshoots that line by more than a factor of 10,
    or when an evaluation leaves the domain of definition.
    """
    dom = domain or f.domain

    def trial(level, t):
        r = rng.split("boundary", f.name, level, t)
        a = sample_point(dom, level, r)
        ident = identity_point(f.in_system, level)
        try:
            base = realize(eval_function(f, a))
            denom = 1.0 + op_norm(base)
            ratios = []
            for eps in BOUNDARY_EPS_GRID:
                val = realize(eval_function(f, a + (1j * eps) * ident))
                ratios.append(op_norm(val - base) / denom)
        except (OutOfDomainError, CodomainError) as exc:
            return _Trial(OUT_OF_DOMAIN_MARGIN, {"A": point_to_json(a), "error": str(exc)})
        c = ratios[0] / BOUNDARY_EPS_GRID[0]
        margin = min(
            (10.0 * c * eps + 1e-14 - rr) / (10.0 * c * eps + 1e-14)
            for eps, rr in zip(BOUNDARY_EPS_GRID, ratios)
        )
        witness = None
        if margin < -tol:
            witness = {
                "A": point_to_json(a),
                "rate": float(c),
                "ratios": [[float(e), float(rr)] for e, rr in zip(BOUNDARY_EPS_GRID, ratios)],
                "margin": margin,
            }
        return _Trial(margin, witness)

    return _run_trials("boundary_continuity", f.name, trial, levels, trials, tol, rng)


def check_schur_im_identity(levels=(1, 2, 3), trials: int = 500, tol: float = 1e-10,
                            rng: Rng = Rng(0)) -> CheckReport:
    """Exact factorization of Im f for the Schur complement on half-plane points.

    With V the column block stacking the identity over -(X22*)^{-1} X12*, the
    imaginary part of the Schur complement equals V* (Im X) V exactly (the
    cross terms of V* X V cancel and leave the complement itself); the trial
    also asserts that Im f is strictly positive definite.
    """
    schur = catalog("schur_complement")
    sys2 = schur.in_system

    def trial(level, t):
        r = rng.split("schur_im_identity", level, t)
        n = level
        for attempt in range(100):
            p = sample_halfplane(sys2, n, r.split("attempt", attempt))
            m = realize(p)
            blocks = m.reshape(2, n, 2, n)
            try:
                w = -kernels.safe_inv(blocks[1, :, 1, :].conj().T) @ blocks[0, :, 1, :].conj().T
                fp = eval_function(schur, p)
            except (SingularMatrixError, OutOfDomainError, CodomainError):
                continue
            break
        else:
            raise SamplingError("no half-plane sample with invertible X22 in 100 attempts")
        v = np.vstack([np.eye(n, dtype=np.complex128), w])
        rhs = v.conj().T @ imag_part(m) @ v
        imf = imag_part(realize(fp))
        scale = 1.0 + op_norm(m) ** 2
        resid = op_norm(imf - rhs)
        margin = -resid / scale
        im_margin = min_eig_h(imf)
        if im_margin <= 0.0:
            margin = min(margin, -1.0)
        witness = None
        if margin < -tol:
            witness = {
                "X": point_to_json(p),
                "residual": float(resid / scale),
                "im_margin": float(im_margin),
            }
        return _Trial(margin, witness)

    return _run_trials("schur_im_identity", "schur_complement", trial,
                       levels, trials, tol, rng)


def equivalence_report(f: FreeFunction, domain: DomainSpec | None = None,
                       levels=(1, 2, 3), trials: int = 100, tol: float = 1e-8,
                       rng: Rng = Rng(0)) -> ConsistencyReport:
    """Run the monotone, local (where applicable) and half-plane checks.

    The verdicts must agree for a genuine free function; disagreement points
    at a toolkit or tolerance defect, not at the mathematics.
    """
    dom = domain or f.domain
    mono = check_monotone(f, dom, levels, trials, tol, rng)
    reports = [mono]
    sides = {"monotone": mono.verdict}
    if is_diagonal_type(f.in_system):
        loc = check_local_monotone(f, dom, levels, trials, tol, rng)
        reports.append(loc)
        sides["local"] = loc.verdict
    hp = check_halfplane(f, levels, trials, tol, rng)
    reports.append(hp)
    sides["halfplane"] = hp.verdict
    return ConsistencyReport("equivalence", f.name, tuple(reports), sides)
