"""The batched trial engine against a serial reference, bit for bit.

Every check of ``verifiers`` and the three checks of ``loewner1d.cross_check``
(Loewner matrices, Pick matrices and ``monotone_1d``) run the trials of a
level as stacks.  The reference here is the serial engine they replaced:
samplers that draw one point, matrix or commuting path at a time, two
``random`` calls per coefficient, a path's point and velocity built one
entry at a time, a rejection loop per trial, and a loop that runs one trial after another
through single-point evaluations and margins.  Every margin, witness and error text must come
out the same, whatever the chunk size.
"""

import contextlib
import dataclasses
import io
import json
import re
import struct
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from freemono import cli, kernels, loewner1d, opsys, paths, verifiers
from freemono.freeexpr import CATALOG_NAMES, CodomainError, OutOfDomainError, catalog
from freemono.freeexpr import eval_derivative, eval_function, function_from_expr
from freemono.kernels import (
    TOL_BRANCH, TOL_RECON, BranchCutError, EigensolverError, NonFiniteError, NumericalError, Rng,
    SamplingError, SingularMatrixError, SpectrumDomainError, _generators, func_calc, hermitize,
    imag_part, matrix_to_json, min_eig_h, op_norm, principal_sqrt, random_matrix, safe_inv,
    scaled_min_eig,
)
from freemono.loewner1d import SCALAR_CATALOG_NAMES, ScalarFunction, scalar_catalog
from freemono.opsys import (
    NCPoint, builtin_system, conjugate, direct_sum, full_domain, identity_point, in_domain, pd_cone,
    point_to_json, realize, sample_halfplane, sample_ordered_pair, sample_point, spectral_interval,
)
from freemono.report import OUT_OF_DOMAIN_MARGIN
from freemono.verifiers import (
    BOUNDARY_EPS_GRID, _run_trials, halfplane_margin, pair_margin,
)

SCALAR = builtin_system("scalar")
BLOCK2 = builtin_system("block2")
DIAG2 = builtin_system("diagonal(2)")
DIAG3 = builtin_system("diagonal(3)")

# A narrow interval: candidates are rejected near its ends, and the step
# from P to Q is bisected many times before Q fits.
NARROW = spectral_interval(SCALAR, 1.0, 1.0 + 1.5e-7)
ERROR_WITNESS = "sqrt(X1 - 2)*sqrt(X1 - 2) + inv(X1 - 1)"
# A point sampler accepts a candidate of TINY with probability 0.003 (its
# openness margin leaves a sliver of the interval), so a budget of 1000 runs
# out about one time in 20.
TINY = spectral_interval(SCALAR, 0.0, 4.0096e-8)


def _domain_id(d):
    # a test id naming a domain by its system and interval
    return f"{d.system.name}-{d.a}-{d.b}"


# --------------------------------------------------------------------------
# The serial reference: one point, one trial at a time.

def _ref_ginibre(gen, n):
    half = n * n
    u1 = 1.0 - gen.random(half)
    u2 = gen.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return (z[:half] + 1j * z[half:]).reshape(n, n)


def _ref_hermitian(gen, n):
    g = _ref_ginibre(gen, n)
    return (g + g.conj().T) / 2.0


def _ref_psd(gen, n):
    g = _ref_ginibre(gen, n)
    return g.conj().T @ g


def _ref_unitary(gen, n):
    q, r = np.linalg.qr(_ref_ginibre(gen, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


# kind -> one matrix of that kind from one generator
_REF_MATRICES = {"ginibre": _ref_ginibre, "hermitian": _ref_hermitian, "psd": _ref_psd,
                 "pd": lambda gen, n: _ref_psd(gen, n) + 0.1 * np.eye(n), "unitary": _ref_unitary}


def _ref_hermitian_point(system, level, gen):
    return NCPoint(system, tuple(_ref_hermitian(gen, level) for _ in range(system.size)))


def _ref_psd_point(system, level, gen):
    g = _ref_hermitian_point(system, level, gen)
    margin = float(np.linalg.eigvalsh(hermitize(realize(g)))[0])
    shift = max(0.0, -margin) + 0.1 + 0.9 * float(gen.random())
    return g + shift * identity_point(system, level)


def _ref_draw_in_domain(domain, level, gen):
    system = domain.system
    g = _ref_hermitian_point(system, level, gen)
    a, b = domain.a, domain.b
    if np.isinf(a) and np.isinf(b):
        return g
    w = np.linalg.eigvalsh(hermitize(realize(g)))
    lo, hi = float(w[0]), float(w[-1])
    ident = identity_point(system, level)
    if np.isinf(b):
        return g + (a + 0.1 + 0.9 * float(gen.random()) - lo) * ident
    if np.isinf(a):
        return g + (b - 0.1 - 0.9 * float(gen.random()) - hi) * ident
    width = b - a
    start = a + width * (0.05 + 0.2 * float(gen.random()))
    target = width * (0.3 + 0.4 * float(gen.random()))
    alpha = target / max(hi - lo, 1e-9)
    return alpha * g + (start - alpha * lo) * ident


def _ref_sample_point(domain, level, rng, budget=1000):
    gen = rng.generator()
    for _ in range(budget):
        p = _ref_draw_in_domain(domain, level, gen)
        if in_domain(p, domain):
            return p
    raise SamplingError(f"could not draw a point with spectrum in ({domain.a}, {domain.b}) "
                        f"within {budget} attempts")


def _ref_sample_ordered_pair(domain, level, rng, budget=1000, stats=None):
    # ``stats`` (a list) receives (attempts, halvings) of a pair that is found
    gen = rng.generator()
    for attempt in range(budget):
        p = _ref_draw_in_domain(domain, level, gen)
        if not in_domain(p, domain):
            continue
        h = _ref_psd_point(domain.system, level, gen)
        t = 0.2 + 0.8 * float(gen.random())
        for halvings in range(60):
            q = p + t * h
            if in_domain(q, domain):
                if stats is not None:
                    stats.append((attempt + 1, halvings))
                return p, q
            if t == 0.0:
                break
            t /= 2.0
    raise SamplingError(f"ordered-pair sampling budget ({budget}) exhausted")


def _ref_sample_halfplane(system, level, rng):
    gen = rng.generator()
    h = _ref_hermitian_point(system, level, gen)
    return h + 1j * _ref_psd_point(system, level, gen)


def _ref_tangent(path):
    # one coordinate at a time, entry by entry: the path's point X and velocity
    # H at t = 0
    u, k = path.unitary, path.skew
    n = u.shape[0]
    xs, hs = [], []
    for d, dl in zip(path.diags, path.deltas):
        x = hermitize((u * d) @ u.conj().T)
        h = hermitize((u * dl) @ u.conj().T + (k @ x - x @ k))
        cx, ch = np.zeros((n, n), dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                cx[i, j], ch[i, j] = x[i, j], h[i, j]
        xs.append(cx)
        hs.append(ch)
    return NCPoint(path.system, tuple(xs)), NCPoint(path.system, tuple(hs))


def _ref_max_rotation(u, diags, deltas, khat, floor):
    n = u.shape[0]
    eye = np.eye(n)
    limit = 1e6
    for d, dl in zip(diags, deltas):
        a0 = hermitize((u * dl) @ u.conj().T) - floor * eye
        w, v = np.linalg.eigh(a0)
        if w[0] <= 0.0:
            return 0.0
        isq = (v / np.sqrt(w)) @ v.conj().T
        x = (u * d) @ u.conj().T
        bracket = hermitize(khat @ x - x @ khat)
        lam = float(np.linalg.eigvalsh(isq @ bracket @ isq)[0])
        if lam < 0.0:
            limit = min(limit, 1.0 / -lam)
    return limit


def _ref_sample_path(system, level, rng, ranges):
    # one path from one generator, one coordinate at a time
    gen = rng.generator()
    n = int(level)
    u = _ref_unitary(gen, n)
    spread = bool(gen.random() < 0.5)
    diags, deltas = [], []
    for lo, hi in ranges:
        lo, hi = float(lo), float(hi)
        width = hi - lo
        if spread:
            side = gen.random(n) < 0.5
            dvals = np.where(side,
                             lo + width * (0.08 + 0.10 * gen.random(n)),
                             lo + width * (0.82 + 0.10 * gen.random(n)))
        else:
            dvals = lo + width * (0.1 + 0.8 * gen.random(n))
        dl = 0.3 + 0.7 * gen.random(n)
        diags.append(dvals)
        deltas.append(dl)
    k0 = _ref_ginibre(gen, n)
    khat = (k0 - k0.conj().T) / 2.0
    nrm = op_norm(khat)
    if nrm > 1e-12:
        khat = khat / nrm
        floor = paths.VELOCITY_FLOOR * min(float(np.min(dl)) for dl in deltas)
        kappa = _ref_max_rotation(u, diags, deltas, khat, floor)
        skew = (0.75 + 0.25 * float(gen.random())) * kappa * khat
    else:
        skew = np.zeros((n, n), dtype=np.complex128)
    return paths.CommutingPath(system, u, np.array(diags), np.array(deltas), skew)


def _ref_monotone_1d(f, interval, level, r, tol):
    a, b = interval
    if np.isinf(a) and np.isinf(b):
        dom = full_domain(SCALAR)
    else:
        dom = spectral_interval(SCALAR, a, b)
    p, q = _ref_sample_ordered_pair(dom, level, r)
    fa = func_calc(f.rule, p.coeffs[0], f.domain)
    fb = func_calc(f.rule, q.coeffs[0], f.domain)
    m = scaled_min_eig(hermitize(fb - fa))
    witness = None
    if m < -tol:
        witness = {"A": matrix_to_json(p.coeffs[0]), "B": matrix_to_json(q.coeffs[0]), "margin": m}
    return m, witness


def _ref_sample_nodes(gen, count, interval):
    a, b = interval
    for _ in range(100):
        x = np.sort(a + (b - a) * gen.random(count))
        if count < 2 or np.min(np.diff(x)) >= 1e-6:
            return x
    raise SamplingError("could not draw well-separated nodes")


def _ref_sample_pick_points(gen, count):
    for _ in range(100):
        z = (-3.0 + 6.0 * gen.random(count)) + 1j * (0.1 + 2.9 * gen.random(count))
        ok = all(abs(z[i] - z[j]) >= 1e-6
                 for i in range(count) for j in range(i + 1, count))
        if ok:
            return z
    raise SamplingError("could not draw well-separated half-plane points")


def _ref_loewner_matrix(f, x):
    if x.ndim != 1 or x.size < 1:
        raise ValueError("nodes must be a nonempty vector")
    if np.any(np.diff(x) < loewner1d.MIN_NODE_GAP):
        raise ValueError(f"nodes must increase with gaps of at least {loewner1d.MIN_NODE_GAP:g}")
    a, b = f.domain
    if x[0] <= a or x[-1] >= b:
        raise ValueError(f"nodes must lie inside the open interval ({a}, {b})")
    fx = np.asarray(f.rule(x), dtype=float)
    out = np.empty((x.size, x.size))
    for i in range(x.size):
        for j in range(x.size):
            out[i, j] = (fx[i] - fx[j]) / (x[i] - x[j]) if i != j else 0.0
    np.fill_diagonal(out, np.asarray(f.deriv_rule(x), dtype=float))
    return out


def _ref_certificate(kind, f, interval, count, r, tol):
    """The serial Loewner or Pick trial of ``cross_check``, on ``count`` nodes or points."""
    gen = r.generator()
    if kind == "loewner_psd":
        nodes = _ref_sample_nodes(gen, count, interval)
        margin = scaled_min_eig(_ref_loewner_matrix(f, nodes))
        points = {"nodes": [float(v) for v in nodes]}
    else:
        z = _ref_sample_pick_points(gen, count)
        margin = scaled_min_eig(hermitize(loewner1d.pick_matrix(f, z)))
        points = {"points": [[float(v.real), float(v.imag)] for v in z]}
    return margin, {**points, "margin": margin} if margin < -tol else None


def _ref_axioms(f, dom, level, r, tol):
    for attempt in range(100):
        rr = r.split("attempt", attempt)
        x = _ref_sample_point(dom, level, rr.split("x"))
        y = _ref_sample_point(dom, level, rr.split("y"))
        u = _ref_unitary(rr.split("u").generator(), level)
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
            "unitary": matrix_to_json(u),
            "residual_direct_sum": float(res_ds / scale),
            "residual_similarity": float(res_sim / scale),
        }
    return margin, witness


def _ref_boundary(f, dom, level, r, tol):
    a = _ref_sample_point(dom, level, r)
    ident = identity_point(f.in_system, level)
    try:
        base = realize(eval_function(f, a))
        denom = 1.0 + op_norm(base)
        ratios = []
        for eps in BOUNDARY_EPS_GRID:
            val = realize(eval_function(f, a + (1j * eps) * ident))
            ratios.append(op_norm(val - base) / denom)
    except (OutOfDomainError, CodomainError) as exc:
        return OUT_OF_DOMAIN_MARGIN, {"A": point_to_json(a), "error": str(exc)}
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
    return margin, witness


def _ref_schur_identity(schur, dom, n, r, tol):
    for attempt in range(100):
        p = _ref_sample_halfplane(schur.in_system, n, r.split("attempt", attempt))
        m = realize(p)
        blocks = m.reshape(2, n, 2, n)
        try:
            w = -safe_inv(blocks[1, :, 1, :].conj().T) @ blocks[0, :, 1, :].conj().T
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
    return margin, witness


# kind -> the serial body of a check whose trials retry or catch their own errors
RETRIED = {"axioms": _ref_axioms, "boundary": _ref_boundary,
           "schur_im_identity": _ref_schur_identity}


def _ref_trial(kind, f, dom, tol, rng, seen):
    """The serial loop's trial body; records each trial's (margin, witness) in ``seen``."""

    def trial(level, t):
        r = rng.split(kind, f.name, level, t)
        if kind in ("loewner_psd", "pick_psd"):  # the level is the node or point count
            seen.append(_ref_certificate(kind, f, dom, level,
                                         rng.split(kind[:-4], f.name, t), tol))
            return seen[-1]
        if kind == "monotone_1d":
            seen.append(_ref_monotone_1d(f, dom, level, r, tol))
            return seen[-1]
        if kind in RETRIED:
            if kind == "schur_im_identity":  # one function: its name is not a tag
                r = rng.split(kind, level, t)
            seen.append(RETRIED[kind](f, dom, level, r, tol))
            return seen[-1]
        if kind == "local":
            path = _ref_sample_path(f.in_system, level, r,
                                    [paths._window(dom)] * f.in_system.size)
            points = {"path": path.to_witness()}

            def margin():
                # Df(X)[H] of one path
                _, der = eval_derivative(f, *_ref_tangent(path))
                return scaled_min_eig(hermitize(realize(der)))
        elif kind == "monotone":
            a, b = _ref_sample_ordered_pair(dom, level, r)
            points = {"A": point_to_json(a), "B": point_to_json(b)}

            def margin():
                return pair_margin(f, a, b)
        else:
            p = _ref_sample_halfplane(f.in_system, level, r)
            points = {"P": point_to_json(p)}

            def margin():
                return halfplane_margin(f, p)
        try:
            m = margin()
            out = m, {**points, "margin": m} if m < -tol else None
        except (OutOfDomainError, CodomainError) as exc:
            out = OUT_OF_DOMAIN_MARGIN, {**points, "error": str(exc)}
        seen.append(out)
        return out

    return trial


# --------------------------------------------------------------------------
# Comparison.

def _built(margins, errors, witness, tol):
    # a chunk's trials as (margin, witness), the witnesses built, as the serial
    # reference records them; a chunk with a row error that is raised records none
    if any(not isinstance(e, (OutOfDomainError, CodomainError)) for e in errors.values()):
        return []
    out = []
    for i, m in enumerate(np.asarray(margins, dtype=float).tolist()):
        if i in errors:
            m, extra = OUT_OF_DOMAIN_MARGIN, {"error": str(errors[i])}
        else:
            extra = {"margin": m}
        out.append((m, witness(i, extra) if m < -tol else None))
    return out


def _bits(trials):
    return [(struct.pack("<d", m), json.dumps(witness)) for m, witness in trials]


def _outcome(run):
    try:
        return run(), None
    except (NumericalError, SpectrumDomainError, ValueError) as exc:
        return None, (type(exc).__name__, str(exc))


def _certificate_report(kind):
    # cross_check's Loewner or Pick report, on levels[0] nodes or points, the
    # nodes in ``interval``
    def batched(f, interval, levels, trials, tol, rng):
        [count] = levels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loewner1d, "NODE_COUNT", count)
            mp.setattr(loewner1d, "INTERVAL", interval)
            reports = loewner1d.cross_check(f, (1,), trials, tol, rng).reports
        return reports[kind == "pick_psd"]

    return batched


def _monotone_1d_report(f, interval, *opts):
    # the monotone_1d check, its spectra in ``interval``
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loewner1d, "INTERVAL", interval)
        return loewner1d._monotone_matrix_report(f, *opts)


def _over(check):
    # the check of f run over the domain ``dom``
    return lambda f, dom, *opts: check(dataclasses.replace(f, domain=dom), *opts)


# kind -> (the module whose _run_trials the check calls, its report's check
# name, the batched check); ``dom`` is the interval ``loewner1d.INTERVAL``
# is set to for the checks of loewner1d, whose ``levels`` are the node or
# point count (``loewner1d.NODE_COUNT``) for the Loewner and Pick checks
CHECKS = {
    "monotone": (verifiers, "monotone", _over(verifiers.check_monotone)),
    "halfplane": (verifiers, "halfplane",
                  lambda f, dom, *opts: verifiers.check_halfplane(f, *opts)),
    "local": (verifiers, "local_monotone", _over(verifiers.check_local_monotone)),
    "monotone_1d": (loewner1d, "monotone_1d", _monotone_1d_report),
    "loewner_psd": (loewner1d, "loewner_psd", _certificate_report("loewner_psd")),
    "pick_psd": (loewner1d, "pick_psd", _certificate_report("pick_psd")),
    "axioms": (verifiers, "free_axioms", _over(verifiers.check_free_axioms)),
    "boundary": (verifiers, "boundary_continuity", _over(verifiers.check_boundary_continuity)),
    "schur_im_identity": (verifiers, "schur_im_identity",
                       lambda f, dom, *opts: verifiers.check_schur_im_identity(*opts)),
}


def _compare(monkeypatch, kind, f, dom, levels, trials, tol=1e-8, seed=42):
    """Run the batched check and the serial reference; both must agree bit for bit."""
    rng = Rng(seed)
    module, check, batched = CHECKS[kind]
    seen = []

    def spy(name, function, run, *rest):
        def recorded(level, ts):
            chunk = run(level, ts)
            if name == check:
                seen.extend(_built(*chunk, tol))
            return chunk

        return _run_trials(name, function, recorded, *rest)

    monkeypatch.setattr(module, "_run_trials", spy)
    report, error = _outcome(lambda: batched(f, dom, levels, trials, tol, rng))
    monkeypatch.setattr(module, "_run_trials", _run_trials)
    ref_seen = []
    trial = _ref_trial(kind, f, dom, tol, rng, ref_seen)

    def reference(level, ts):
        # the serial trials, their witnesses built already
        rows = [trial(level, t) for t in ts]
        return [m for m, _ in rows], {}, lambda i, extra: rows[i][1]

    ref_report, ref_error = _outcome(lambda: _run_trials(check, f.name, reference, levels,
                                                         trials, tol, rng))
    assert error == ref_error
    if ref_error is None:
        assert json.dumps(report.to_json()) == json.dumps(ref_report.to_json())
    if ref_error is None or ref_error[1].startswith(f"{check} of {f.name}: margin"):
        assert _bits(seen) == _bits(ref_seen)  # every trial ran on both sides
    return seen, error


@pytest.fixture(params=[1, 3, verifiers.TRIAL_CHUNK], ids=lambda c: f"chunk{c}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(verifiers, "TRIAL_CHUNK", request.param)
    return request.param


class TestAgainstSerialReference:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("kind", ["monotone", "halfplane"])
    def test_catalog_levels_1_to_4(self, monkeypatch, chunk, kind, name):
        f = catalog(name)
        seen, error = _compare(monkeypatch, kind, f, f.domain, (1, 2, 3, 4), 5)
        assert error is None and len(seen) == 20

    @pytest.mark.parametrize("name, domain", [
        ("identity", full_domain(SCALAR)),
        ("square", full_domain(SCALAR)),
        ("msqrt", full_domain(SCALAR)),  # negative spectra: branch-cut rows among good ones
        ("inverse", spectral_interval(SCALAR, 0.5, 2.0)),
        ("msqrt", spectral_interval(SCALAR, 0.25, float("inf"))),
        ("neg_inverse", spectral_interval(SCALAR, float("-inf"), -0.5)),
        ("square", NARROW),
        ("schur_complement", spectral_interval(BLOCK2, 0.2, 3.0)),
        ("schur_complement", full_domain(BLOCK2)),
        ("geometric_mean", spectral_interval(DIAG2, 0.1, 0.2)),
    ], ids=lambda v: v if isinstance(v, str) else _domain_id(v))
    def test_monotone_domains(self, monkeypatch, chunk, name, domain):
        seen, error = _compare(monkeypatch, "monotone", catalog(name), domain, (1, 2, 3), 7)
        assert error is None and len(seen) == 21

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES
                                      if verifiers.is_diagonal_type(catalog(n).in_system)])
    def test_local_levels_1_to_4(self, monkeypatch, chunk, name):
        f = catalog(name)
        seen, error = _compare(monkeypatch, "local", f, f.domain, (1, 2, 3, 4), 5)
        assert error is None and len(seen) == 20

    @pytest.mark.parametrize("text", [ERROR_WITNESS, "sqrt(X1 - 0.5)*sqrt(X1 - 0.5) - X1"])
    def test_out_of_domain_rows_mixed_with_good_rows(self, monkeypatch, chunk, text):
        f = function_from_expr("expr", text, SCALAR)
        for kind in ("monotone", "halfplane", "local"):
            seen, error = _compare(monkeypatch, kind, f, f.domain, (1, 2), 12)
            assert error is None
            errors = [w for _, w in seen if w and "error" in w]
            if (kind, text == ERROR_WITNESS) in (("monotone", False), ("local", True)):
                assert 0 < len(errors) < len(seen)

    @pytest.mark.parametrize("name", SCALAR_CATALOG_NAMES)
    @pytest.mark.parametrize("interval", [None, (0.1, 10.0), (-1.0, 1.0)], ids=str)
    def test_monotone_1d_levels_1_to_4(self, monkeypatch, chunk, name, interval):
        f = scalar_catalog(name)  # None stands for f's own domain
        seen, error = _compare(monkeypatch, "monotone_1d", f,
                               f.domain if interval is None else interval, (1, 2, 3, 4), 5)
        domain_error = interval == (-1.0, 1.0) and name in ("sqrt", "neg_inverse")
        assert (error is not None) == domain_error
        assert len(seen) == (0 if domain_error else 20)

    @pytest.mark.parametrize("name", SCALAR_CATALOG_NAMES)
    @pytest.mark.parametrize("count", [1, 5, 8])
    def test_loewner_trials(self, monkeypatch, chunk, name, count):
        f = scalar_catalog(name)
        for interval, want in (((0.1, 10.0), None),
                               ((-1.0, 1.0), "ValueError" if f.domain[0] == 0.0 else None),
                               ((1.0, 1.0 + 1e-6), "SamplingError" if count > 1 else None)):
            seen, error = _compare(monkeypatch, "loewner_psd", f, interval, (count,), 7)
            assert (error and error[0]) == want
            assert want or len(seen) == 7
            if want == "SamplingError":
                assert error[1] == "could not draw well-separated nodes"

    @pytest.mark.parametrize("name", SCALAR_CATALOG_NAMES)
    @pytest.mark.parametrize("count", [1, 5, 8])
    def test_pick_trials(self, monkeypatch, chunk, name, count):
        seen, error = _compare(monkeypatch, "pick_psd", scalar_catalog(name), (0.1, 10.0),
                               (count,), 7)
        assert error is None and len(seen) == 7

    @pytest.mark.parametrize("kind, interval, stuck, want", [
        # the stuck trials draw points that coincide, so they run out of tries
        ("pick_psd", (0.1, 10.0), (2, 5), ("SamplingError",
                                           "could not draw well-separated half-plane points")),
        # every trial's nodes leave sqrt's domain, unless its draw is stuck on equal nodes
        ("loewner_psd", (-2.0, -1.0), (0, 4), ("SamplingError",
                                               "could not draw well-separated nodes")),
        ("loewner_psd", (-2.0, -1.0), (3, 4), (
            "ValueError", "nodes must lie inside the open interval (0.0, inf)")),
    ], ids=["pick", "loewner_stuck_first", "loewner_domain_first"])
    def test_the_lowest_failing_certificate_trial_raises(self, monkeypatch, chunk, kind, interval,
                                                         stuck, want):
        f = scalar_catalog("sqrt")
        stuck = {Rng(42).split(kind[:-4], f.name, t) for t in stuck}
        keys = {row[0] for row in _generators(list(stuck))[0]}
        generator, uniforms = Rng.generator, loewner1d._uniforms

        # a stuck trial's draw repeats one value, so no try is ever well separated;
        # the serial reference draws through Rng.generator, the batched side through
        # loewner1d._uniforms
        class Stuck:
            def random(self, count):
                return np.full(count, 0.5)

        def stuck_uniforms(rows, count):
            u = uniforms(rows, count)
            u[[row[0] in keys for row in rows]] = 0.5
            return u

        monkeypatch.setattr(Rng, "generator", lambda r: Stuck() if r in stuck else generator(r))
        monkeypatch.setattr(loewner1d, "_uniforms", stuck_uniforms)
        _, error = _compare(monkeypatch, kind, f, interval, (5,), 7)
        assert error == want

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("kind", ["axioms", "boundary"])
    def test_axioms_and_boundary_levels_1_to_3(self, monkeypatch, chunk, kind, name):
        f = catalog(name)
        seen, error = _compare(monkeypatch, kind, f, f.domain, (1, 2, 3), 4)
        assert error is None and len(seen) == 12

    def test_schur_identity_levels_1_to_4(self, monkeypatch, chunk):
        seen, error = _compare(monkeypatch, "schur_im_identity", catalog("schur_complement"), None,
                               (1, 2, 3, 4), 6)
        assert error is None and len(seen) == 24

    def test_axiom_trials_redraw_until_every_evaluation_succeeds(self, monkeypatch, chunk):
        # most samples of the pd cone leave sqrt's domain: trials take several tries
        f = function_from_expr("expr", "sqrt(X1 - 0.5)", SCALAR)
        seen, error = _compare(monkeypatch, "axioms", f, f.domain, (1, 2), 12)
        assert error is None and len(seen) == 24

    def test_an_axiom_trial_exhausts_its_tries(self, monkeypatch, chunk):
        f = function_from_expr("expr", "sqrt(X1 - 3)", SCALAR)
        _, error = _compare(monkeypatch, "axioms", f, f.domain, (1, 2), 5)
        assert error == ("SamplingError", "axiom check found no evaluable sample in 100 attempts")

    def test_boundary_error_rows_mixed_with_good_rows(self, monkeypatch, chunk):
        f = function_from_expr("expr", "sqrt(X1 - 0.5)", SCALAR)
        seen, error = _compare(monkeypatch, "boundary", f, f.domain, (1, 2), 12)
        errors = [w for _, w in seen if w and "error" in w]
        assert error is None and 0 < len(errors) < len(seen)
        assert all(set(w) == {"A", "error"} for w in errors)

    def test_boundary_witness_carries_rate_and_ratios(self, monkeypatch, chunk):
        # A near the pole at 0.5: f(A + i eps I) overshoots the rate line
        f = function_from_expr("expr", "inv(X1 - 0.5)", SCALAR)
        seen, error = _compare(monkeypatch, "boundary", f, f.domain, (1, 2), 12)
        assert error is None and any(w and "rate" in w for _, w in seen)

    def test_local_chunk_evaluates_once(self, monkeypatch):
        calls = []

        def spy(f, point, direction, errors=None):
            calls.append((len(point.coeffs), point.level, len(direction.coeffs)))
            return eval_derivative(f, point, direction, errors)

        monkeypatch.setattr(verifiers, "eval_derivative", spy)
        monkeypatch.setattr(verifiers, "eval_function", None)  # not called
        verifiers.check_local_monotone(catalog("geometric_mean"), levels=(3,), trials=5, rng=Rng(4))
        assert calls == [(5, 3, 5)]  # the five points, at level 3, and their velocities

    def test_local_chunk_samples_its_paths_once(self, monkeypatch, chunk):
        calls, sample = [], paths.sample_path

        def spy(domain, level, rng):
            calls.append(len(rng))
            return sample(domain, level, rng)

        monkeypatch.setattr(paths, "sample_path", spy)
        verifiers.check_local_monotone(catalog("geometric_mean"), levels=(2, 3), trials=5, rng=Rng(4))
        assert calls == {1: [1] * 10, 3: [3, 2, 3, 2], 256: [5, 5]}[chunk]

    def test_narrow_interval_rejects_and_bisects(self):
        # the draws the comparisons above make on NARROW: some candidates are
        # rejected, and most steps from P to Q are halved many times
        stats = []
        for level in (1, 2, 3):
            for t in range(7):
                _ref_sample_ordered_pair(NARROW, level, Rng(42).split("monotone", "square", level, t),
                                         stats=stats)
        assert max(a for a, _ in stats) > 1
        assert min(h for _, h in stats) >= 10


class TestSamplersBitForBit:
    @pytest.mark.parametrize("domain", [
        pd_cone(BLOCK2), full_domain(SCALAR), spectral_interval(DIAG2, -1.0, 1.0),
        spectral_interval(BLOCK2, 0.5, float("inf")), spectral_interval(SCALAR, float("-inf"), 0.0),
        NARROW,
    ], ids=_domain_id)
    def test_ordered_pairs(self, domain):
        rngs = [Rng(9).split(t) for t in range(6)]
        for level in (1, 2, 3):
            a, b = sample_ordered_pair(domain, level, rngs)
            for i, r in enumerate(rngs):
                ra, rb = _ref_sample_ordered_pair(domain, level, r)
                for got, want in ((a[i], ra), (b[i], rb)):
                    assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("system", [SCALAR, DIAG2, BLOCK2], ids=lambda s: s.name)
    def test_halfplane_points(self, system):
        rngs = [Rng(10).split(t) for t in range(6)]
        for level in (1, 2, 4):
            p = sample_halfplane(system, level, rngs)
            for i, r in enumerate(rngs):
                assert p[i].coeffs.tobytes() == _ref_sample_halfplane(system, level, r).coeffs.tobytes()

    @pytest.mark.parametrize("domain", [
        pd_cone(BLOCK2), full_domain(DIAG2), spectral_interval(SCALAR, -1.0, 1.0), TINY,
    ], ids=_domain_id)
    def test_points(self, monkeypatch, domain):
        # on TINY the budget of 300 runs out for some rows: a row error among good rows
        monkeypatch.setattr(opsys, "SAMPLE_BUDGET", 300)
        rngs = [Rng(11).split(t) for t in range(8)]
        for level in (1, 2, 3):
            errors = {}
            p = sample_point(domain, level, rngs, errors=errors)
            for i, r in enumerate(rngs):
                if i in errors:
                    assert isinstance(errors[i], SamplingError) and not p[i].coeffs.any()
                    with pytest.raises(SamplingError, match="within 300 attempts") as alone:
                        _ref_sample_point(domain, level, r, budget=300)
                    assert str(errors[i]) == str(alone.value)
                else:
                    want = _ref_sample_point(domain, level, r, budget=300)
                    assert p[i].coeffs.tobytes() == want.coeffs.tobytes()
            if domain is TINY and level == 1:
                assert 0 < len(errors) < len(rngs)

    @pytest.mark.parametrize("kind", list(_REF_MATRICES))
    def test_random_matrices(self, kind):
        rngs = [Rng(12).split(t) for t in range(6)]
        for n in (1, 2, 3, 5):
            stack = random_matrix(kind, n, rngs)
            for i, r in enumerate(rngs):
                want = _REF_MATRICES[kind](r.generator(), n)
                assert stack[i].tobytes() == want.tobytes()
                assert random_matrix(kind, n, r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("domain", [
        pd_cone(SCALAR), full_domain(DIAG2), spectral_interval(DIAG3, 0.5, float("inf")),
        spectral_interval(SCALAR, float("-inf"), -0.5), spectral_interval(DIAG3, -1.0, 1.0),
    ], ids=_domain_id)
    def test_paths(self, domain):
        # 256 rows per level: spread and non-spread rows, which draw unequal counts, mix
        ranges = [paths._window(domain)] * domain.system.size
        rngs = [Rng(13).split(t) for t in range(256)]
        for level in (1, 2, 3, 4, 5):
            stack = paths.sample_path(domain, level, rngs)
            for i, r in enumerate(rngs):
                got, want = stack[i], _ref_sample_path(domain.system, level, r, ranges)
                for name in ("unitary", "diags", "deltas", "skew"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert json.dumps(got.to_witness()) == json.dumps(want.to_witness())
                if i < 8:
                    alone = paths.sample_path(domain, level, r)
                    assert json.dumps(alone.to_witness()) == json.dumps(want.to_witness())

    def test_exhausted_budget_is_a_row_error(self, monkeypatch):
        hopeless = spectral_interval(SCALAR, 0.0, 1e-8)  # narrower than the openness margin
        monkeypatch.setattr(opsys, "SAMPLE_BUDGET", 5)
        errors = {}
        a, b = sample_ordered_pair(hopeless, 1, [Rng(1), Rng(2)], errors=errors)
        assert sorted(errors) == [0, 1] and isinstance(errors[0], SamplingError)
        assert not a.coeffs.any() and not b.coeffs.any()
        with pytest.raises(SamplingError, match=r"budget \(5\) exhausted"):
            sample_ordered_pair(hopeless, 1, Rng(1))


def _position(gen):
    # the uint64s a reference generator's stream has given: NumPy's Philox makes
    # block c at counter c + 1 and has used buffer_pos of its 4 words
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


class TestDrawPositions:
    """After a stacked sampler, each row's stream stands where the serial reference's
    does: a pair's try draws P and H at once, and a row rejected at P gives H's draw back."""

    @pytest.mark.parametrize("domain", [
        pd_cone(BLOCK2), NARROW, TINY, spectral_interval(SCALAR, 0.0, 1e-8),
        spectral_interval(DIAG2, float("-inf"), -0.5),
    ], ids=_domain_id)
    def test_rows_end_where_the_reference_ends(self, monkeypatch, domain):
        budget = 40
        monkeypatch.setattr(opsys, "SAMPLE_BUDGET", budget)
        streams, generators = [], opsys._generators
        monkeypatch.setattr(opsys, "_generators", lambda rng: streams.append(generators(rng))
                            or streams[-1])
        made, generator = [], Rng.generator
        monkeypatch.setattr(Rng, "generator", lambda r: made.append(generator(r)) or made[-1])
        rngs = [Rng(14).split(t) for t in range(8)]
        tries, exhausted = [], 0
        for level in (1, 2):
            for sampler, ref in ((sample_point, _ref_sample_point),
                                 (sample_ordered_pair, _ref_sample_ordered_pair)):
                streams.clear()
                errors = {}
                sampler(domain, level, rngs, errors=errors)
                [(rows, _)] = streams
                for i, r in enumerate(rngs):
                    made.clear()
                    kwargs = {"stats": tries} if ref is _ref_sample_ordered_pair else {}
                    try:
                        ref(domain, level, r, budget=budget, **kwargs)
                    except SamplingError:
                        assert i in errors
                        exhausted += 1
                    [gen] = made
                    assert rows[i][1] == _position(gen)
        if domain is NARROW:
            assert max(attempts for attempts, _ in tries) > 1  # rows rejected at P, then found
        if domain.b - domain.a < 1e-7:
            assert exhausted  # rows out of budget


# --------------------------------------------------------------------------
# Square roots of non-Hermitian stacks: each row as it is alone, and against
# the per-matrix Schur method of SciPy, an independent route.

def _ref_sqrt_triu(t):
    # the Bjorck-Hammarling recurrence for one upper triangular matrix, entry by entry
    n = t.shape[0]
    s = np.zeros_like(t)
    np.fill_diagonal(s, np.sqrt(np.diag(t)))
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = t[i, j] - s[i, i + 1:j] @ s[i + 1:j, j]
            s[i, j] = acc / (s[i, i] + s[j, j])
    return s


def _overflow_exponent(m):
    # k for a matrix whose Frobenius norm overflows: principal_sqrt takes the
    # root of 4^-k times it, its largest part then below 2^400; 0 for any other
    if np.isfinite(np.linalg.norm(m)):
        return 0
    parts = np.abs(np.concatenate([m.real.ravel(), m.imag.ravel()]))
    return int((np.frexp(parts.max())[1] - 399) // 2)


def _takes_eig(m):
    # whether principal_sqrt takes a matrix's root by eig (or the iteration), not by eigh
    m = m * 4.0 ** -_overflow_exponent(m)
    return np.linalg.norm(m - m.conj().T) > 1e-13 * (1.0 + np.linalg.norm(m))


def _ref_principal_sqrt(m):
    # One general matrix through scipy.linalg.schur and _ref_sqrt_triu, with the
    # branch-cut and reconstruction tests of the kernel.
    scale = 1.0 + op_norm(m)
    t, z = scipy.linalg.schur(m, output="complex")
    w = np.diag(t)
    dist = np.where(w.real > 0.0, np.abs(w), np.abs(w.imag))
    if np.any(dist <= TOL_BRANCH * scale):
        nearest = w[np.argmin(dist)]
        raise BranchCutError(f"eigenvalue {nearest} within 1e-10 of the closed ray (-inf, 0]")
    root = z @ _ref_sqrt_triu(t) @ z.conj().T
    if op_norm(root @ root - m) > TOL_RECON * scale:
        raise NumericalError("principal square root failed to reconstruct its input")
    return root


def _cut_value(exc):
    # the eigenvalue a BranchCutError names
    return complex(str(exc).split()[1])


def _against_schur(m, got, exc):
    """Assert that a general row's root ``got`` or error ``exc`` is what the Schur
    method gives: the same error type (a branch-cut error naming nearly the same
    eigenvalue), or a root within 1e-12 of its root."""
    try:
        want, ref = _ref_principal_sqrt(m), None
    except (BranchCutError, NumericalError) as err:
        want, ref = None, err
    assert type(exc) is type(ref)
    if isinstance(ref, BranchCutError):
        value = _cut_value(ref)
        assert abs(_cut_value(exc) - value) <= 1e-9 * (1.0 + op_norm(m))
    elif ref is None:
        assert op_norm(got - want) <= 1e-12 * op_norm(want)


def _mixed_rows(n, count, rng):
    # Non-Hermitian rows among Hermitian ones (positive and negative definite):
    # half-plane and shifted Ginibre rows, a large one (its residual needs
    # the operator norm), one with an eigenvalue on the branch cut, one with
    # an eigenvalue just outside the cut's tolerance, and an ill-conditioned
    # one whose root can fail to reconstruct it.
    def row(kind, r):
        if kind == "halfplane":
            h, k = random_matrix("hermitian", n, r.split(0)), random_matrix("pd", n, r.split(1))
            return h + 1j * k
        if kind == "ginibre":
            return random_matrix("ginibre", n, r) + (2.0 + 2.0j) * np.sqrt(n) * np.eye(n)
        if kind == "large":
            return 1e6 * (random_matrix("ginibre", n, r) + (2.0 + 2.0j) * np.sqrt(n) * np.eye(n))
        if kind == "ill":  # a cluster of eigenvalues near the cut under a large triangle
            u = random_matrix("unitary", n, r.split(0))
            tri = 1e3 * np.triu(random_matrix("ginibre", n, r.split(1)), 1)
            tri += np.diag((-1e-6 + 2e-6j) * (1.0 + 1e-3 * np.arange(n)))
            return u @ tri @ u.conj().T
        if kind in ("cut", "near"):
            u = random_matrix("unitary", n, r.split(0))
            tri = np.triu(random_matrix("ginibre", n, r.split(1)), 1) + np.diag(1.0 + np.arange(n))
            tri[0, 0] = -1.0
            tri[0, 0] += 1j * (0.5 if kind == "cut" else 1.5) * TOL_BRANCH * (1.0 + op_norm(tri))
            return u @ tri @ u.conj().T
        return (1.0 if kind == "pd" else -1.0) * random_matrix("pd", n, r)

    kinds = ("halfplane", "pd", "cut", "ginibre", "nd", "near", "large", "ill")
    return [row(kinds[i % len(kinds)], rng.split(i)) for i in range(count)]


@pytest.fixture
def iterated(monkeypatch):
    """The rows of each stack principal_sqrt hands to the Denman-Beavers iteration."""
    rows, iterate = [], kernels._roots_by_iteration
    monkeypatch.setattr(kernels, "_roots_by_iteration",
                        lambda a, w: rows.append(a.copy()) or iterate(a, w))
    return rows


class TestGeneralRoots:
    """principal_sqrt on a stack is, row for row, the root each row gets alone, and
    the root or the error of the per-matrix Schur method."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_rows_match_alone_bit_for_bit_and_the_schur_method(self, n, iterated):
        eye = np.eye(n, dtype=np.complex128)
        cut = recon = 0
        for count in (0, 1, 2, 5, 40):
            rows = _mixed_rows(n, count, Rng(31).split(n, count))
            errors = {}
            got = principal_sqrt(np.reshape(rows, (count, n, n)), errors)
            assert got.shape == (count, n, n)
            for i, m in enumerate(rows):
                alone = {}
                assert got[i].tobytes() == principal_sqrt(m, alone).tobytes()
                assert [(type(e), str(e)) for e in alone.values()] == (
                    [(type(errors[i]), str(errors[i]))] if i in errors else [])
                if i in errors:
                    with pytest.raises(type(errors[i]), match=re.escape(str(errors[i]))):
                        principal_sqrt(m)
                if _takes_eig(m):
                    _against_schur(m, got[i], errors.get(i))
                    if isinstance(errors.get(i), BranchCutError):
                        cut += 1
                        assert got[i].tobytes() == eye.tobytes()  # the identity stand-in
                recon += isinstance(errors.get(i), NumericalError)
        assert cut >= 6  # every stack of 5 or 40 rows has non-Hermitian branch-cut rows
        assert recon >= (n > 1)  # and from n = 2 an ill-conditioned row fails to reconstruct
        # from n = 2 the ill-conditioned rows take the iteration, alone and in their stacks
        assert len(iterated) >= 4 * (n > 1)

    def test_a_failed_eigensolver_is_a_row_error(self, monkeypatch):
        eig = np.linalg.eig

        def fails_on_marked(a):  # a matrix with 7 in its corner does not converge
            if (np.asarray(a)[..., 0, 0] == 7.0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        rows = _mixed_rows(3, 3, Rng(32))[:1] * 3
        rows[1] = rows[1].copy()
        rows[1][0, 0] = 7.0
        want = [principal_sqrt(m) for m in rows]
        monkeypatch.setattr(np.linalg, "eig", fails_on_marked)
        text = "eigensolver did not converge: Eigenvalues did not converge"
        errors = {}
        got = principal_sqrt(np.stack(rows), errors)
        assert list(errors) == [1] and type(errors[1]) is EigensolverError
        assert str(errors[1]) == text
        assert got[1].tobytes() == np.eye(3, dtype=np.complex128).tobytes()
        assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[2].tobytes()
        with pytest.raises(EigensolverError, match=re.escape(text)):
            principal_sqrt(rows[1])


# kinds of rows for the differential test: name -> row of size n from an Rng
def _jordan(n, r):
    # a rotated Jordan block J_n(lam), |lam| in [0.5, 2] and |arg lam| <= 2.5:
    # defective, so its eigenvectors leave the diagonalization untrusted
    u = r.split(0).generator().random(2)
    lam = (0.5 + 1.5 * u[0]) * np.exp(1j * (5.0 * u[1] - 2.5))
    q = random_matrix("unitary", n, r.split(1))
    return q @ (lam * np.eye(n) + np.eye(n, k=1)) @ q.conj().T


def _with_entry(value):
    def row(n, r):
        m = random_matrix("pd", n, r).copy()
        m[n - 1, 0] = value
        return m
    return row


DIFFERENTIAL_ROWS = {
    "pd": lambda n, r: random_matrix("pd", n, r),
    "nd": lambda n, r: -random_matrix("pd", n, r),
    "halfplane": lambda n, r: (random_matrix("hermitian", n, r.split(0))
                               + 1j * random_matrix("pd", n, r.split(1))),
    "ginibre": lambda n, r: random_matrix("ginibre", n, r) + 2.0 * np.sqrt(n) * np.eye(n),
    "cut": lambda n, r: _mixed_rows(n, 3, r)[2],
    "near": lambda n, r: _mixed_rows(n, 6, r)[5],
    "hermitian_cut": lambda n, r: _hermitian_rows(n, 2, r)[1],
    "hermitian_near": lambda n, r: _hermitian_rows(n, 5, r)[4],
    "jordan": lambda n, r: _jordan(n, r) if n > 1 else np.array([[1.0 + 1.0j]]),
    "nan": _with_entry(np.nan),
    "inf": _with_entry(complex(np.inf, 1.0)),
}


class TestRootsDifferential:
    """principal_sqrt against independent references on hostile stacks: NaN and
    infinite rows, rows scaled by 1e300 or 1e-300, rows on or just off the branch
    cut, and Jordan rows, which must take the iteration and still reconstruct."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.tuples(st.sampled_from(sorted(DIFFERENTIAL_ROWS)),
                                   st.sampled_from([1.0, 1e300, 1e-300])),
                         min_size=1, max_size=8))
    def test_stacks_against_eigh_and_schur(self, n, seed, rows):
        iterated = []
        iterate = kernels._roots_by_iteration
        r = Rng(seed)
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            stack = np.stack([scale * DIFFERENTIAL_ROWS[kind](n, r.split(i))
                              for i, (kind, scale) in enumerate(rows)])
            mp.setattr(kernels, "_roots_by_iteration",
                       lambda a, w: iterated.extend(a.tolist()) or iterate(a, w))
            errors = {}
            got = principal_sqrt(stack, errors)
            for i, ((kind, scale), m) in enumerate(zip(rows, stack)):
                exc = errors.get(i)
                if kind in ("nan", "inf"):
                    assert type(exc) is NonFiniteError
                    assert got[i].tobytes() == np.eye(n, dtype=np.complex128).tobytes()
                elif _takes_eig(m):
                    _against_schur(m, got[i], exc)
                    if kind == "jordan" and n > 1 and scale >= 1.0:  # as the kernel scales it
                        assert exc is None
                        assert (m * 4.0 ** -_overflow_exponent(m)).tolist() in iterated
                else:  # eigh, of the row as principal_sqrt scales it, bit for bit
                    k = _overflow_exponent(m)
                    want, ref = _ref_hermitian_root(m * 4.0 ** -k)
                    assert type(exc) is type(ref)
                    if ref is None:
                        assert got[i].tobytes() == (want * 2.0 ** k).tobytes()
                    elif isinstance(ref, BranchCutError):
                        assert _cut_value(exc) == _cut_value(ref) * 4.0 ** k
                if exc is None:  # every root reconstructs its row
                    k = _overflow_exponent(m)
                    root, a = got[i] * 2.0 ** -k, m * 4.0 ** -k
                    assert op_norm(root @ root - a) <= TOL_RECON * (1.0 + op_norm(a))
                assert np.isfinite(got[i]).all()


def _ref_hermitian_root(m):
    # One matrix by np.linalg.eigh of its Hermitian part, with the kernel's
    # branch-cut text and reconstruction test.  Returns the root and None, or
    # the root the kernel gives a failed row and the error: a row on the cut
    # gets the product of its eigenvectors with every eigenvalue set to 1.
    scale = 1.0 + op_norm(m)
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    if w[0] <= TOL_BRANCH * scale:
        return u @ u.conj().T, BranchCutError(
            f"eigenvalue {float(w[0])} within 1e-10 of the closed ray (-inf, 0]")
    root = (u * np.sqrt(w)) @ u.conj().T
    if op_norm(root @ root - m) > TOL_RECON * scale:
        return root, NumericalError("principal square root failed to reconstruct its input")
    return root, None


def _hermitian_rows(n, count, rng):
    # Hermitian rows, exactly or within the tolerance: positive and negative
    # definite, a large one (its residual needs the operator norm), one off
    # Hermitian by 1e-14, a zero one, and ones whose least eigenvalue lies just
    # inside and just outside the branch cut's tolerance.
    def row(kind, r):
        if kind == "zero":
            return np.zeros((n, n), dtype=np.complex128)
        if kind in ("cut", "near"):
            u = random_matrix("unitary", n, r)
            w = 1.0 + np.arange(n)
            w[0] = (0.5 if kind == "cut" else 1.5) * TOL_BRANCH * (1.0 + n)
            return (u * w) @ u.conj().T
        m = random_matrix("pd", n, r)
        if kind == "rounded":
            m[0, -1] += 1e-14j
        return {"nd": -1.0, "large": 1e6}.get(kind, 1.0) * m

    kinds = ("pd", "cut", "rounded", "nd", "near", "large", "zero")
    return [row(kinds[i % len(kinds)], rng.split(i)) for i in range(count)]


class TestHermitianRoots:
    """principal_sqrt on Hermitian rows is, row for row, np.linalg.eigh of each one."""

    @staticmethod
    def _compare(rows, got, errors):
        # every row against its reference; returns the count of Hermitian rows on the cut
        failing, cut = set(), 0
        for i, m in enumerate(rows):
            if _takes_eig(m):  # as alone, and as the Schur method has it
                alone = {}
                want = principal_sqrt(m, alone)
                exc = alone.get(0)
                _against_schur(m, got[i], exc)
            else:
                want, exc = _ref_hermitian_root(m)
                cut += isinstance(exc, BranchCutError)
            assert got[i].tobytes() == want.tobytes()
            if exc is not None:
                failing.add(i)
                assert (type(errors[i]), str(errors[i])) == (type(exc), str(exc))
        assert set(errors) == failing
        return cut

    @pytest.mark.parametrize("n", range(1, 17))
    def test_rows_match_eigh_bit_for_bit(self, n):
        cut = 0
        for count in (0, 1, 7, 30):
            rows = _hermitian_rows(n, count, Rng(34).split(n, count))
            assert not any(map(_takes_eig, rows))
            errors = {}
            got = principal_sqrt(np.reshape(rows, (count, n, n)), errors)
            assert got.shape == (count, n, n)
            cut += self._compare(rows, got, errors)
            if count == 1:
                alone, exc = _ref_hermitian_root(rows[0])
                if exc is None:
                    assert principal_sqrt(rows[0]).tobytes() == alone.tobytes()
                else:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        principal_sqrt(rows[0])
        assert cut >= 8  # the cut and zero rows of the stacks of 7 and 30

    @pytest.mark.parametrize("n", range(1, 17))
    def test_mixed_with_general_rows(self, n):
        hermitian = _hermitian_rows(n, 14, Rng(35).split(n))
        general = _mixed_rows(n, 16, Rng(36).split(n))
        rows = [m for pair in zip(general, hermitian) for m in pair] + general[14:]
        errors = {}
        got = principal_sqrt(np.stack(rows), errors)
        assert self._compare(rows, got, errors) >= 4


class TestNonFiniteRoots:
    """Rows with a NaN or an infinite entry fail as alone; rows whose norms overflow
    get, as alone, the root of 4^-k times themselves scaled back by 2^k."""

    FINITE = "matrix entries must all be finite"

    @staticmethod
    def _rows(n):
        r = Rng(37).split(n)
        pd, pd2 = random_matrix("pd", n, r.split(0)), random_matrix("pd", n, r.split(1))
        half = random_matrix("hermitian", n, r.split(2)) + 1j * pd2
        nan, inf = pd.copy(), half.copy()
        nan[0, -1] = np.nan
        inf[-1, -1] = np.inf
        return {  # name -> (row, its error type)
            "pd": (pd, None),
            "nan": (nan, NonFiniteError),
            "halfplane": (half, None),
            "inf": (inf, NonFiniteError),
            "pd*1e200": (1e200 * pd, None),  # its Frobenius norm overflows
            # its skew norm overflows too; scaled, it is not Hermitian and takes eig
            "halfplane*1e200": (1e200 * (pd + 1j * pd2), None),
            # its Hermitian part and its residual would overflow
            "pd at 1.7e308": (pd * (1.7e308 / np.abs(pd).max()), None),
            "halfplane at 1.7e308": (half * (1.7e308 / np.abs(half).max()), None),
        }

    @pytest.mark.parametrize("names", [
        ("pd", "nan", "pd*1e200", "pd at 1.7e308"),
        ("halfplane", "inf", "halfplane*1e200", "halfplane at 1.7e308"),
        ("nan", "halfplane", "pd*1e200", "inf", "pd", "pd at 1.7e308", "halfplane*1e200",
         "halfplane at 1.7e308"),
    ], ids=["hermitian", "general", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_fail_or_pass_as_alone(self, n, names):
        cases = self._rows(n)
        rows = [cases[name][0] for name in names]
        with np.errstate(over="ignore", invalid="ignore"):
            alone = []
            for m in rows:
                errs = {}
                alone.append((principal_sqrt(m, errs), errs.get(0)))
            errors = {}
            got = principal_sqrt(np.stack(rows), errors)
            for i, name in enumerate(names):
                want = cases[name][1]
                assert type(errors.get(i)) is type(alone[i][1]) is (want or type(None))
                assert got[i].tobytes() == alone[i][0].tobytes()
                if want is NonFiniteError:  # the identity stand-in
                    assert str(errors[i]) == str(alone[i][1]) == self.FINITE
                    assert got[i].tobytes() == np.eye(n, dtype=np.complex128).tobytes()
                else:  # the root reconstructs the row, both scaled as the kernel scales them
                    k = _overflow_exponent(rows[i])
                    assert (k > 0) == ("*" in name or " at " in name)
                    root, a = got[i] * 2.0 ** -k, rows[i] * 4.0 ** -k
                    assert op_norm(root @ root - a) <= TOL_RECON * (1.0 + op_norm(a))
                    assert np.isfinite(got[i]).all()
            lowest = min(errors)
            with pytest.raises(type(errors[lowest]), match=re.escape(str(errors[lowest]))):
                principal_sqrt(np.stack(rows))


@pytest.fixture
def op_norm_calls(monkeypatch):
    calls = []
    op = kernels.op_norm
    monkeypatch.setattr(kernels, "op_norm", lambda a: calls.append(len(a)) or op(a))
    return calls


class TestRootScreens:
    """The screens in front of the operator norms never add exact work."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_well_conditioned_rows_take_no_operator_norm(self, op_norm_calls, n):
        r = Rng(38).split(n)
        for count in (1, 5, 40):
            rs = [r.split(count, t) for t in range(count)]
            pd = random_matrix("pd", n, rs)
            half = (random_matrix("hermitian", n, [s.split(0) for s in rs])
                    + 1j * random_matrix("pd", n, [s.split(1) for s in rs]))
            for a in (pd, half, np.concatenate([pd, half]), pd[0], half[0]):
                principal_sqrt(a)
        assert op_norm_calls == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_rows_near_a_tolerance_take_the_calls_they_took_before(self, op_norm_calls, n):
        # A row on the cut or just off it takes one call, for the branch-cut
        # test (a failed row keeps its first error, so its identity stand-in
        # takes no residual test), and from n = 2 a large or an ill-conditioned
        # row one for its residual.  A stack takes one per test.
        rows = _mixed_rows(n, 8, Rng(33).split(n))
        calls = {}
        for kind, i in (("cut", 2), ("near", 5), ("large", 6), ("ill", 7)):
            op_norm_calls.clear()
            principal_sqrt(rows[i], {})
            calls[kind] = len(op_norm_calls)
        for kind, stack in (("stack", [rows[i] for i in (2, 5, 6, 7)]), ("all", rows)):
            op_norm_calls.clear()
            principal_sqrt(np.stack(stack), {})
            calls[kind] = len(op_norm_calls)
        big = int(n > 1)
        assert calls == {"cut": 1, "near": 1, "large": big, "ill": big, "stack": 1 + big,
                         "all": 2 + big}

    def test_the_residual_screen_passes_no_row_the_exact_test_fails(self):
        # Rotated Jordan blocks [[l, 1], [0, l]] with a small l have roots of
        # size 1 / sqrt(l), which the Denman-Beavers iteration takes with
        # residuals near the tolerance for l in (1e-5, 1e-3): some fail it with
        # a Frobenius norm of at most 4 TOL_RECON, which a screen eight times
        # looser than the kernel's TOL_RECON / 2 would pass.
        u = random_matrix("unitary", 2, Rng(40))
        rows = [u @ np.array([[s * c, 1.0], [0.0, s * c]]) @ u.conj().T
                for s in np.geomspace(1e-5, 1e-3, 60) for c in (1.0 + 1.0j, 1.0j, -1.0 + 1.0j)]
        errors = {}
        got = principal_sqrt(np.stack(rows), errors)
        near = 0
        for i, (m, root) in enumerate(zip(rows, got)):
            resid = root @ root - m
            fails = op_norm(resid) > TOL_RECON * (1.0 + op_norm(m))
            assert (i in errors) == fails
            near += fails and np.linalg.norm(resid) <= 4.0 * TOL_RECON
        assert near >= 5


# --------------------------------------------------------------------------
# Which error a check raises when rows of one chunk fail at different stages.

# 1e308 * (71900000 * X1) overflows once X1 exceeds 2.5e-8, and the leading
# 0 * turns that into a NaN but every finite value into 0.  On INTERVAL each P
# sits just above 1e-8, and Q lands in (2e-8, 3e-8): a trial whose Q is large
# raises NonFiniteError when f(Q) is decoded.  A candidate P is accepted with
# probability 0.003, so some trials exhaust the sampling budget of 1000 and
# raise SamplingError.
OVERFLOW = "0 * (1" + "0" * 308 + " * (71900000 * X1))"
INTERVAL = spectral_interval(SCALAR, 0.0, 4.0096e-8)


def _stage_errors(seed, trials):
    """Per trial index: the error its serial trial raises, or None."""
    f = function_from_expr("expr", OVERFLOW, SCALAR)
    out = []
    for t in range(trials):
        try:
            _ref_trial("monotone", f, INTERVAL, 1e-8, Rng(seed), [])(1, t)
            out.append(None)
        except NumericalError as exc:
            out.append(type(exc).__name__)
    return out


class TestFirstErrorWins:
    # Trials 0..5 at level 1, as _stage_errors reports them:
    #   seed 5: trial 0 NonFiniteError (evaluation), trial 1 SamplingError (sampling)
    #   seed 36: trial 1 SamplingError (sampling), trial 2 NonFiniteError (evaluation)
    CASES = {5: "matrix entries must all be finite",
             36: "ordered-pair sampling budget (1000) exhausted"}

    def test_the_cases_fail_at_two_stages(self):
        assert _stage_errors(5, 3) == ["NonFiniteError", "SamplingError", None]
        assert _stage_errors(36, 3) == [None, "SamplingError", "NonFiniteError"]

    @pytest.mark.parametrize("seed", CASES)
    def test_the_lowest_trials_error_is_raised(self, monkeypatch, chunk, seed):
        f = function_from_expr("expr", OVERFLOW, SCALAR)
        _, error = _compare(monkeypatch, "monotone", f, INTERVAL, (1,), 6, seed=seed)
        assert error is not None and error[1] == self.CASES[seed]

    # The same for monotone_1d, with a function defined on (0, 2.5e-8) only:
    #   seed 16: trial 0 SamplingError (sampling), trial 1 SpectrumDomainError (func_calc)
    #   seed 36: trial 0 SpectrumDomainError (func_calc), trial 2 SamplingError (sampling)
    NARROW_1D = ScalarFunction("narrow", (0.0, 2.5e-8), lambda x: x, None)
    CASES_1D = {16: "SamplingError", 36: "SpectrumDomainError"}

    @pytest.mark.parametrize("seed", CASES_1D)
    def test_the_lowest_trials_error_is_raised_in_monotone_1d(self, monkeypatch, chunk, seed):
        _, error = _compare(monkeypatch, "monotone_1d", self.NARROW_1D, (INTERVAL.a, INTERVAL.b),
                            (1,), 4, seed=seed)
        assert error is not None and error[0] == self.CASES_1D[seed]
        later = 1 if seed == 16 else 2
        with pytest.raises((NumericalError, SpectrumDomainError)) as alone:
            _ref_trial("monotone_1d", self.NARROW_1D, (INTERVAL.a, INTERVAL.b), 1e-8,
                       Rng(seed), [])(1, later)
        assert type(alone.value).__name__ not in (error[0], "NoneType")

    @pytest.mark.parametrize("seed", CASES)
    def test_cli_reports_it_as_a_numerical_failure(self, monkeypatch, seed):
        check = cli.check_monotone
        monkeypatch.setattr(cli, "check_monotone",
                            lambda f, *o: check(dataclasses.replace(f, domain=INTERVAL), *o))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", "--expr", OVERFLOW, "--system", "scalar", "--suite",
                             "monotone", "--levels", "1..1", "--trials", "6",
                             "--seed", str(seed)])
        doc = json.loads(out.getvalue())
        assert code == cli.EXIT_NUMERICAL
        assert doc["numerical_failures"] == [
            {"check": "monotone", "function": "expr", "error": self.CASES[seed]}]


# Every level-1 point of TINY lies in (1e-8, 1.0024e-8); scaled by 1e12 it
# lies in (10000, 10024).  STAGED leaves sqrt's domain below 10010 and
# overflows (NonFiniteError) above about 10015, so each evaluation of an
# axiom try is retried, raised or good, by where its point falls.
STAGED = ("sqrt(1000000000000 * X1 - 10010) + 0 * (1" + "0" * 308
          + " * (0.00017943 * (1000000000000 * X1)))")


class TestAxiomErrorOrder:
    # seed -> the error of two level-1 trials, and how each trial ends alone
    # (o: out of domain, !: raised, .: good), one item per try:
    CASES = {
        # trial 0 [fx o, fy !: redrawn], [fx o], [fx o], [y !]; trial 1 ends with fx ! at try 2
        57: "SamplingError",
        # trial 0 [fx o], [fx o, fy !: redrawn], [good]; trial 1 ends with x ! at try 2
        36: "SamplingError",
        # trial 0 [fy o], [fx ., fy !]; trial 1 ends with x ! at try 0, before trial 0 does
        10: "NonFiniteError",
        # trial 0 [y !] with a good x; trial 1 is good
        37: "SamplingError",
        # trial 0 is good at try 3; trial 1 [fx !, fy o, fxy o]: fx comes before fxy
        16: "NonFiniteError",
    }

    @pytest.mark.parametrize("seed", CASES)
    def test_the_lowest_trials_first_error_is_raised(self, monkeypatch, chunk, seed):
        f = function_from_expr("expr", STAGED, SCALAR)
        _, error = _compare(monkeypatch, "axioms", f, TINY, (1,), 2, seed=seed)
        assert error is not None and error[0] == self.CASES[seed]
