"""Empirical checks for both sides of the monotonicity / half-plane equivalence.

Each check samples seeded trials, records a scaled margin per trial (the
most negative eigenvalue for order checks, minus the relative residual for
identity checks) and fails a trial when its margin drops below ``-tol``.
Trials derive their randomness from (master rng, check name, function,
level, trial index), so results do not depend on the order trials run in.
A check of one function f takes ``(f, levels, trials, tol, rng)`` and
samples in f's own domain, ``f.domain``.

Trials run in one thread, one level at a time.  Every check here, and the
three checks of :mod:`freemono.loewner1d`, run the trials of a level as
stacks of up to ``TRIAL_CHUNK`` points: they sample the chunk at once,
evaluate f once per chunk (the boundary check at A and its six shifts in
one stack) and take the margins of the whole chunk at once.  A chunk hands
:func:`_run_trials` its margins, its row errors and one witness builder,
and there each trial gets the margin, witness or error it would get alone;
the checks that redraw a trial until its evaluations succeed make theirs
with :func:`_retry_trials`.  The local check draws the chunk's commuting
paths as one stack and evaluates f once, at their points, carrying the
exact derivatives along their velocities (:func:`_derivative_margins`).
Only the trial the report keeps builds its witness JSON, and between chunks
a check keeps only that trial and its failure count, so its memory does not
grow with the trial count.
"""

from __future__ import annotations

import numpy as np

from . import kernels, opsys, paths
from .freeexpr import (
    CodomainError, FreeFunction, OutOfDomainError, catalog, eval_derivative, eval_function,
)
from .kernels import (
    NumericalError, Rng, SingularMatrixError, _ct, hermitize, imag_part, op_norm, scaled_min_eig,
    settle,
)
from .opsys import (
    direct_sum,
    identity_point,
    point_to_json,
    realize,
    sample_halfplane,
    sample_ordered_pair,
    sample_point,
    stack_points,
)
from .report import OUT_OF_DOMAIN_MARGIN, CheckReport, ConsistencyReport

BOUNDARY_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
TRIAL_CHUNK = 256  # trials of one level run as one stack; bounds the memory of a large --trials


def _trial_levels(levels, trials) -> tuple:
    """``levels`` as a tuple of ints, checked before any trial runs: a check needs
    at least one level and one trial."""
    levels = tuple(int(x) for x in levels)
    if not levels or trials < 1:
        raise ValueError("a check needs at least one level and one trial")
    return levels


def _run_trials(check, function, run, levels, trials, tol, rng) -> CheckReport:
    """Run ``run(level, ts)`` over each level's trials, ``TRIAL_CHUNK`` at a time, and
    report the margins.

    ``run`` gives the chunk's ``margins``, one per trial index in ``ts``, its
    row ``errors`` (``{row: first error}``) and ``witness(i, extra)``, which
    builds row i's witness from ``extra``: ``{"margin": m}``, or
    ``{"error": text}`` for an evaluation error.  Each row ends as its trial
    run alone would: an evaluation error gives the margin
    ``OUT_OF_DOMAIN_MARGIN``, and any other error is raised, the lowest
    row's first.

    Between chunks only the failure count and the first trial with the most
    negative margin are kept, so memory does not grow with ``trials``.  The
    witness is that trial's when some margin drops below ``-tol``.  Raises
    :class:`NumericalError` on the first non-finite margin once every chunk
    has run, so an error that a later chunk raises comes first.
    """
    levels = _trial_levels(levels, trials)
    failures, worst, bad = 0, None, None

    def tally(level, lo):
        # one chunk, whose trials are dropped when it returns unless it holds the worst
        nonlocal failures, worst, bad
        margins, errors, witness = run(level, range(lo, min(lo + TRIAL_CHUNK, trials)))
        settle({i: e for i, e in errors.items()
                if not isinstance(e, (OutOfDomainError, CodomainError))}, None)
        margins = np.array(margins, dtype=float)
        margins[list(errors)] = OUT_OF_DOMAIN_MARGIN
        finite = np.isfinite(margins)
        if bad is None and not finite.all():
            i = int(finite.argmin())
            bad = (float(margins[i]), level, lo + i)
        margins[~finite] = np.inf  # neither fails nor is kept
        failures += int(np.count_nonzero(margins < -tol))
        i = int(margins.argmin())
        if finite[i] and (worst is None or margins[i] < worst[0]):
            extra = {"error": str(errors[i])} if i in errors else {"margin": float(margins[i])}
            worst = (float(margins[i]), witness, i, extra)

    for level in levels:
        for lo in range(0, trials, TRIAL_CHUNK):
            tally(level, lo)
    if bad:
        raise NumericalError(f"{check} of {function}: margin {bad[0]} at level {bad[1]}, "
                             f"trial {bad[2]}")
    margin, witness, i, extra = worst
    return CheckReport(
        check=check,
        function=function,
        levels=levels,
        trials=int(trials),
        failures=failures,
        worst_margin=margin,
        witness=witness(i, extra) if failures else None,
        seed=rng.seed,
        tol=float(tol),
    )


def _retry_trials(rs: list, draw, retry: tuple, exhausted: str):
    """The margins, row errors and witness builder, as :func:`_run_trials` takes them, of
    the trials ``rs``, each at its first try that meets no error of the types ``retry``.

    Try k of trial i draws from ``rs[i].split("attempt", k)``, up to 100 tries.
    ``draw(rngs, failed)`` makes one try of a stack of trials, one per Rng: it
    adds each failed row's first error to ``failed`` and returns the rows'
    margins and ``witness(j)``, row j's witness, which carries no margin.
    Any other error, and ``SamplingError(exhausted)`` for a trial out of
    tries, is the trial's error.
    """
    margins, errs, kept = np.zeros(len(rs)), {}, [None] * len(rs)

    def attempt(rows, k):
        failed = {}
        ms, witness = draw([rs[i].split("attempt", k) for i in rows], failed)
        done = np.array([not isinstance(failed.get(j), retry) for j in range(len(rows))])
        for j in np.flatnonzero(done):
            if j in failed:
                errs[rows[j]] = failed[j]
            else:
                margins[rows[j]], kept[rows[j]] = ms[j], (witness, j)
        return done

    opsys._redraw(attempt, len(rs), 100, exhausted, errs)
    return margins, errs, lambda i, extra: kept[i][0](kept[i][1])


def is_diagonal_type(system: opsys.OpSysBasis) -> bool:
    """True for systems whose basis is diagonal matrix units (commuting tuples)."""
    if system.size != system.k:
        return False
    return all(np.count_nonzero(e - np.diag(np.diag(e))) == 0 for e in system.basis)


# --------------------------------------------------------------------------
# Shared margin computations (also used to re-verify reported witnesses).

def _settle_by_row(failed: dict, rows: int, errors: dict | None):
    """Settle the errors of a stack of blocks of ``rows`` rows by row, at its earliest block."""
    first = {}
    for row, exc in sorted(failed.items()):
        first.setdefault(row % rows, exc)
    settle(first, errors)


def _differences(values, ab, errors: dict | None) -> np.ndarray:
    """values(B) - values(A) of each pair, ``ab`` being the stack of the As, then the Bs.

    ``values(ab, failed)`` evaluates the whole stack at once and adds its
    failed rows to the dict ``failed``.  A pair that fails is handed to
    :func:`~freemono.kernels.settle` with its first error, at A before B,
    and its difference means nothing.
    """
    failed = {}
    fab = values(ab, failed)
    rows = len(fab) // 2
    _settle_by_row(failed, rows, errors)
    return fab[rows:] - fab[:rows]


def pair_margin(f: FreeFunction, a: opsys.NCPoint, b: opsys.NCPoint,
                errors: dict | None = None):
    """Scaled PSD margin of realize(f(b)) - realize(f(a)).

    f is evaluated once, at the stack of A and B.  A pair that fails is
    handed to :func:`~freemono.kernels.settle` with its first error, at A
    before B, and its margin means nothing.
    """
    diff = _differences(lambda x, e: realize(eval_function(f, x, e)), stack_points(a, b), errors)
    return scaled_min_eig(hermitize(diff.reshape(a.coeffs.shape[:-3] + diff.shape[1:])), errors)


def halfplane_margin(f: FreeFunction, p: opsys.NCPoint, errors: dict | None = None):
    """Scaled PSD margin of Im realize(f(p)); a point that fails is handed on as by
    :func:`pair_margin`."""
    return scaled_min_eig(imag_part(realize(eval_function(f, p, errors))), errors)


def _derivative_margins(f: FreeFunction, path: paths.CommutingPath,
                        errors: dict | None = None) -> np.ndarray:
    """Scaled PSD margin of Df(X)[H] for each row of a stack of paths, X and H
    being the path's point and velocity at t = 0.

    f is evaluated once, at the stack of points X, carrying its derivative
    along H through the same program (:func:`~freemono.freeexpr.eval_derivative`).
    A row that fails is handed on as by :func:`pair_margin`.
    """
    _, der = eval_derivative(f, path.point(), path.velocity(), errors)
    return scaled_min_eig(hermitize(realize(der)), errors)


def local_margin(f: FreeFunction, witness: dict) -> float:
    """Recompute the derivative margin from a witness."""
    path = paths.path_from_witness(f.in_system, witness["path"])
    return float(_derivative_margins(f, path[np.newaxis])[0])


# --------------------------------------------------------------------------
# Checks.

def check_monotone(f: FreeFunction, levels=(1, 2, 3), trials: int = 100, tol: float = 1e-8,
                   rng: Rng = Rng(0)) -> CheckReport:
    """Sample ordered pairs in f's domain and test f(A) <= f(B)."""

    def run(level, ts):
        errors = {}
        rngs = rng.split_each(ts, "monotone", f.name, level)
        a, b = sample_ordered_pair(f.domain, level, rngs, errors=errors)
        return pair_margin(f, a, b, errors), errors, lambda i, extra: {
            "A": point_to_json(a[i]), "B": point_to_json(b[i]), **extra}

    return _run_trials("monotone", f.name, run, levels, trials, tol, rng)


def check_halfplane(f: FreeFunction, levels=(1, 2, 3), trials: int = 100,
                    tol: float = 1e-8, rng: Rng = Rng(0)) -> CheckReport:
    """Sample upper-half-plane points and test Im f >= 0.

    An evaluation error inside the half-plane counts as a failure: the
    continuation is supposed to be defined on all of it.
    """

    def run(level, ts):
        errors = {}
        p = sample_halfplane(f.in_system, level, rng.split_each(ts, "halfplane", f.name, level))
        return halfplane_margin(f, p, errors), errors, lambda i, extra: {
            "P": point_to_json(p[i]), **extra}

    return _run_trials("halfplane", f.name, run, levels, trials, tol, rng)


def check_free_axioms(f: FreeFunction, levels=(1, 2, 3), trials: int = 200, tol: float = 1e-9,
                      rng: Rng = Rng(0)) -> CheckReport:
    """Direct-sum and similarity residuals of f on points sampled in its domain."""

    def run(level, ts):
        def draw(rngs, failed):
            rows = len(rngs)
            x = sample_point(f.domain, level, [r.split("x") for r in rngs], errors=failed)
            y = sample_point(f.domain, level, [r.split("y") for r in rngs], errors=failed)
            u = kernels.random_matrix("unitary", level, [r.split("u") for r in rngs])
            # opsys.conjugate(p, u), with each U inverted once for both x and fx
            inv, s = kernels.safe_inv(u)[:, np.newaxis], u[:, np.newaxis]

            def similar(p):
                return opsys._point(p.system, opsys._check_finite(inv @ p.coeffs @ s))

            at_n, at_2n = {}, {}
            fs = eval_function(f, stack_points(x, y, similar(x)), at_n)
            fxy = eval_function(f, direct_sum(x, y), at_2n)
            # a row's first error, in the order fx, fy, fxy, fu
            _settle_by_row({r: e for r, e in at_n.items() if r < 2 * rows}, rows, failed)
            settle(at_2n, failed)
            _settle_by_row({r: e for r, e in at_n.items() if r >= 2 * rows}, rows, failed)
            fx, fy, fu = fs[:rows], fs[rows:2 * rows], fs[2 * rows:]
            scale = 1.0 + op_norm(realize(fx))
            ds = (op_norm(realize(fxy) - realize(direct_sum(fx, fy))) / scale).tolist()
            sim = (op_norm(realize(similar(fx)) - realize(fu)) / scale).tolist()
            return [-max(a, b) for a, b in zip(ds, sim)], lambda j: {
                "X": point_to_json(x[j]), "Y": point_to_json(y[j]),
                "unitary": kernels.matrix_to_json(u[j]),
                "residual_direct_sum": ds[j], "residual_similarity": sim[j]}

        return _retry_trials(rng.split_each(ts, "axioms", f.name, level), draw,
                             (OutOfDomainError, CodomainError),
                             "axiom check found no evaluable sample in 100 attempts")

    return _run_trials("free_axioms", f.name, run, levels, trials, tol, rng)


def check_local_monotone(f: FreeFunction, levels=(1, 2, 3), trials: int = 100,
                         tol: float = 1e-8, rng: Rng = Rng(0)) -> CheckReport:
    """Derivative Df(X)[H] of f at commuting tuples X in f's domain, along
    positive-definite velocities H tangent to them (:func:`_derivative_margins`)."""
    if not is_diagonal_type(f.in_system):
        raise ValueError("local monotonicity needs a scalar or diagonal input system")

    def run(level, ts):
        errors = {}
        path = paths.sample_path(f.domain, level, rng.split_each(ts, "local", f.name, level))
        return _derivative_margins(f, path, errors), errors, lambda i, extra: {
            "path": path[i].to_witness(), **extra}

    return _run_trials("local_monotone", f.name, run, levels, trials, tol, rng)


def check_boundary_continuity(f: FreeFunction, levels=(1, 2, 3), trials: int = 50,
                              tol: float = 1e-8, rng: Rng = Rng(0)) -> CheckReport:
    """Approach a Hermitian interior point vertically and test for linear decay.

    The decay rate is calibrated at the largest epsilon; a trial fails when
    some smaller epsilon overshoots that line by more than a factor of 10,
    or when an evaluation leaves the domain of definition.
    """

    def run(level, ts):
        errors, failed, rows = {}, {}, len(ts)
        a = sample_point(f.domain, level, rng.split_each(ts, "boundary", f.name, level),
                         errors=errors)
        ident = identity_point(f.in_system, level)
        # f at A, then at A + i eps I for each eps from large to small, as one stack
        vals = realize(eval_function(
            f, stack_points(a, *(a + (1j * eps) * ident for eps in BOUNDARY_EPS_GRID)), failed))
        _settle_by_row(failed, rows, errors)
        base = vals[:rows]
        denom = 1.0 + op_norm(base)
        ratios = op_norm(vals[rows:].reshape((-1,) + base.shape) - base) / denom
        rates = ratios[0] / BOUNDARY_EPS_GRID[0]
        margins = [
            min((10.0 * c * eps + 1e-14 - rr) / (10.0 * c * eps + 1e-14)
                for eps, rr in zip(BOUNDARY_EPS_GRID, ratios[:, i]))
            for i, c in enumerate(rates)
        ]
        return margins, errors, lambda i, extra: {"A": point_to_json(a[i]), **(
            {} if "error" in extra else {  # an error witness names A only
                "rate": float(rates[i]),
                "ratios": [[e, float(rr)] for e, rr in zip(BOUNDARY_EPS_GRID, ratios[:, i])]}),
            **extra}

    return _run_trials("boundary_continuity", f.name, run, levels, trials, tol, rng)


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

    def run(n, ts):
        def draw(rngs, failed):
            p = sample_halfplane(sys2, n, rngs)
            m = realize(p)
            blocks = m.reshape(-1, 2, n, 2, n)
            w = -kernels.safe_inv(_ct(blocks[:, 1, :, 1, :]), failed) @ _ct(blocks[:, 0, :, 1, :])
            imf = imag_part(realize(eval_function(schur, p, failed)))
            v = np.concatenate([np.broadcast_to(np.eye(n, dtype=np.complex128), w.shape), w], axis=1)
            scale = [1.0 + x ** 2 for x in op_norm(m).tolist()]
            resid = (op_norm(imf - _ct(v) @ imag_part(m) @ v) / scale).tolist()
            im = kernels._eigh(imf, failed)[:, 0].tolist()  # fails only after the try is accepted
            return [min(-r, -1.0) if i <= 0.0 else -r for r, i in zip(resid, im)], lambda j: {
                "X": point_to_json(p[j]), "residual": resid[j], "im_margin": im[j]}

        return _retry_trials(rng.split_each(ts, "schur_im_identity", n), draw,
                             (SingularMatrixError, OutOfDomainError, CodomainError),
                             "no half-plane sample with invertible X22 in 100 attempts")

    return _run_trials("schur_im_identity", "schur_complement", run, levels, trials, tol, rng)


def equivalence_report(f: FreeFunction, levels=(1, 2, 3), trials: int = 100,
                       tol: float = 1e-8, rng: Rng = Rng(0)) -> ConsistencyReport:
    """Run the monotone, local (where applicable) and half-plane checks.

    The verdicts must agree for a genuine free function; disagreement points
    at a toolkit or tolerance defect, not at the mathematics.
    """
    mono = check_monotone(f, levels, trials, tol, rng)
    reports = [mono]
    sides = {"monotone": mono.verdict}
    if is_diagonal_type(f.in_system):
        loc = check_local_monotone(f, levels, trials, tol, rng)
        reports.append(loc)
        sides["local"] = loc.verdict
    hp = check_halfplane(f, levels, trials, tol, rng)
    reports.append(hp)
    sides["halfplane"] = hp.verdict
    return ConsistencyReport("equivalence", f.name, tuple(reports), sides)
