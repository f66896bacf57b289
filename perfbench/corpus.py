"""Seeded witness corpus for the ``witness-replay`` workload.

Records are point JSON in the documented format (row-major ``[re, im]``
entries), drawn with NumPy alone: ordered pairs ``A <= B`` of positive
definite points, and half-plane points ``H + iK`` with ``K`` positive
definite.  Each record carries a reference margin computed here from the
same matrices, without freemono, so a replay can be checked against it.
"""

from __future__ import annotations

import numpy as np

FUNCTIONS = ("msqrt", "square", "geometric_mean", "schur_complement")
SYSTEMS = {"msqrt": "scalar", "square": "scalar", "geometric_mean": "diagonal(2)",
           "schur_complement": "block2"}
LEVELS = (1, 2, 3, 4)
KINDS = ("pair", "halfplane")
PER_GROUP = 16  # records per (function, level, kind): 512 records in all


def _unitary(gen, n):
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _pd(gen, n, lo, hi):
    """Hermitian matrix with spectrum drawn uniformly from [lo, hi]."""
    u = _unitary(gen, n)
    return (u * gen.uniform(lo, hi, n)) @ u.conj().T


def _hermitian(gen, n):
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return (z + z.conj().T) / 4.0


def _sqrt_h(a):
    w, u = np.linalg.eigh(a)
    return (u * np.sqrt(w)) @ u.conj().T


def _sqrt_general(a):
    # Principal square root through an eigendecomposition; the inputs here
    # are diagonalizable with spectra well away from (-inf, 0].
    w, v = np.linalg.eig(a)
    return (v * np.sqrt(w)) @ np.linalg.inv(v)


def _gmean(x1, x2, sqrt):
    s = sqrt(x1)
    s_inv = np.linalg.inv(s)
    return s @ sqrt(s_inv @ x2 @ s_inv) @ s


def _reference_value(function, mats, hermitian):
    """The function's value on a point given by its coefficient matrices."""
    if function == "square":
        return mats[0] @ mats[0]
    if function == "msqrt":
        return _sqrt_h(mats[0]) if hermitian else _sqrt_general(mats[0])
    if function == "geometric_mean":
        return _gmean(mats[0], mats[1], _sqrt_h if hermitian else _sqrt_general)
    # schur_complement on the assembled block matrix [[X11, X12], [X21, X22]]
    x11, x12, x21, x22 = mats
    return x11 - x12 @ np.linalg.solve(x22, x21)


def _scaled_min_eig(h):
    w = np.linalg.eigvalsh(h)
    return float(w[0]) / (1.0 + max(abs(float(w[0])), abs(float(w[-1]))))


def _draw_point(gen, function, n, kind):
    """Matrices of one point: the function's inputs, before encoding."""
    size = 2 * n if function == "schur_complement" else n
    count = 2 if function == "geometric_mean" else 1
    if kind == "halfplane":
        return [_hermitian(gen, size) + 1j * _pd(gen, size, 0.3, 2.0) for _ in range(count)]
    return [_pd(gen, size, 0.5, 3.0) for _ in range(count)]


def _inputs(function, mats, n):
    """Arguments of ``_reference_value`` for the drawn matrices."""
    if function != "schur_complement":
        return mats
    m = mats[0]
    return [m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]]


def _coeffs(function, mats, n):
    """Coefficients over the function's input system (see ``opsys.builtin_system``)."""
    if function != "schur_complement":
        return mats
    m = mats[0]
    x12, x21 = m[:n, n:], m[n:, :n]
    return [m[:n, :n], m[n:, n:], (x12 + x21) / 2.0, (x12 - x21) / 2.0j]


def _matrix_json(a):
    return {"n": int(a.shape[0]),
            "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a]}


def _point_json(function, mats, n):
    return {"system": SYSTEMS[function], "level": n,
            "coeffs": [_matrix_json(c) for c in _coeffs(function, mats, n)]}


def _near_branch_cut(function, mats):
    # The geometric mean of half-plane points takes the square root of
    # S^-1 X2 S^-1 (S = sqrt(X1)); keep its spectrum off the negative axis.
    if function != "geometric_mean":
        return False
    s_inv = np.linalg.inv(_sqrt_general(mats[0]))
    w = np.linalg.eigvals(s_inv @ mats[1] @ s_inv)
    return bool(np.any(np.abs(np.angle(w)) > 0.8 * np.pi))


def _record(gen, function, n, kind):
    if kind == "pair":
        a = _draw_point(gen, function, n, kind)
        b = [x + _pd(gen, x.shape[0], 0.05, 1.0) for x in a]
        fa = _reference_value(function, _inputs(function, a, n), True)
        fb = _reference_value(function, _inputs(function, b, n), True)
        d = fb - fa
        ref = _scaled_min_eig((d + d.conj().T) / 2.0)
        return {"function": function, "kind": kind, "A": _point_json(function, a, n),
                "B": _point_json(function, b, n), "reference": ref}
    while True:
        p = _draw_point(gen, function, n, kind)
        if not _near_branch_cut(function, p):
            break
    fp = _reference_value(function, _inputs(function, p, n), False)
    im = (fp - fp.conj().T) / 2.0j
    ref = _scaled_min_eig((im + im.conj().T) / 2.0)
    return {"function": function, "kind": kind, "P": _point_json(function, p, n),
            "reference": ref}


def build(seed: int) -> list:
    """The corpus for ``seed``: the same seed always gives the same records.

    Records cycle through every (function, level, kind) group, so any run
    of consecutive replays mixes all of them.
    """
    gen = np.random.default_rng(seed)
    groups = [(f, n, k) for f in FUNCTIONS for n in LEVELS for k in KINDS]
    return [_record(gen, f, n, k) for _ in range(PER_GROUP) for f, n, k in groups]
