"""Closed forms of the scalar catalog, an independent reference for its matrices.

``CLOSED_FORMS`` gives each function of ``freemono.loewner1d``'s scalar
catalog and its derivative as NumPy formulas; ``loewner`` and ``pick``
build the Loewner and Pick matrices from them, on ``(..., c)`` nodes or
points.  The catalog evaluates its expressions through the free IR, so
they agree to rounding: bit for bit for ``x`` and ``sqrt``.
"""

import numpy as np

# name -> (f, f'), f on real and complex arrays (sqrt's principal branch), f' on reals
CLOSED_FORMS = {
    "x": (lambda x: x, np.ones_like),
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x)),
    "neg_inverse": (lambda x: -1.0 / x, lambda x: 1.0 / x ** 2),
    "square": (lambda x: x ** 2, lambda x: 2.0 * x),
    "cube": (lambda x: x ** 3, lambda x: 3.0 * x ** 2),
}


def loewner(name, x):
    """(f(x_i) - f(x_j)) / (x_i - x_j), and f'(x_i) on the diagonal."""
    f, df = CLOSED_FORMS[name]
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    fx = f(x)
    out = (fx[..., :, None] - fx[..., None, :]) / (x[..., :, None] - x[..., None, :] + np.eye(n))
    out[..., range(n), range(n)] = df(x)
    return out


def pick(name, z):
    """(f(z_i) - conj f(z_j)) / (z_i - conj z_j)."""
    z = np.asarray(z, dtype=complex)
    fz = CLOSED_FORMS[name][0](z)
    return (fz[..., :, None] - fz[..., None, :].conj()) / (z[..., :, None] - z[..., None, :].conj())
