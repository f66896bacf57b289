import json

import numpy as np
import pytest

from freemono.kernels import Rng, op_norm
from freemono.opsys import builtin_system, pd_cone, spectral_interval
from freemono.paths import VELOCITY_FLOOR, path_from_witness, sample_path

DIAG2 = builtin_system("diagonal(2)")
RANGES = ((0.1, 5.0), (0.1, 5.0))  # the pd cone's window, once per coordinate
LEVELS = (1, 2, 3, 4)


def _paths(seeds=range(60)):
    for seed in seeds:
        for level in LEVELS:
            yield sample_path(pd_cone(DIAG2), level, Rng(seed).split("path", level))


def _blocks(path):
    # the point X and the velocity H of a path at t = 0
    return path.point().coeffs, path.velocity().coeffs


class TestCommutingPath:
    def test_point_and_velocity_are_the_closed_forms(self):
        # X_i = U diag(D_i) U* and H_i = U diag(Delta_i) U* + [K, X_i], one
        # coordinate at a time, Hermitian to the bit
        for path in _paths(range(10)):
            x, h = _blocks(path)
            n = path.unitary.shape[-1]
            assert x.shape == h.shape == (2, n, n)
            u, k = path.unitary, path.skew
            for i, (d, dl) in enumerate(zip(path.diags, path.deltas)):
                want_x = (u * d) @ u.conj().T
                want_h = (u * dl) @ u.conj().T + (k @ want_x - want_x @ k)
                assert op_norm(x[i] - want_x) <= 1e-14 * op_norm(want_x)
                assert op_norm(h[i] - want_h) <= 1e-14 * op_norm(want_h)
                np.testing.assert_array_equal(x[i], x[i].conj().T)
                np.testing.assert_array_equal(h[i], h[i].conj().T)

    def test_coordinates_commute(self):
        for path in _paths():
            x, y = _blocks(path)[0]
            assert op_norm(x @ y - y @ x) <= 1e-12 * (1 + op_norm(x) * op_norm(y))

    def test_spectrum_stays_in_range(self):
        for path in _paths():
            for coeff, (lo, hi) in zip(_blocks(path)[0], RANGES):
                w = np.linalg.eigvalsh(coeff)
                assert lo < w[0] and w[-1] < hi

    def test_velocity_above_floor(self):
        for path in _paths():
            floor = VELOCITY_FLOOR * min(float(np.min(dl)) for dl in path.deltas)
            for h in _blocks(path)[1]:
                np.testing.assert_array_equal(h, h.conj().T)
                assert np.linalg.eigvalsh(h)[0] >= floor * (1.0 - 1e-9)

    def test_witness_round_trip(self):
        for path in _paths(range(10)):
            doc = json.loads(json.dumps(path.to_witness()))
            assert set(doc) == {"system", "unitary", "diags", "deltas", "skew"}
            again = path_from_witness(DIAG2, doc)
            for a, b in zip(_blocks(again), _blocks(path)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("a, b, window", [
        (0.5, np.inf, (0.6, 5.5)), (-np.inf, -0.5, (-5.5, -0.6)),
    ])
    def test_half_line_gets_the_pd_cone_window(self, a, b, window):
        # (a, inf) gets (a + 0.1, a + 5.0), as the pd cone (0, inf) gets (0.1, 5.0)
        stack = sample_path(spectral_interval(DIAG2, a, b), 3,
                            [Rng(7).split("path", t) for t in range(200)])
        w = np.linalg.eigvalsh(_blocks(stack)[0])
        assert window[0] < w.min() and w.max() < window[1]
