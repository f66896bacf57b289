import json

import numpy as np
import pytest

from freemono.kernels import Rng, op_norm
from freemono.opsys import builtin_system
from freemono.paths import VELOCITY_FLOOR, path_from_witness, sample_path

DIAG2 = builtin_system("diagonal(2)")
RANGES = ((0.1, 5.0), (0.1, 5.0))
LEVELS = (1, 2, 3, 4)


def _paths(seeds=range(60)):
    for seed in seeds:
        for level in LEVELS:
            gen = Rng(seed).split("path", level).generator()
            yield sample_path(DIAG2, level, gen, RANGES)


def _band(path):
    return (-path.eps, 0.0, path.eps)


class TestCommutingPath:
    def test_coordinates_commute(self):
        for path in _paths():
            for t in _band(path):
                x, y = path.point(t).coeffs
                assert op_norm(x @ y - y @ x) <= 1e-12 * (1 + op_norm(x) * op_norm(y))

    def test_spectrum_stays_in_range(self):
        for path in _paths():
            for t in _band(path):
                for coeff, (lo, hi) in zip(path.point(t).coeffs, RANGES):
                    w = np.linalg.eigvalsh(coeff)
                    assert lo < w[0] and w[-1] < hi

    def test_velocity_above_floor(self):
        for path in _paths():
            floor = VELOCITY_FLOOR * min(float(np.min(dl)) for dl in path.deltas)
            for t in _band(path):
                assert path.velocity_margin(t) >= floor * (1.0 - 1e-9)

    def test_witness_round_trip(self):
        for path in _paths(range(10)):
            again = path_from_witness(DIAG2, json.loads(json.dumps(path.to_witness())))
            assert again.eps == path.eps
            for t in _band(path):
                for a, b in zip(again.point(t).coeffs, path.point(t).coeffs):
                    np.testing.assert_array_equal(a, b)

    def test_rejects_bad_ranges(self):
        gen = Rng(0).generator()
        with pytest.raises(ValueError):
            sample_path(DIAG2, 2, gen, RANGES[:1])
        with pytest.raises(ValueError):
            sample_path(DIAG2, 2, gen, ((0.1, 5.0), (0.1, np.inf)))
