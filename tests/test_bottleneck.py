import numpy as np
import pytest

from brute import bottleneck_exhaustive
from pdsemcom.homology import bottleneck_distance


def _random_diagram(rng, n):
    births = rng.uniform(0.0, 10.0, size=n)
    pers = rng.uniform(0.0, 4.0, size=n)
    return np.column_stack([births, births + pers])


def test_matches_exhaustive_matching():
    rng = np.random.default_rng(123)
    for trial in range(25):
        a = _random_diagram(rng, int(rng.integers(0, 7)))
        b = _random_diagram(rng, int(rng.integers(0, 7)))
        fast = bottleneck_distance(a, b)
        slow = bottleneck_exhaustive(a, b)
        assert abs(fast - slow) <= 1e-9, (trial, fast, slow)


def test_symmetry_and_identity():
    rng = np.random.default_rng(5)
    a = _random_diagram(rng, 5)
    b = _random_diagram(rng, 3)
    assert bottleneck_distance(a, b) == bottleneck_distance(b, a)
    assert bottleneck_distance(a, a) == 0.0
    assert bottleneck_distance(np.empty((0, 2)), np.empty((0, 2))) == 0.0


def test_empty_versus_points_uses_diagonal():
    a = np.array([[1.0, 5.0], [2.0, 3.0]])
    d = bottleneck_distance(a, np.empty((0, 2)))
    assert d == pytest.approx(2.0)  # (5 - 1) / 2


def test_known_two_point_value():
    a = np.array([[0.0, 4.0]])
    b = np.array([[0.5, 4.5]])
    assert bottleneck_distance(a, b) == pytest.approx(0.5)
    # far-apart small feature is cheaper to kill via the diagonal
    c = np.array([[10.0, 10.4]])
    assert bottleneck_distance(a, c) == pytest.approx(2.0)


def test_infinite_deaths_match_by_birth():
    a = np.array([[1.0, np.inf], [0.0, 2.0]])
    b = np.array([[1.5, np.inf], [0.0, 2.0]])
    assert bottleneck_distance(a, b) == pytest.approx(0.5)
    c = np.array([[0.0, 2.0]])
    assert bottleneck_distance(a, c) == np.inf


def test_perturbation_stability_bound():
    # moving every point by at most eps in sup norm moves the distance
    # by at most eps
    rng = np.random.default_rng(77)
    a = _random_diagram(rng, 6)
    eps = 0.05
    shift = rng.uniform(-eps, eps, size=a.shape)
    assert bottleneck_distance(a, a + shift) <= eps + 1e-12
