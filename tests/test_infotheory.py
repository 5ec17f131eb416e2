import numpy as np
import pytest

from pdsemcom.errors import EmptyDensity, OutOfBox, ShapeError
from pdsemcom.infotheory import (EmpiricalDensity, bottleneck_style_distortion,
                                 cell_probabilities, estimate_density,
                                 mse_distortion, quantizer_entropy,
                                 semantic_rate)
from pdsemcom.quantizer import QuantizerGrid


def _uniform_density(box=16.0, partition=28):
    mass = np.full((partition, partition), 1.0 / partition ** 2)
    return EmpiricalDensity(box_side=box, partition=partition, mass=mass)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="box side"):
        EmpiricalDensity(box_side=bad, partition=1, mass=[[1.0]])
    with pytest.raises(ValueError, match="finite"):
        EmpiricalDensity(box_side=16.0, partition=1, mass=[[bad]])
    with pytest.raises(ValueError, match="finite"):
        EmpiricalDensity(box_side=16.0, partition=2,
                         mass=[[0.5, 0.5], [0.0, bad]])
    with pytest.raises(ValueError):
        EmpiricalDensity(box_side=bad, partition=1, mass=[[bad]])


def test_density_validation():
    for side in (0.0, -1.0):
        with pytest.raises(ValueError, match="box side"):
            EmpiricalDensity(box_side=side, partition=1, mass=[[1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        EmpiricalDensity(box_side=1.0, partition=2,
                         mass=[[1.5, -0.5], [0.0, 0.0]])
    # the sum tolerance stays 1e-12
    with pytest.raises(ValueError, match="sum"):
        EmpiricalDensity(box_side=1.0, partition=1, mass=[[1.0 + 1e-10]])
    assert EmpiricalDensity(box_side=1.0, partition=1,
                            mass=[[1.0 + 1e-13]]).mass.shape == (1, 1)
    with pytest.raises(ShapeError):
        EmpiricalDensity(box_side=1.0, partition=2, mass=[[1.0]])


def test_density_copies_the_callers_mass():
    m = np.full((2, 2), 0.25)
    density = EmpiricalDensity(box_side=1.0, partition=2, mass=m)
    assert m.flags.writeable
    assert not density.mass.flags.writeable
    m[0, 0] = 0.5
    assert density.mass[0, 0] == 0.25


def test_estimate_density_normalizes():
    rng = np.random.default_rng(1)
    sets = [rng.uniform(0, 16, size=(rng.integers(1, 9), 2)) for _ in range(30)]
    dens = estimate_density(sets, box_side=16.0)
    assert dens.mass.shape == (28, 28)
    assert np.sum(dens.mass) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutOfBox):
        estimate_density([np.array([[17.0, 1.0]])], box_side=16.0)
    with pytest.raises(EmptyDensity):
        estimate_density([], box_side=16.0)


def test_uniform_entropy_is_log_cell_count():
    # partition (28) and quantizer bins deliberately non-divisible
    dens = _uniform_density()
    for m in (10, 17, 27):
        grid = QuantizerGrid(box_side=16.0, n_bins=m)
        p = cell_probabilities(dens, grid)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
        assert quantizer_entropy(p) == pytest.approx(np.log2(m * m), abs=1e-9)


def test_cell_probabilities_match_histogram_when_aligned():
    # 28 partition cells over a 14-bin grid: each quantizer cell is exactly
    # a 2x2 block, so exact integration must reproduce the histogram
    rng = np.random.default_rng(6)
    sets = [rng.uniform(0, 28, size=(20, 2)) for _ in range(40)]
    dens = estimate_density(sets, box_side=28.0, partition=28)
    grid = QuantizerGrid(box_side=28.0, n_bins=14)
    p = cell_probabilities(dens, grid)
    counts = np.zeros(grid.n_cells)
    for pts in sets:
        for k in grid.quantize_points(pts):
            counts[k - 1] += 1
    assert np.allclose(p, counts / counts.sum(), atol=1e-12)


def test_entropy_validation():
    with pytest.raises(ValueError):
        quantizer_entropy(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        quantizer_entropy(np.array([1.5, -0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            quantizer_entropy(np.array([bad, 1.0]))
    # +0.0, not -0.0
    assert str(quantizer_entropy(np.array([1.0, 0.0]))) == "0.0"


def test_uniform_mse_is_exact():
    dens = _uniform_density()
    for m in (5, 10, 27):
        grid = QuantizerGrid(box_side=16.0, n_bins=m)
        delta = grid.cell_width
        assert mse_distortion(dens, grid) == pytest.approx(
            delta ** 2 / 6.0, abs=1e-12)


def test_mse_matches_monte_carlo_on_lumpy_density():
    rng = np.random.default_rng(13)
    blob = rng.normal([8.0, 8.0], 2.5, size=(4000, 2))
    blob = blob[(blob >= 0).all(1) & (blob <= 16).all(1)]
    dens = estimate_density([blob], box_side=16.0, partition=28)
    grid = QuantizerGrid(box_side=16.0, n_bins=10)
    analytic = mse_distortion(dens, grid)

    # sample from the piecewise-constant density itself
    n = 200_000
    flat = dens.mass.ravel()
    cells = rng.choice(len(flat), size=n, p=flat)
    w = dens.cell_width
    xy = np.column_stack([cells // 28, cells % 28]) * w + rng.uniform(
        0, w, size=(n, 2))
    centers = grid.centers_of(grid.quantize_points(xy))
    mc = float(np.mean(np.sum((xy - centers) ** 2, axis=1)))
    assert analytic == pytest.approx(mc, rel=0.02)


def test_box_mismatch_rejected():
    dens = _uniform_density(box=16.0)
    grid = QuantizerGrid(box_side=28.0, n_bins=10)
    with pytest.raises(ShapeError):
        cell_probabilities(dens, grid)
    with pytest.raises(ShapeError):
        mse_distortion(dens, grid)


def test_bottleneck_style_distortion_hand_example():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)  # centers at 2, 6, 10, 14
    sets = [
        np.array([[0.0, 0.0]]),               # worst shift 2.0
        np.array([[5.0, 5.0], [7.5, 9.9]]),   # shifts 1.0 and 1.5
    ]
    assert bottleneck_style_distortion(sets, grid) == pytest.approx(1.75)
    assert bottleneck_style_distortion([np.empty((0, 2))], grid) == 0.0


def test_semantic_rate_cell_counts():
    r_pd = semantic_rate(2.0, "pd", 10, mean_symbols=6.5)
    assert r_pd.M == 55
    assert r_pd.rate_bits_per_object == pytest.approx(110.0)
    assert r_pd.self_information_bits_per_object == pytest.approx(13.0)
    r_raw = semantic_rate(2.0, "raw", 10, mean_symbols=40.0)
    assert r_raw.M == 100
    with pytest.raises(ValueError):
        semantic_rate(2.0, "voxel", 10, mean_symbols=1.0)
    # entropy cannot exceed log2 of the admissible cell count
    with pytest.raises(ValueError):
        semantic_rate(np.log2(55) + 1e-3, "pd", 10, mean_symbols=1.0)


def test_self_information_identity_on_aligned_grid():
    # with density partition == quantizer bins, cell probabilities are the
    # empirical symbol frequencies, so mean_symbols * H equals the average
    # per-object sum of -log2 p over its own symbols
    rng = np.random.default_rng(21)
    sets = [rng.uniform(0, 28, size=(rng.integers(3, 12), 2))
            for _ in range(50)]
    grid = QuantizerGrid(box_side=28.0, n_bins=28)
    dens = estimate_density(sets, box_side=28.0, partition=28)
    p = cell_probabilities(dens, grid)
    entropy = quantizer_entropy(p)
    mean_symbols = float(np.mean([len(s) for s in sets]))
    report = semantic_rate(entropy, "raw", 28, mean_symbols)

    per_object = []
    for pts in sets:
        ks = grid.quantize_points(pts)
        per_object.append(float(np.sum(-np.log2(p[ks - 1]))))
    assert report.self_information_bits_per_object == pytest.approx(
        float(np.mean(per_object)), abs=1e-9)
