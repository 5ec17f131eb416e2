import hashlib

import numpy as np
import pytest

from pdsemcom.dataset import synth_dataset
from pdsemcom.errors import OutOfBox, ParseError, TrainingDiverged
from pdsemcom.homology import PersistenceDiagram, vr_diagram
from pdsemcom.inference import (AccuracyReport, Classifier, CvSchedule,
                                evaluate_accuracy, load_checkpoint,
                                loss_and_gradients, perslay_vectorize,
                                rasterize_raw, save_checkpoint,
                                train_classifier)


def _diagram(pairs, dims):
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return PersistenceDiagram(
        births=pairs[:, 0], deaths=pairs[:, 1],
        dims=np.asarray(dims, dtype=int),
        essential=np.zeros(len(pairs), dtype=bool), gamma_max=16.0)


def test_output_dimension():
    # two channels of top-2 values over 8 x 4 tents
    pd = _diagram([[1.0, 3.0]], [1])
    assert perslay_vectorize(pd, 16.0).shape == (128,)


def test_empty_channels_map_to_zeros():
    pd = _diagram([[1.0, 3.0]], [0])  # no degree-1 points
    vec = perslay_vectorize(pd, 16.0)
    assert np.any(vec[:64] != 0)
    assert np.all(vec[64:] == 0)
    empty = _diagram(np.empty((0, 2)), [])
    assert np.all(perslay_vectorize(empty, 16.0) == 0)


def test_permutation_invariance_exact():
    rng = np.random.default_rng(3)
    births = rng.uniform(0, 8, size=9)
    deaths = births + rng.uniform(0, 6, size=9)
    dims = rng.integers(0, 2, size=9)
    pd = _diagram(np.column_stack([births, deaths]), dims)
    perm = rng.permutation(9)
    pd2 = _diagram(np.column_stack([births, deaths])[perm], dims[perm])
    assert np.array_equal(perslay_vectorize(pd, 16.0),
                          perslay_vectorize(pd2, 16.0))


def test_hand_computed_tent_value():
    # box 16: tent (i, j) sits at birth 2i + 1, persistence 4j + 2, has
    # half-width 8 and is feature i * 4 + j; features 32..63 hold the
    # second largest values and 64..127 the degree-1 channel
    pd = _diagram([[7.0, 13.0]], [0])  # birth 7, persistence 6
    vec = perslay_vectorize(pd, 16.0)
    # tent (3, 1) at (7, 6): d_inf 0, tent 8, weight = persistence = 6
    assert vec[13] == pytest.approx(48.0)
    # tent (0, 0) at (1, 2): d_inf max(6, 4) = 6, tent 2
    assert vec[0] == pytest.approx(12.0)
    # tent (7, 3) at (15, 14): d_inf 8, on the edge of the support
    assert vec[31] == 0.0
    # one point, top-2: the second row is zero padding; no degree-1 points
    assert np.all(vec[32:] == 0.0)
    # box 12: tent (4, 1) at (6.75, 4.5), d_inf max(0.25, 1.5) = 1.5
    assert perslay_vectorize(pd, 12.0)[17] == pytest.approx(39.0)
    # outside the support the feature vanishes: tent (0, 0) at d_inf 14.5,
    # tent (7, 0) at (15, 2) has d_inf 1.5 and weight 0.5
    far = _diagram([[15.5, 16.0]], [1])
    vec = perslay_vectorize(far, 16.0)
    assert vec[64] == 0.0
    assert vec[64 + 28] == pytest.approx(3.25)


def test_top_k_reduction():
    pd = _diagram([[7.0, 13.0], [6.0, 12.0], [5.0, 10.0]], [0, 0, 0])
    vec = perslay_vectorize(pd, 16.0)
    # tent (3, 1) at (7, 6): values 8 * 6, 7 * 6 and 6 * 5; the top two stay
    assert vec[13] == pytest.approx(48.0)
    assert vec[32 + 13] == pytest.approx(42.0)
    # tent (0, 0) at (1, 2): values 2 * 6, 3 * 6 and 4 * 5, sorted by value
    # and not by point order
    assert vec[0] == pytest.approx(20.0)
    assert vec[32] == pytest.approx(18.0)


def test_rasterize_raw():
    out = rasterize_raw(np.array([[0.5, 0.5], [27.9, 27.9], [0.6, 0.4]]))
    assert out.shape == (784,)
    assert out.sum() == 2.0  # two distinct cells, duplicate collapses
    assert out[0] == 1.0 and out[-1] == 1.0
    assert rasterize_raw(np.empty((0, 2))).sum() == 0.0
    with pytest.raises(OutOfBox):
        rasterize_raw(np.array([[30.0, 2.0]]))


def _digest(vectors):
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
    return h.hexdigest()


def test_golden_vectorizer_outputs():
    # tent features and rasters of seeded inputs, hashed: an empty diagram,
    # an empty degree-1 channel, a channel with fewer points than top-k,
    # boundary points and diagrams of synthetic clouds
    rng = np.random.default_rng(2024)
    births = rng.uniform(0, 12, size=20)
    pairs = np.column_stack([births, births + rng.uniform(0, 8, size=20)])
    ds = synth_dataset(per_class=1, n_points=24, noise=0.2, seed=5)
    diagrams = [
        _diagram(pairs, rng.integers(0, 2, size=20)),
        _diagram(pairs[:6], [0] * 6),
        _diagram(pairs[:5], [0, 0, 0, 0, 1]),
        _diagram(np.empty((0, 2)), []),
    ] + [vr_diagram(o.points, gamma_max=16.0) for o in ds.objects]
    assert _digest([perslay_vectorize(d, 16.0) for d in diagrams]) == (
        "1f92aa4de69ae6f017747a99fe71fda7030daaf8c69247bdb5bb569446065251")
    assert _digest([perslay_vectorize(d, 12.0) for d in diagrams]) == (
        "3fe1db78f45a64c0ca7e6dd0bc6cdc326d1461fa61b00fe3b9d658cae8417fe2")
    clouds = [rng.uniform(0, 28, size=(40, 2)),
              np.array([[0.0, 0.0], [28.0, 28.0], [14.0, 0.0]]),
              np.empty((0, 2))] + [o.points for o in ds.objects]
    assert _digest([rasterize_raw(c) for c in clouds]) == (
        "64f196cbabecb1443e407d1d01f082779d00fe71837b2c456476980e43b5a58b")


def _blobs(rng, n_per=40, d=6):
    centers = np.array([[0.0] * d, [4.0] * d, [-4.0] * d])
    X = np.vstack([rng.normal(c, 1.0, size=(n_per, d)) for c in centers])
    y = np.repeat([1, 2, 3], n_per)
    return X, y


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    X, y = _blobs(rng, n_per=8, d=5)
    net = Classifier((5, 7, 3), seed=4)
    y_index = y - 1
    loss, gw, gb = loss_and_gradients(net, X, y_index)
    eps = 1e-6
    worst = 0.0
    for layer in range(2):
        W = net.weights[layer]
        for idx in [(0, 0), (2, 1), (W.shape[0] - 1, W.shape[1] - 1)]:
            orig = W[idx]
            W[idx] = orig + eps
            up, _, _ = loss_and_gradients(net, X, y_index)
            W[idx] = orig - eps
            dn, _, _ = loss_and_gradients(net, X, y_index)
            W[idx] = orig
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(fd - gw[layer][idx]))
        b = net.biases[layer]
        orig = b[0]
        b[0] = orig + eps
        up, _, _ = loss_and_gradients(net, X, y_index)
        b[0] = orig - eps
        dn, _, _ = loss_and_gradients(net, X, y_index)
        b[0] = orig
        worst = max(worst, abs((up - dn) / (2 * eps) - gb[layer][0]))
    assert worst < 1e-4


def test_training_separates_blobs():
    rng = np.random.default_rng(0)
    X, y = _blobs(rng)
    net = train_classifier(X, y, hidden_sizes=(16,), epochs=200, seed=1)
    assert evaluate_accuracy(net, X, y) >= 0.95
    assert net.loss_history[-1] < net.loss_history[0]
    probs = net.predict_proba(X[:1])
    assert net.predict(X[:1])[0] == 1 and probs.shape == (1, 3)


def test_training_is_deterministic():
    rng = np.random.default_rng(2)
    X, y = _blobs(rng, n_per=15)
    a = train_classifier(X, y, hidden_sizes=(8,), epochs=50, seed=7)
    b = train_classifier(X, y, hidden_sizes=(8,), epochs=50, seed=7)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)
    c = train_classifier(X, y, hidden_sizes=(8,), epochs=50, seed=8)
    assert not all(np.array_equal(Wa, Wc)
                   for Wa, Wc in zip(a.weights, c.weights))


def test_training_requires_all_classes():
    rng = np.random.default_rng(3)
    X, y = _blobs(rng, n_per=10)
    keep = y != 2
    with pytest.raises(ValueError):
        train_classifier(X[keep], y[keep], hidden_sizes=(8,), epochs=5)


def test_divergence_is_reported():
    # features near the float64 limit overflow in the first forward pass,
    # so the loss is not finite at step 0
    rng = np.random.default_rng(4)
    X, y = _blobs(rng, n_per=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train_classifier(X * 1e308, y, hidden_sizes=(8,), epochs=50)
    assert err.value.step == 0


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    X, y = _blobs(rng, n_per=10)
    net = train_classifier(X, y, hidden_sizes=(8,), epochs=30, seed=2)
    path = tmp_path / "net.bin"
    save_checkpoint(path, net)
    back = load_checkpoint(path)
    assert back.layer_sizes == net.layer_sizes
    assert np.array_equal(back.predict(X), net.predict(X))
    for Wa, Wb in zip(net.weights, back.weights):
        assert np.array_equal(Wa, Wb)
    # corrupted files are rejected
    raw = path.read_bytes()
    (tmp_path / "bad1.bin").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ParseError):
        load_checkpoint(tmp_path / "bad1.bin")
    (tmp_path / "bad2.bin").write_bytes(raw + b"\x00")
    with pytest.raises(ParseError):
        load_checkpoint(tmp_path / "bad2.bin")


def test_cv_schedule_properties():
    sched = CvSchedule(n_objects=30, T=4, seed=5)
    assert len(sched.folds) == 4
    for train, test in sched.folds:
        assert len(train) == len(test) == 15
        assert len(np.intersect1d(train, test)) == 0
        assert np.array_equal(np.union1d(train, test), np.arange(30))
    again = CvSchedule(n_objects=30, T=4, seed=5)
    assert sched.schedule_hash() == again.schedule_hash()
    other = CvSchedule(n_objects=30, T=4, seed=6)
    assert sched.schedule_hash() != other.schedule_hash()
    with pytest.raises(ValueError):
        CvSchedule(n_objects=31, T=4, seed=5)


def test_accuracy_report_validation():
    with pytest.raises(ValueError):
        AccuracyReport(per_fold=np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        AccuracyReport(per_fold=np.array([-0.1, 0.7]))
    rep = AccuracyReport([0.5, 0.7])
    assert rep.mean == pytest.approx(0.6)
    assert rep.band_low == 0.5 and rep.band_high == 0.7


def test_golden_accuracy_report():
    rep = AccuracyReport([0.7, 0.8, 0.65, 0.9, 0.75, 0.85, 0.6])
    assert (rep.mean, rep.band_low, rep.band_high, rep.std) == (
        0.7499999999999999, 0.6, 0.9, 0.10000000000000002)
