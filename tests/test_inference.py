import numpy as np
import pytest

from pdsemcom.errors import (OutOfBox, ParseError, ShapeError,
                             TrainingDiverged)
from pdsemcom.homology import PersistenceDiagram
from pdsemcom.inference import (AccuracyReport, Classifier, CvSchedule,
                                PerslayConfig, classify, evaluate_accuracy,
                                load_checkpoint, loss_and_gradients,
                                perslay_vectorize, rasterize_raw, run_cv,
                                save_checkpoint, train_classifier)


def _diagram(pairs, dims):
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return PersistenceDiagram(
        births=pairs[:, 0], deaths=pairs[:, 1],
        dims=np.asarray(dims, dtype=int),
        essential=np.zeros(len(pairs), dtype=bool), gamma_max=16.0)


def test_output_dimension():
    cfg = PerslayConfig()
    assert cfg.n_tents == 32
    assert cfg.output_dim == 128
    pd = _diagram([[1.0, 3.0]], [1])
    assert perslay_vectorize(cfg, pd).shape == (128,)


def test_empty_channels_map_to_zeros():
    cfg = PerslayConfig()
    pd = _diagram([[1.0, 3.0]], [0])  # no degree-1 points
    vec = perslay_vectorize(cfg, pd)
    assert np.any(vec[:64] != 0)
    assert np.all(vec[64:] == 0)
    empty = PersistenceDiagram.empty(gamma_max=16.0)
    assert np.all(perslay_vectorize(cfg, empty) == 0)


def test_permutation_invariance_exact():
    cfg = PerslayConfig()
    rng = np.random.default_rng(3)
    births = rng.uniform(0, 8, size=9)
    deaths = births + rng.uniform(0, 6, size=9)
    dims = rng.integers(0, 2, size=9)
    pd = _diagram(np.column_stack([births, deaths]), dims)
    perm = rng.permutation(9)
    pd2 = _diagram(np.column_stack([births, deaths])[perm], dims[perm])
    assert np.array_equal(perslay_vectorize(cfg, pd),
                          perslay_vectorize(cfg, pd2))


def test_hand_computed_tent_value():
    # single tent over the whole box: center (8, 8), bandwidth 4
    cfg = PerslayConfig(n_birth=1, n_pers=1, box_side=16.0, bandwidth=4.0,
                        weight_exponent=1.0, top_k=1)
    pd = _diagram([[7.0, 13.0]], [0])  # birth 7, persistence 6
    # d_inf((7, 6), (8, 8)) = 2, tent = 2, weight = persistence = 6
    vec = perslay_vectorize(cfg, pd)
    assert vec[0] == pytest.approx(12.0)
    assert vec[1] == 0.0  # empty degree-1 channel
    # outside the tent support the feature vanishes
    far = _diagram([[0.5, 1.0]], [0])
    assert perslay_vectorize(cfg, far)[0] == 0.0


def test_top_k_reduction():
    cfg = PerslayConfig(n_birth=1, n_pers=1, box_side=16.0, bandwidth=16.0,
                        weight_exponent=0.0, top_k=2)
    # weight exponent 0: tent values alone; three points at d_inf 1, 2, 3
    pd = _diagram([[7.0, 14.0], [6.0, 12.0], [5.0, 10.0]], [0, 0, 0])
    vec = perslay_vectorize(cfg, pd)
    assert vec[0] >= vec[1] > 0
    assert vec[0] == pytest.approx(15.0)


def test_rasterize_raw():
    out = rasterize_raw(np.array([[0.5, 0.5], [27.9, 27.9], [0.6, 0.4]]))
    assert out.shape == (784,)
    assert out.sum() == 2.0  # two distinct cells, duplicate collapses
    assert out[0] == 1.0 and out[-1] == 1.0
    assert rasterize_raw(np.empty((0, 2))).sum() == 0.0
    with pytest.raises(OutOfBox):
        rasterize_raw(np.array([[30.0, 2.0]]))


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
    label, probs = classify(net, X[0])
    assert label == 1 and probs.shape == (3,)


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


def test_run_cv_modes():
    rng = np.random.default_rng(6)
    X, y = _blobs(rng, n_per=10)
    sched = CvSchedule(n_objects=30, T=3, seed=2)
    report = run_cv(X, y, sched, hidden_sizes=(16,), epochs=150, seed=3)
    assert report.per_fold.shape == (3,)
    assert 0.8 <= report.mean <= 1.0
    assert report.band_low <= report.mean <= report.band_high
    # degenerate mode: evaluating on the training fold itself
    easy = run_cv(X, y, sched, hidden_sizes=(16,), epochs=150, seed=3,
                  train_equals_test=True)
    assert easy.mean >= report.mean - 1e-9
    # processed features with destroyed signal drag accuracy to chance
    noise = rng.normal(size=X.shape) * 100.0
    hurt = run_cv(X, y, sched, processed_features=noise,
                  hidden_sizes=(16,), epochs=150, seed=3)
    assert hurt.mean < report.mean
    with pytest.raises(ShapeError):
        run_cv(X[:-2], y[:-2], sched)


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
