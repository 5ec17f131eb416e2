import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from brute import train_classifier_all_columns, train_classifier_per_array
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
        essential=np.zeros(len(pairs), dtype=bool))


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
    ] + [vr_diagram(o.points, gamma_max=16.0) for o in ds]
    assert _digest([perslay_vectorize(d, 16.0) for d in diagrams]) == (
        "1f92aa4de69ae6f017747a99fe71fda7030daaf8c69247bdb5bb569446065251")
    assert _digest([perslay_vectorize(d, 12.0) for d in diagrams]) == (
        "3fe1db78f45a64c0ca7e6dd0bc6cdc326d1461fa61b00fe3b9d658cae8417fe2")
    clouds = [rng.uniform(0, 28, size=(40, 2)),
              np.array([[0.0, 0.0], [28.0, 28.0], [14.0, 0.0]]),
              np.empty((0, 2))] + [o.points for o in ds]
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
        train_classifier(X[keep], y[keep], hidden_sizes=(8,), epochs=5,
                         seed=0)


def test_divergence_is_reported():
    # features near the float64 limit overflow in the first forward pass,
    # so the loss is not finite at step 0
    rng = np.random.default_rng(4)
    X, y = _blobs(rng, n_per=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train_classifier(X * 1e308, y, hidden_sizes=(8,), epochs=50,
                             seed=0)
    assert err.value.step == 0


def test_all_zero_training_matrix_keeps_first_layer():
    # no column is filled, so the first layer is never fitted; the biases
    # still learn the class priors, and prediction takes full-width rows
    y = np.repeat([1, 2, 3], [6, 4, 2])
    net = train_classifier(np.zeros((12, 5)), y, hidden_sizes=(4,),
                           epochs=20, seed=3)
    want = train_classifier_all_columns(np.zeros((12, 5)), y,
                                        hidden_sizes=(4,), epochs=20, seed=3)
    assert net.layer_sizes == (5, 4, 3)
    assert np.array_equal(net.weights[0],
                          Classifier((5, 4, 3), seed=3).weights[0])
    assert np.array_equal(net.weights[0], want.weights[0])
    assert net.loss_history[-1] < net.loss_history[0]
    X = np.random.default_rng(6).uniform(0, 2, size=(7, 5))
    probs = net.predict_proba(X)
    assert probs.shape == (7, 3)
    assert np.allclose(probs, want.predict_proba(X), rtol=1e-9, atol=1e-12)


def _one_extreme_column(value):
    rng = np.random.default_rng(4)
    X, y = _blobs(rng, n_per=10)
    X[:, 0] = 0.0
    X[:, 2] = value
    return X, y


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_column_diverges_at_step_zero(value):
    # such a column is nonzero, so it is fitted, and the loss is not finite
    # at the first step, as in a fit over every column
    X, y = _one_extreme_column(value)
    for train in (train_classifier, train_classifier_all_columns):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(X, y, hidden_sizes=(8,), epochs=50, seed=0)
        assert err.value.step == 0


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_saturated_fit_diverges(value):
    # a +-1e308 column saturates the softmax at a finite loss, but g**2
    # overflows, so ADAM's second moment is infinite and every later step
    # is zero: the fit has learned nothing and says so
    X, y = _one_extreme_column(value)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged,
                           match="second moment is not finite") as err:
            train_classifier(X, y, hidden_sizes=(8,), epochs=50, seed=0)
    assert err.value.step == 50


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_divergence_matches_per_array_fit(value):
    # the flat fit stops where the per-array one stops, with the same report
    X, y = _one_extreme_column(value)
    errors = []
    for train in (train_classifier, train_classifier_per_array):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(X, y, hidden_sizes=(8,), epochs=50, seed=0)
        errors.append((str(err.value), err.value.step))
    assert errors[0] == errors[1]


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


def test_checkpoint_round_trip_without_hidden_layer(tmp_path):
    net = Classifier((4, 3), seed=3)
    path = tmp_path / "net.bin"
    save_checkpoint(path, net)
    back = load_checkpoint(path)
    assert back.layer_sizes == (4, 3)
    assert back.params.dtype == net.params.dtype
    assert back.params.tobytes() == net.params.tobytes()


def test_checkpoint_reload_is_bit_identical_and_draws_nothing(tmp_path,
                                                              monkeypatch):
    import pdsemcom.inference as inference
    rng = np.random.default_rng(6)
    X, y = _blobs(rng, n_per=5)
    net = train_classifier(X, y, hidden_sizes=(7, 4), epochs=10, seed=9)
    path = tmp_path / "net.bin"
    save_checkpoint(path, net)

    def no_draw(*args):
        raise AssertionError("load_checkpoint drew a random network")

    monkeypatch.setattr(inference, "substream", no_draw)
    back = load_checkpoint(path)
    assert back.layer_sizes == net.layer_sizes == (6, 7, 4, 3)
    # one vector, copied out of the file's buffer, in checkpoint order
    assert back.params.dtype == net.params.dtype
    assert back.params.tobytes() == net.params.tobytes()
    assert back.params.flags.owndata and back.params.flags.writeable
    for p, q in zip(net.weights + net.biases, back.weights + back.biases):
        assert p.dtype == q.dtype and p.shape == q.shape
        assert p.tobytes() == q.tobytes()
        assert q.base is back.params and q.flags.writeable
    assert back.loss_history == []
    save_checkpoint(tmp_path / "again.bin", back)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_malformed_checkpoints_are_parse_errors(tmp_path):
    # the layer sizes are checked against the file's length before any
    # network is built, so a header that declares a huge network allocates
    # nothing, and a file cut anywhere names the part that is short
    rng = np.random.default_rng(5)
    X, y = _blobs(rng, n_per=10)
    net = train_classifier(X, y, hidden_sizes=(3,), epochs=5, seed=2)
    save_checkpoint(tmp_path / "net.bin", net)
    raw = (tmp_path / "net.bin").read_bytes()
    assert net.layer_sizes == (6, 3, 3) and len(raw) == 24 + 8 * 33

    def header(*sizes, n_layers=None):
        n = len(sizes) if n_layers is None else n_layers
        return struct.pack(f"<4sII{len(sizes)}I", b"PDSC", 1, n, *sizes)

    cases = [
        # the last bias keeps 2 of its 3 entries
        (raw[:-8], "cut short in the parameters"),
        (raw[:9], "cut short in the header"),
        # 5 of the first layer's 18 weights
        (raw[:24 + 8 * 5], "cut short in the parameters"),
        (header(100000, 100000, 3) + bytes(64),
         "cut short in the parameters"),
        (header(5, 0, 3) + bytes(8 * 3), "width 0"),
        (header(n_layers=2**32 - 1), "cut short in the layer sizes"),
        (header(6, 3, n_layers=3), "cut short in the layer sizes"),
        (header(4), "need at least 2"),
        (raw + b"\x00", "1 trailing bytes"),
    ]
    for k, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{k}.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=message):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000, (k, peak)


def test_fitted_nets_share_no_memory(tmp_path):
    # the fit steps the narrowed net's vector, but each fitted net owns its
    # own vector: every weight and bias is a view of it, no view keeps the
    # fit's vector alive, and no array ties two nets or a checkpoint's
    # file buffer together
    rng = np.random.default_rng(8)
    X, y = _blobs(rng, n_per=6)
    X[:, 1] = 0.0
    a = train_classifier(X, y, hidden_sizes=(8, 4), epochs=20, seed=5)
    b = train_classifier(X, y, hidden_sizes=(8, 4), epochs=20, seed=5)
    save_checkpoint(tmp_path / "a.bin", a)
    back = load_checkpoint(tmp_path / "a.bin")
    nets = (a, b, back)
    for net in nets:
        assert net.params.flags.owndata and net.params.base is None
        assert len(net.params) == sum(p.size for p in net.weights
                                      + net.biases)
        for p in net.weights + net.biases:
            assert p.base is net.params
    for i, net in enumerate(nets):
        for other in nets[i + 1:]:
            assert not np.shares_memory(net.params, other.params)
    # the first weight matrix is the full-width one the fit scattered into
    assert a.weights[0].shape == (6, 8)
    assert back.layer_sizes == a.layer_sizes == (6, 8, 4, 3)
    for p, q in zip(a.weights + a.biases, back.weights + back.biases):
        assert p.tobytes() == q.tobytes()


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
