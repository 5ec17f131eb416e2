"""Diagram vectorization, a small numpy MLP classifier, and the pieces of
repeated 2-fold cross-validation: the seeded fold schedule, per-fold
accuracy and the report over the repetitions. The fold loop itself is the
sweep's (harness.py), which trains on clean features and tests on received
ones.

The vectorization follows the fixed (non-learnable) recipe: tent functions
on a uniform 8 x 4 grid over the (birth, persistence) rectangle,
persistence-power weights, and a top-2 permutation-invariant reduction per
tent. Degree-0 and degree-1 points are vectorized separately and
concatenated (2 x 64 features) so loop features are not drowned by
component mass. Training runs full-batch ADAM for a fixed epoch budget;
everything is deterministic given the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ShapeError, TrainingDiverged
from .homology import PersistenceDiagram
from .quantizer import QuantizerGrid

N_CLASSES = 3
CHECKPOINT_MAGIC = b"PDSC"
CHECKPOINT_VERSION = 1
# ADAM step size, moment decay rates and denominator guard
LEARNING_RATE = 0.001
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# Tent grid: N_BIRTH x N_PERS tents over the [0, box_side]^2 (birth,
# persistence) rectangle; the TOP_K largest weighted values per tent form
# the output, so one channel yields TOP_K * N_BIRTH * N_PERS features
N_BIRTH = 8
N_PERS = 4
# wide enough that one-cell quantizer displacements (m >= 10 over a 16-unit
# box) move tent responses only fractionally
BANDWIDTH = 8.0
WEIGHT_EXPONENT = 1.0
TOP_K = 2
# raw rasters have one cell per pixel of a 28 x 28 image
RASTER_BINS = 28


def _channel_features(points: np.ndarray, box_side: float) -> np.ndarray:
    """Top-k reduction of weighted tent evaluations for one channel.

    Each tent evaluates max(0, BANDWIDTH - ||(b, d - b) - center||_inf) and
    is scaled by persistence^WEIGHT_EXPONENT; a channel with fewer than
    TOP_K points is padded with zeros.
    """
    n = N_BIRTH * N_PERS
    if len(points) == 0:
        return np.zeros(TOP_K * n)
    birth = points[:, 0]
    pers = points[:, 1] - points[:, 0]
    # tent centers in (birth, persistence), birth-major
    b = (np.arange(N_BIRTH) + 0.5) * (box_side / N_BIRTH)
    p = (np.arange(N_PERS) + 0.5) * (box_side / N_PERS)
    bb, pp = np.meshgrid(b, p, indexing="ij")
    centers = np.column_stack([bb.ravel(), pp.ravel()])
    d_inf = np.maximum(
        np.abs(birth[:, None] - centers[None, :, 0]),
        np.abs(pers[:, None] - centers[None, :, 1]),
    )
    tents = np.maximum(0.0, BANDWIDTH - d_inf)
    weighted = (pers ** WEIGHT_EXPONENT)[:, None] * tents
    if len(points) < TOP_K:
        weighted = np.vstack([weighted, np.zeros((TOP_K - len(points), n))])
    # descending sort per tent, keep the k largest
    top = -np.sort(-weighted, axis=0)[:TOP_K]
    return top.reshape(-1)


def perslay_vectorize(diagram: PersistenceDiagram,
                      box_side: float) -> np.ndarray:
    """Permutation-invariant feature vector, degree 0 then degree 1; empty
    channels map to zeros."""
    return np.concatenate([
        _channel_features(diagram.points(0), box_side),
        _channel_features(diagram.points(1), box_side),
    ])


def rasterize_raw(points: np.ndarray, box_side: float = 28.0) -> np.ndarray:
    """Binary RASTER_BINS^2 occupancy raster of a point set, flattened
    x-bin major."""
    grid = QuantizerGrid(box_side=box_side, n_bins=RASTER_BINS)
    out = np.zeros(grid.n_cells)
    out[grid.quantize_points(points) - 1] = 1.0
    return out


class Classifier:
    """Fully connected ReLU network with a softmax head."""

    def __init__(self, layer_sizes, seed: int = 0):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed))
        )
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.step = 0
        self.loss_history = []

    def forward(self, X: np.ndarray):
        """-> (probabilities, per-layer activations for backprop)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.layer_sizes[0]:
            raise ShapeError(
                f"expected {self.layer_sizes[0]} features, got {X.shape[1]}"
            )
        activations = [X]
        h = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            h = z if i == len(self.weights) - 1 else np.maximum(z, 0.0)
            activations.append(h)
        logits = activations[-1]
        logits = logits - np.max(logits, axis=1, keepdims=True)
        expz = np.exp(logits)
        probs = expz / np.sum(expz, axis=1, keepdims=True)
        return probs, activations

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """1-based class labels."""
        return np.argmax(self.predict_proba(X), axis=1) + 1


def loss_and_gradients(classifier: Classifier, X: np.ndarray, y_index: np.ndarray):
    """Mean cross-entropy and gradients; exposed for finite-difference checks."""
    probs, acts = classifier.forward(X)
    n = len(X)
    eps = 1e-12
    loss = float(-np.mean(np.log(probs[np.arange(n), y_index] + eps)))
    delta = probs.copy()
    delta[np.arange(n), y_index] -= 1.0
    delta /= n
    grads_w = [None] * len(classifier.weights)
    grads_b = [None] * len(classifier.biases)
    for i in range(len(classifier.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = np.sum(delta, axis=0)
        if i > 0:
            delta = (delta @ classifier.weights[i].T) * (acts[i] > 0)
    return loss, grads_w, grads_b


def train_classifier(features: np.ndarray, labels: np.ndarray,
                     hidden_sizes=(64, 32), epochs: int = 300,
                     seed: int = 0) -> Classifier:
    """Full-batch ADAM on categorical cross-entropy for a fixed budget."""
    X = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int).ravel()
    if X.ndim != 2 or len(X) != len(labels):
        raise ShapeError("features must be (N, d) aligned with labels")
    present = np.unique(labels)
    for c in range(1, N_CLASSES + 1):
        if c not in present:
            raise ValueError(f"training fold has no example of class {c}")
    y_index = labels - 1

    net = Classifier((X.shape[1], *hidden_sizes, N_CLASSES), seed=seed)
    # weights then biases; parameters, moments and the bias-corrected
    # moments are updated in place, so the update allocates no arrays
    params = net.weights + net.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    m_hat = [np.empty_like(p) for p in params]
    v_hat = [np.empty_like(p) for p in params]
    for epoch in range(epochs):
        loss, gw, gb = loss_and_gradients(net, X, y_index)
        if not np.isfinite(loss):
            raise TrainingDiverged("loss is not finite", step=epoch)
        net.loss_history.append(loss)
        net.step += 1
        t = net.step
        for p, g, mi, vi, mh, vh in zip(params, gw + gb, m, v, m_hat, v_hat):
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, with the
            # hat arrays as scratch; then p -= lr m_hat / (sqrt(v_hat) + eps)
            mi *= BETA1
            mi += np.multiply(g, 1 - BETA1, out=mh)
            vi *= BETA2
            vi += np.multiply(np.square(g, out=vh), 1 - BETA2, out=vh)
            np.divide(mi, 1 - BETA1 ** t, out=mh)
            np.divide(vi, 1 - BETA2 ** t, out=vh)
            mh *= LEARNING_RATE
            np.sqrt(vh, out=vh)
            vh += ADAM_EPS
            mh /= vh
            p -= mh
    return net


def save_checkpoint(path, classifier: Classifier) -> None:
    """Versioned binary layout: magic, version, layer sizes, float64 params."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(classifier.layer_sizes)))
        fh.write(struct.pack(f"<{len(classifier.layer_sizes)}I",
                             *classifier.layer_sizes))
        for W, b in zip(classifier.weights, classifier.biases):
            fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> Classifier:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"bad checkpoint magic {magic!r}")
        version, n_layers = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        sizes = struct.unpack(f"<{n_layers}I", fh.read(4 * n_layers))
        net = Classifier(sizes, seed=0)
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            W = np.frombuffer(fh.read(8 * fan_in * fan_out), dtype="<f8")
            net.weights[i] = W.reshape(fan_in, fan_out).copy()
            b = np.frombuffer(fh.read(8 * fan_out), dtype="<f8")
            net.biases[i] = b.copy()
        trailing = fh.read(1)
        if trailing:
            raise ParseError("checkpoint has trailing bytes")
    return net


@dataclass(frozen=True)
class CvSchedule:
    """T random disjoint half/half partitions of {0..n-1}, seeded."""

    n_objects: int
    T: int = 25
    seed: int = 0
    folds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_objects % 2 != 0:
            raise ValueError("dataset size must be even for half/half folds")
        if self.T < 1:
            raise ValueError("need at least one repetition")
        half = self.n_objects // 2
        folds = []
        for t in range(self.T):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(t,))
            ))
            perm = rng.permutation(self.n_objects)
            train = np.sort(perm[:half])
            test = np.sort(perm[half:])
            train.setflags(write=False)
            test.setflags(write=False)
            folds.append((train, test))
        object.__setattr__(self, "folds", tuple(folds))

    def schedule_hash(self) -> str:
        import hashlib
        h = hashlib.sha256()
        for train, test in self.folds:
            h.update(train.tobytes())
            h.update(test.tobytes())
        return h.hexdigest()[:12]


@dataclass(frozen=True)
class AccuracyReport:
    """Per-repetition accuracies with their mean, range and spread."""

    per_fold: np.ndarray
    mean: float = field(init=False)
    band_low: float = field(init=False)
    band_high: float = field(init=False)
    std: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.per_fold, dtype=float).ravel()
        if np.any(a < 0) or np.any(a > 1):
            raise ValueError("accuracies must lie in [0, 1]")
        a.setflags(write=False)
        object.__setattr__(self, "per_fold", a)
        for name, stat in (("mean", np.mean), ("band_low", np.min),
                           ("band_high", np.max), ("std", np.std)):
            object.__setattr__(self, name, float(stat(a)))


def evaluate_accuracy(classifier: Classifier, features: np.ndarray,
                      labels: np.ndarray) -> float:
    pred = classifier.predict(features)
    return float(np.mean(pred == np.asarray(labels, dtype=int).ravel()))
