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

A feature column that is zero in every training row gives its row of the
first weight matrix a zero gradient, so ADAM leaves that row at its initial
value (Kingma & Ba, Algorithm 1: m and v stay 0). Training therefore fits
only the columns some training row fills and keeps the other rows of the
first weight matrix as drawn; prediction uses the full matrix, because test
rows can fill any column. The narrower products are summed in a different
order by BLAS, so trained weights can differ in the last bits (up to about
1e-15 on raw rasters) from a fit over every column.

A network's parameters are one float64 vector in checkpoint order (W0, b0,
W1, b1, ...), and its weights and biases are views of it. The fit narrows
W0, the vector's head, to the kept columns; ADAM's moments, its two scratch
vectors and the gradients are vectors of the same layout, and the backward
pass writes each layer's gradient straight into its view. An ADAM step is
then 14 whole-vector passes where a per-array step makes 14 calls per array
(84 for the default two hidden layers), which pays at the benchmark's
18-row folds, where a fit is bound by per-call cost, and is level at 300 rows.
Every pass is elementwise and takes the same operands and scalars in the
same order as the per-array step, so every weight comes out bit-identical.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import RAW_BOX_SIDE
from .errors import (ParseError, ShapeError, TrainingDiverged, substream,
                     write_file)
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


@functools.lru_cache(maxsize=16)
def _tent_centers(box_side: float) -> tuple:
    """(birth, persistence) coordinates of the tent centers, birth-major,
    each as a (1, N_BIRTH * N_PERS) row."""
    b = (np.arange(N_BIRTH) + 0.5) * (box_side / N_BIRTH)
    p = (np.arange(N_PERS) + 0.5) * (box_side / N_PERS)
    centers = (np.repeat(b, N_PERS)[None, :], np.tile(p, N_BIRTH)[None, :])
    for c in centers:
        c.setflags(write=False)
    return centers


def perslay_vectorize(diagram: PersistenceDiagram,
                      box_side: float) -> np.ndarray:
    """Permutation-invariant feature vector, degree 0 then degree 1.

    Each tent evaluates max(0, BANDWIDTH - ||(b, d - b) - center||_inf) and
    is scaled by persistence^WEIGHT_EXPONENT, for all the diagram's points
    at once; each degree then keeps the TOP_K largest values per tent. A
    degree with fewer than TOP_K points is padded with zeros, and one with
    none maps to zeros.
    """
    n = N_BIRTH * N_PERS
    order, n0 = diagram.degree_order()
    birth = diagram.births[order]
    pers = diagram.deaths[order] - birth
    center_b, center_p = _tent_centers(box_side)
    # d_inf, then the tents, then the weighted tents, in one buffer
    out = np.abs(birth[:, None] - center_b)
    np.maximum(out, np.abs(pers[:, None] - center_p), out=out)
    np.subtract(BANDWIDTH, out, out=out)
    np.maximum(0.0, out, out=out)
    np.multiply((pers ** WEIGHT_EXPONENT)[:, None], out, out=out)
    top = np.zeros((2, TOP_K, n))
    for dim, rows in enumerate((out[:n0], out[n0:])):
        if len(rows) == 0:
            continue
        if len(rows) < TOP_K:
            rows = np.vstack([rows, np.zeros((TOP_K - len(rows), n))])
        # descending sort per tent, keep the k largest
        top[dim] = -np.sort(-rows, axis=0)[:TOP_K]
    return top.reshape(-1)


def rasterize_raw(points: np.ndarray, box_side=RAW_BOX_SIDE) -> np.ndarray:
    """Binary RASTER_BINS^2 occupancy raster of a point set, flattened
    x-bin major."""
    grid = QuantizerGrid(box_side=box_side, n_bins=RASTER_BINS)
    out = np.zeros(grid.n_cells)
    out[grid.quantize_points(points) - 1] = 1.0
    return out


def _param_count(sizes) -> int:
    """Length of the parameter vector of a network with these layer sizes."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(sizes, sizes[1:]))


def _views(params: np.ndarray, sizes) -> tuple:
    """(weights, biases): each layer's weight matrix and bias vector as
    views of `params`, laid out W0, b0, W1, b1, and so on."""
    if len(params) != _param_count(sizes):
        raise ShapeError(f"layer sizes {sizes} need {_param_count(sizes)} "
                         f"parameters, got {len(params)}")
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(params[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(params[at:at + fan_out])
        at += fan_out
    return weights, biases


class Classifier:
    """Fully connected ReLU network with a softmax head. Its parameters are
    the one vector `params`; `weights` and `biases` are views of it."""

    def __init__(self, layer_sizes, seed: int = 0):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        rng = substream(seed)
        self.params = np.zeros(_param_count(sizes))
        self.weights, self.biases = _views(self.params, sizes)
        for W in self.weights:
            limit = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
            W[...] = rng.uniform(-limit, limit, size=W.shape)
        self.loss_history = []

    @classmethod
    def from_parameters(cls, sizes, params: np.ndarray) -> "Classifier":
        """A network of these layer sizes over the parameter vector
        `params`, which it keeps as it is: nothing is drawn or copied."""
        net = cls.__new__(cls)
        net.params = params
        net.weights, net.biases = _views(params, sizes)
        net.loss_history = []
        return net

    @property
    def layer_sizes(self) -> tuple:
        """Input width, then each layer's output width."""
        return (self.weights[0].shape[0], *(W.shape[1] for W in self.weights))

    def forward(self, X: np.ndarray):
        """-> (probabilities, per-layer activations for backprop)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.weights[0]):
            raise ShapeError(f"expected {len(self.weights[0])} features, "
                             f"got {X.shape[1]}")
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


def _fill_gradients(classifier: Classifier, X: np.ndarray,
                    y_index: np.ndarray, grads_w, grads_b) -> float:
    """Mean cross-entropy; writes each layer's gradients into the arrays
    grads_w[i] and grads_b[i], shaped as the layer's weights and bias."""
    probs, acts = classifier.forward(X)
    n = len(X)
    eps = 1e-12
    loss = float(-np.mean(np.log(probs[np.arange(n), y_index] + eps)))
    delta = probs
    delta[np.arange(n), y_index] -= 1.0
    delta /= n
    for i in range(len(classifier.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = (delta @ classifier.weights[i].T) * (acts[i] > 0)
    return loss


def loss_and_gradients(classifier: Classifier, X: np.ndarray, y_index: np.ndarray):
    """Mean cross-entropy and gradients; exposed for finite-difference checks."""
    grads_w = [np.empty_like(W) for W in classifier.weights]
    grads_b = [np.empty_like(b) for b in classifier.biases]
    loss = _fill_gradients(classifier, X, y_index, grads_w, grads_b)
    return loss, grads_w, grads_b


def train_classifier(features: np.ndarray, labels: np.ndarray,
                     hidden_sizes, epochs: int, seed: int) -> Classifier:
    """Full-batch ADAM on categorical cross-entropy for a fixed budget.

    Columns that are zero in every training row keep their initial weights:
    the network is drawn at full width, fitted on the other columns, and
    their trained rows of the first weight matrix are scattered back.

    Each step updates the narrowed network's parameter vector in 14
    elementwise passes. An elementwise operation rounds each element on its
    own, so with the same operands in the same order the weights are
    bit-identical to a step taken array by array. The fitted rows of W0 and
    the rest of the fit's vector are then copied into the drawn network's
    vector, so the returned network owns its parameters.
    """
    X = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int).ravel()
    if X.ndim != 2 or len(X) != len(labels):
        raise ShapeError("features must be (N, d) aligned with labels")
    for c in range(1, N_CLASSES + 1):
        if c not in labels:
            raise ValueError(f"training fold has no example of class {c}")
    y_index = labels - 1

    net = Classifier((X.shape[1], *hidden_sizes, N_CLASSES), seed=seed)
    # drawn at full width, so the kept columns do not change the draw; the
    # fit then runs on a copy whose head, W0, keeps only the kept columns
    keep = np.flatnonzero(np.any(X != 0, axis=0))
    W0 = net.weights[0]
    X = X[:, keep]
    sizes = (len(keep), *net.layer_sizes[1:])
    params = np.concatenate([W0[keep].ravel(), net.params[W0.size:]])
    fit = Classifier.from_parameters(sizes, params)
    # the gradients as views of a second vector in the same layout
    grads = np.empty_like(params)
    gw, gb = _views(grads, sizes)
    # ADAM's moments and the two scratch vectors share that layout and are
    # updated in place, so the update allocates no arrays
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    mh = np.empty_like(params)
    vh = np.empty_like(params)
    for epoch in range(epochs):
        loss = _fill_gradients(fit, X, y_index, gw, gb)
        if not np.isfinite(loss):
            raise TrainingDiverged("loss is not finite", step=epoch)
        net.loss_history.append(loss)
        t = epoch + 1
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, with the hat
        # vectors as scratch; then p -= lr m_hat / (sqrt(v_hat) + eps)
        m *= BETA1
        m += np.multiply(grads, 1 - BETA1, out=mh)
        v *= BETA2
        v += np.multiply(np.square(grads, out=vh), 1 - BETA2, out=vh)
        np.divide(m, 1 - BETA1 ** t, out=mh)
        np.divide(v, 1 - BETA2 ** t, out=vh)
        mh *= LEARNING_RATE
        np.sqrt(vh, out=vh)
        vh += ADAM_EPS
        mh /= vh
        params -= mh
    # a saturated fit (g**2 overflows) leaves v infinite and every later
    # step zero at a finite loss; it has learned nothing
    if not np.all(np.isfinite(v)):
        raise TrainingDiverged("ADAM second moment is not finite",
                               step=epochs)
    W0[keep] = fit.weights[0]
    net.params[W0.size:] = params[fit.weights[0].size:]
    return net


def save_checkpoint(path, classifier: Classifier) -> None:
    """Versioned binary layout: magic, version, layer sizes, then the
    network's parameter vector as float64, written whole or not at all."""
    sizes = classifier.layer_sizes
    write_file(path, CHECKPOINT_MAGIC
               + struct.pack(f"<II{len(sizes)}I", CHECKPOINT_VERSION,
                             len(sizes), *sizes)
               + np.ascontiguousarray(classifier.params, dtype="<f8").tobytes())


def load_checkpoint(path) -> Classifier:
    """A classifier from a `save_checkpoint` file. The header's layer sizes
    are checked, each at least 1, and the file's length against them before
    any network is built; a short or malformed file is a ParseError naming
    the part that is short."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n_bytes, what):
            data = fh.read(n_bytes)
            if len(data) != n_bytes:
                raise ParseError(f"checkpoint is cut short in {what}: "
                                 f"{len(data)} of {n_bytes} bytes")
            return data

        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"bad checkpoint magic {magic!r}")
        version, n_layers = struct.unpack("<II", read(8, "the header"))
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        if n_layers < 2:
            raise ParseError(f"checkpoint declares {n_layers} layer sizes, "
                             "need at least 2")
        if 12 + 4 * n_layers > size:
            raise ParseError(f"checkpoint is cut short in the layer sizes: "
                             f"{n_layers} declared, {size} bytes in all")
        sizes = struct.unpack(f"<{n_layers}I",
                              read(4 * n_layers, "the layer sizes"))
        if min(sizes) < 1:
            raise ParseError(f"checkpoint layer sizes {sizes} include a "
                             "layer of width 0")
        need = 12 + 4 * n_layers + 8 * _param_count(sizes)
        if size < need:
            raise ParseError(f"checkpoint is cut short in the parameters: "
                             f"layer sizes {sizes} need {need} bytes, the "
                             f"file has {size}")
        if size > need:
            raise ParseError(f"checkpoint has {size - need} trailing bytes")
        # copied once out of the file's buffer, so the network owns it
        params = np.frombuffer(read(need - fh.tell(), "the parameters"),
                               dtype="<f8").astype(float)
    return Classifier.from_parameters(sizes, params)


@dataclass(frozen=True, eq=False)
class CvSchedule:
    """T random disjoint half/half partitions of {0..n-1}, seeded."""

    n_objects: int
    T: int
    seed: int
    folds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_objects % 2 != 0:
            raise ValueError("dataset size must be even for half/half folds")
        if self.T < 1:
            raise ValueError("need at least one repetition")
        half = self.n_objects // 2
        folds = []
        for t in range(self.T):
            perm = substream(self.seed, t).permutation(self.n_objects)
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


@dataclass(frozen=True, eq=False)
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
