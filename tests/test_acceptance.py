"""End-to-end acceptance checks for the full pipeline.

Each test prints one ``criterion NN: PASS/FAIL`` summary line (visible with
``pytest -s``) and asserts the same condition, so the module doubles as a
release checklist.  The two module fixtures are deliberately heavyweight:
`corpus` builds the 600-object synthetic dataset with its persistence
diagrams, `default_run` executes the stock trade-off sweep once and shares
the records across criteria.
"""

import dataclasses
import functools
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from brute import betti_bruteforce, betti_from_diagram, bottleneck_exhaustive
from pdsemcom.channel import BscChannel, transmit_bits
from pdsemcom.codec.bch import bch_decode, bch_encode, bch_generator, coded_rate
from pdsemcom.codec.huffman import build_huffman, huffman_decode, huffman_encode
from pdsemcom.dataset import synth_dataset
from pdsemcom.errors import DecodeFailure
from pdsemcom.harness import ExperimentConfig, folds_path_for, run_sweep
from pdsemcom.homology import bottleneck_distance, vr_diagram
from pdsemcom.inference import Classifier, CvSchedule, loss_and_gradients
from pdsemcom.infotheory import (EmpiricalDensity, cell_probabilities,
                                 estimate_density, mse_distortion,
                                 quantizer_entropy)
from pdsemcom.quantizer import (QuantizerGrid, quantize_diagram, quantize_set,
                                upper_triangle_cells)

BOX = 16.0
M_RANGE = range(10, 28)


def criterion(num, label):
    """Print a single PASS/FAIL line per criterion, then let pytest judge."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {num:02d} ({label}): FAIL [{exc}]")
                raise
            print(f"criterion {num:02d} ({label}): PASS [{detail}]")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def corpus():
    ds = synth_dataset(per_class=200, n_points=48, noise=0.2, seed=7)
    diagrams = [vr_diagram(obj.points, gamma_max=BOX) for obj in ds.objects]
    return ds, diagrams


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "results.csv"
    config = ExperimentConfig(out=str(out))
    records = run_sweep(config)
    return config, records


@criterion(1, "homology vs brute force")
def test_criterion_01_homology_matches_oracle():
    t0 = time.monotonic()
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    diag = vr_diagram(square, gamma_max=BOX)
    h0 = diag.points(0)[np.lexsort((diag.points(0)[:, 1],))]
    expect_h0 = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, BOX]])
    assert h0.shape == (4, 2) and np.allclose(h0, expect_h0, atol=1e-12)
    assert int(np.sum(diag.essential)) == 1
    h1 = diag.points(1)
    assert h1.shape == (1, 2)
    assert abs(h1[0, 0] - 1.0) <= 1e-12
    assert abs(h1[0, 1] - math.sqrt(2.0)) <= 1e-12

    rng = np.random.default_rng(2026)
    checks = 0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        pts = rng.uniform(0.0, 4.0, size=(n, 2))
        diag = vr_diagram(pts, gamma_max=BOX)
        diff = pts[:, None, :] - pts[None, :, :]
        dists = np.sqrt(np.sum(diff * diff, axis=2))
        vals = np.unique(dists[np.triu_indices(n, k=1)])
        mids = (vals[:-1] + vals[1:]) / 2.0 if len(vals) > 1 else np.empty(0)
        gammas = np.concatenate([[0.0], vals, mids, [vals[-1] + 1.0]])
        for gamma in gammas:
            assert betti_from_diagram(diag, gamma) == \
                betti_bruteforce(pts, gamma)
            checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return f"unit square exact, {checks} Betti checks, {elapsed:.1f}s"


@criterion(2, "bottleneck vs exhaustive")
def test_criterion_02_bottleneck_matches_exhaustive():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        na, nb = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        a = np.column_stack([rng.uniform(0, 8, na),
                             np.zeros(na)]) if na else np.empty((0, 2))
        b = np.column_stack([rng.uniform(0, 8, nb),
                             np.zeros(nb)]) if nb else np.empty((0, 2))
        if na:
            a[:, 1] = a[:, 0] + rng.uniform(0, 4, na)
        if nb:
            b[:, 1] = b[:, 0] + rng.uniform(0, 4, nb)
        got = bottleneck_distance(a, b)
        ref = bottleneck_exhaustive(a, b)
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 1e-9
        assert bottleneck_distance(b, a) == got
    return f"50 pairs, max deviation {worst:.2e}, symmetry exact"


@criterion(3, "quantizer error bounds")
def test_criterion_03_quantizer_error_bounds():
    rng = np.random.default_rng(77)
    pts = rng.uniform(0.0, BOX, size=(100000, 2))
    uniform = EmpiricalDensity(box_side=BOX, partition=28,
                               mass=np.full((28, 28), 1.0 / 784.0))
    worst_ratio = 0.0
    worst_mse = 0.0
    for m in M_RANGE:
        grid = QuantizerGrid(box_side=BOX, n_bins=m)
        half = grid.cell_width / 2.0
        q = quantize_set(grid, pts, "raw")
        err = np.max(np.abs(pts - grid.centers_of(q.indices)))
        assert err <= half + 1e-12, f"m={m}: sup error {err} > {half}"
        worst_ratio = max(worst_ratio, err / half)
        dev = abs(mse_distortion(uniform, grid) - grid.cell_width ** 2 / 6.0)
        assert dev <= 1e-6, f"m={m}: uniform mse deviation {dev}"
        worst_mse = max(worst_mse, dev)
    return (f"sup error <= width/2 (worst ratio {worst_ratio:.6f}), "
            f"uniform mse within {worst_mse:.1e} of width^2/6")


@criterion(4, "entropy and occupancy identities")
@pytest.mark.slow
def test_criterion_04_rate_identities(corpus):
    _, diagrams = corpus
    uniform = EmpiricalDensity(box_side=BOX, partition=28,
                               mass=np.full((28, 28), 1.0 / 784.0))
    worst_h = 0.0
    occupancy = {}
    for m in M_RANGE:
        grid = QuantizerGrid(box_side=BOX, n_bins=m)
        h = quantizer_entropy(cell_probabilities(uniform, grid))
        dev = abs(h - math.log2(m * m))
        assert dev <= 1e-9, f"m={m}: uniform entropy off by {dev}"
        worst_h = max(worst_h, dev)
        seen = set()
        for diag in diagrams:
            idx = quantize_diagram(grid, diag).indices
            x_bin = (idx - 1) // m
            y_bin = (idx - 1) % m
            assert np.all(x_bin <= y_bin), f"m={m}: cell below the diagonal"
            seen.update(idx.tolist())
        occupancy[m] = len(seen)
        assert len(seen) <= upper_triangle_cells(m)
    frac = max(occupancy[m] / upper_triangle_cells(m) for m in M_RANGE)
    return (f"uniform entropy == 2 log2 m within {worst_h:.1e}, diagram "
            f"cells stay upper-triangular (peak occupancy {frac:.0%} of M)")


@criterion(5, "semantic rate advantage")
@pytest.mark.slow
def test_criterion_05_semantic_rate_advantage(default_run):
    _, records = default_run
    base = [r for r in records
            if r.status == "ok" and r.alpha == 0.0 and r.code == "none"]
    rstar = {}
    for pipeline in ("pd", "raw"):
        good = [r.rate_selfinfo for r in base
                if r.pipeline == pipeline and r.acc_mean >= 0.80]
        assert good, f"no {pipeline} cell reaches 0.80 accuracy"
        rstar[pipeline] = min(good)
    assert rstar["pd"] < rstar["raw"] / 5.0, (
        f"diagram rate {rstar['pd']:.1f} not 5x below raw {rstar['raw']:.1f}")
    return (f"rate at 0.80 accuracy: diagrams {rstar['pd']:.1f} b/obj vs "
            f"raw {rstar['raw']:.1f} b/obj ({rstar['raw'] / rstar['pd']:.1f}x)")


@criterion(6, "Huffman optimality and losslessness")
@pytest.mark.slow
def test_criterion_06_huffman_bounds(corpus, default_run):
    _, records = default_run
    for r in records:
        if r.status != "ok":
            continue
        assert r.entropy_bits - 1e-9 <= r.avg_codeword_len < r.entropy_bits + 1.0, (
            f"{r.pipeline} m={r.m}: len {r.avg_codeword_len} vs "
            f"entropy {r.entropy_bits}")

    _, diagrams = corpus
    pooled = [d.points() for d in diagrams]
    schedule = CvSchedule(n_objects=len(diagrams), T=10, seed=1)
    combos = 0
    for m in M_RANGE:
        grid = QuantizerGrid(box_side=BOX, n_bins=m)
        for _, test in schedule.folds:
            density = estimate_density([pooled[i] for i in test], BOX)
            p = cell_probabilities(density, grid)
            h = quantizer_entropy(p)
            code = build_huffman(p)
            avg = code.expected_length(p[code.symbols - 1])
            assert h - 1e-9 <= avg < h + 1.0, f"m={m}: {avg} vs H={h}"
            combos += 1

    decoded = 0
    for m in (10, 27):
        grid = QuantizerGrid(box_side=BOX, n_bins=m)
        density = estimate_density(pooled, BOX)
        code = build_huffman(cell_probabilities(density, grid))
        for diag in diagrams:
            idx = quantize_diagram(grid, diag).indices
            back = huffman_decode(code, huffman_encode(code, idx))
            assert np.array_equal(back, idx)
            decoded += 1
    return (f"H <= len < H+1 on all records and {combos} fold/m densities; "
            f"{decoded} streams round-tripped losslessly")


@criterion(7, "block code correction")
@pytest.mark.slow
def test_criterion_07_bch_error_correction():
    t0 = time.monotonic()
    small = bch_generator(4, 3)
    assert (small.n, small.k, small.t) == (15, 5, 3)
    rng = np.random.default_rng(15)
    patterns = 0
    for _ in range(3):
        msg = rng.integers(0, 2, size=5).astype(np.uint8)
        word = bch_encode(small, msg)
        for w in range(4):
            for pos in itertools.combinations(range(15), w):
                received = word.copy()
                received[list(pos)] ^= 1
                out, ncorr = bch_decode(small, received)
                assert np.array_equal(out, msg), f"weight {w} at {pos}"
                assert ncorr == w
                patterns += 1

    assert bch_generator(10, 115).k == 208
    long_code = bch_generator(10, 170)
    assert long_code.k == 123

    channel = BscChannel(alpha=0.12, seed=5)
    msg = rng.integers(0, 2, size=long_code.k).astype(np.uint8)
    word = bch_encode(long_code, msg)
    blocks = 10000
    failures = 0
    for i in range(blocks):
        received = transmit_bits(channel, word, key=(i,))
        try:
            out, _ = bch_decode(long_code, received)
        except DecodeFailure:
            failures += 1
            continue
        if not np.array_equal(out, msg):
            failures += 1
    rate = failures / blocks
    elapsed = time.monotonic() - t0
    assert rate < 1e-3, f"block failure rate {rate}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    return (f"{patterns} exhaustive patterns corrected, k=208/123 as "
            f"designed, MC failure {rate:.1e} over {blocks} blocks, "
            f"{elapsed:.0f}s")


@criterion(8, "fractional block rate")
def test_criterion_08_fractional_block_rate():
    got = coded_rate(30.58, 1023, 208)
    assert abs(got - 150.41) < 0.01, f"coded rate {got}"
    return f"coded_rate(30.58, 1023, 208) = {got:.2f}"


@criterion(9, "channel statistics")
def test_criterion_09_channel_statistics():
    n = 1_000_000
    zeros = np.zeros(n, dtype=np.uint8)
    details = []
    for alpha in (0.10, 0.12):
        channel = BscChannel(alpha=alpha, seed=123)
        flips = int(transmit_bits(channel, zeros).sum())
        sigma = math.sqrt(alpha * (1 - alpha) * n)
        dev = abs(flips - alpha * n)
        assert dev <= 3 * sigma, (
            f"alpha={alpha}: {flips} flips deviates {dev / sigma:.1f} sigma")
        details.append(f"alpha={alpha}: {dev / sigma:.2f} sigma")
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    assert np.array_equal(transmit_bits(BscChannel(alpha=0.0), bits), bits)
    return ", ".join(details) + "; alpha=0 is the identity"


@criterion(10, "classifier quality and robustness")
@pytest.mark.slow
def test_criterion_10_classifier_quality(default_run):
    _, records = default_run
    base = [r for r in records
            if r.status == "ok" and r.alpha == 0.0 and r.code == "none"]
    pd_acc = {r.m: r.acc_mean for r in base if r.pipeline == "pd"}
    assert pd_acc[10] >= 0.80, f"accuracy at m=10 is {pd_acc[10]}"
    spread = max(pd_acc.values()) - min(pd_acc.values())
    assert spread < 0.05, f"accuracy spread {spread} across m"
    raw = sorted((r for r in base if r.pipeline == "raw"),
                 key=lambda r: r.rate_selfinfo)
    slope = np.polyfit([r.rate_selfinfo for r in raw],
                       [r.acc_mean for r in raw], 1)[0]
    assert slope >= 0.0, f"raw accuracy decreases with rate ({slope:.2e})"

    rng = np.random.default_rng(31)
    net = Classifier((6, 9, 3), seed=5)
    X = rng.normal(0.0, 1.0, size=(12, 6))
    y_index = rng.integers(0, 3, size=12)
    loss, gw, _ = loss_and_gradients(net, X, y_index)
    assert np.isfinite(loss)
    h = 1e-6
    worst = 0.0
    for layer in range(len(net.weights)):
        w = net.weights[layer]
        flat = rng.choice(w.size, size=min(12, w.size), replace=False)
        for f in flat:
            i, j = np.unravel_index(f, w.shape)
            w[i, j] += h
            up, _, _ = loss_and_gradients(net, X, y_index)
            w[i, j] -= 2 * h
            down, _, _ = loss_and_gradients(net, X, y_index)
            w[i, j] += h
            fd = (up - down) / (2 * h)
            an = gw[layer][i, j]
            rel = abs(fd - an) / max(1e-8, abs(fd), abs(an))
            worst = max(worst, rel)
    assert worst < 1e-4, f"gradient mismatch {worst:.2e}"
    return (f"diagram acc@m=10 {pd_acc[10]:.3f}, spread {spread:.4f}, raw "
            f"slope {slope:+.1e}, gradient check {worst:.1e}")


@criterion(11, "coded transmission robustness")
@pytest.mark.slow
def test_criterion_11_coded_transmission(tmp_path_factory):
    t0 = time.monotonic()
    out = tmp_path_factory.mktemp("coded") / "results.csv"
    config = ExperimentConfig(pipelines=("pd",), m_values=(10,),
                              alphas=(0.0, 0.12), codes=((1023, 123, 170),),
                              out=str(out))
    records = run_sweep(config)
    by_key = {(r.alpha, r.code): r for r in records if r.status == "ok"}
    base = by_key[(0.0, "none")]
    coded = by_key[(0.12, "1023:123:170")]
    noisy = by_key[(0.12, "none")]
    delta = abs(coded.acc_mean - base.acc_mean)
    degrade = base.acc_mean - noisy.acc_mean
    elapsed = time.monotonic() - t0
    assert delta <= 0.02, f"coded accuracy off by {delta:.3f}"
    assert degrade >= 0.10, f"uncoded only degrades by {degrade:.3f}"
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    return (f"clean {base.acc_mean:.3f}, coded@0.12 {coded.acc_mean:.3f} "
            f"(delta {delta:.4f}, {coded.decode_failures} decode failures), "
            f"uncoded@0.12 {noisy.acc_mean:.3f} (-{degrade:.3f}), "
            f"{elapsed:.0f}s")


@criterion(12, "end-to-end reproducibility")
@pytest.mark.slow
def test_criterion_12_reproducibility(default_run, tmp_path_factory):
    config, _ = default_run
    out2 = tmp_path_factory.mktemp("repro") / "results.csv"
    run_sweep(dataclasses.replace(config, out=str(out2)))
    first = Path(config.out).read_bytes()
    second = Path(out2).read_bytes()
    assert first == second, "results files differ between identical runs"
    folds1 = Path(folds_path_for(config.out)).read_bytes()
    folds2 = Path(folds_path_for(str(out2))).read_bytes()
    assert folds1 == folds2, "fold files differ between identical runs"
    return (f"two sweeps byte-identical ({len(first)} result bytes, "
            f"{len(folds1)} fold bytes)")
