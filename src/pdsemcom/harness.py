"""Sweep orchestration: quantize, code, corrupt, classify, tabulate.

One sweep runs the full factorial over (pipeline, m, alpha, code) cells,
appends one results row per cell to a CSV keyed by a config hash, and can
resume after a kill by skipping keys already present. Curve emission turns
the rows into the distortion/rate/accuracy trade-off charts as CSV + SVG.
"""

import csv
import math
import os
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import product
from operator import attrgetter
from pathlib import Path

import numpy as np

from .channel import BscChannel, transmit, transmit_bits
from .codec import (as_bits, bch_encode, bch_generator, build_huffman,
                    decode_or_passthrough, huffman_decode, huffman_encode,
                    pack_objects)
from .config import SOURCE_KINDS, ExperimentConfig, code_label, number_text
from .dataset import load_pointcloud_file, synth_dataset
from .errors import (ParseError, PipelineError, ShapeError, finite,
                     read_table, write_file, write_table)
from .homology import read_pd_rows, vr_diagram
from .infotheory import (bottleneck_style_distortion, cell_probabilities,
                         estimate_density, mse_distortion, quantizer_entropy,
                         semantic_rate)
from .inference import (AccuracyReport, CvSchedule, evaluate_accuracy,
                        perslay_vectorize, rasterize_raw, train_classifier)
from .quantizer import QuantizerGrid, quantize_diagram, quantize_set

CURVE_KINDS = ("dr", "ad", "ar", "ar-coded")


def _text(x) -> str:
    """A record value as file text: strings as they are."""
    return x if isinstance(x, str) else number_text(x)


@dataclass(frozen=True)
class TradeoffRecord:
    """One sweep cell: rates, distortions, accuracy, channel bookkeeping.
    The fields, in order, are the columns of the results file."""

    pipeline: str
    m: int
    alpha: float
    code: str
    status: str
    schedule: str
    seed: int
    entropy_bits: float
    mean_symbols: float
    rate_cells: float
    rate_selfinfo: float
    huffman_bits: float
    wire_bits: float
    avg_codeword_len: float
    mse: float
    bottleneck: float
    acc_mean: float
    band_low: float
    band_high: float
    acc_std: float
    symbol_error_rate: float
    decode_failures: int
    error: str = ""

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "ok":
            numeric = [getattr(self, f.name) for f in fields(self)
                       if f.type is float and f.name != "alpha"]
            if not all(math.isfinite(x) for x in numeric):
                raise ValueError("ok records must have finite numeric fields")
            if not 0.0 <= self.acc_mean <= 1.0:
                raise ValueError(f"accuracy {self.acc_mean} outside [0, 1]")

    @property
    def key(self) -> tuple:
        return (self.pipeline, self.m, number_text(self.alpha), self.code)

    def to_row(self) -> list:
        return [_text(getattr(self, name)) for name in COLUMNS]


COLUMNS = tuple(f.name for f in fields(TradeoffRecord))
_COLUMN_TYPES = tuple(f.type for f in fields(TradeoffRecord))
FOLDS_HEAD = "pipeline,m,alpha,code,t,accuracy\n"


def read_results(path):
    """-> (config hash, records). Inverse of the sweep's CSV writer: the
    column line must be COLUMNS, and a row with missing, extra or unparsable
    fields raises ParseError."""
    with open(path, newline="") as f:
        first = f.readline().strip()
        if not first.startswith("# config_hash="):
            raise ParseError("results file lacks the config hash header",
                             line_number=1)
        records = []
        for lineno, values in read_table(f, COLUMNS, _COLUMN_TYPES,
                                         first_line=2):
            try:
                records.append(TradeoffRecord(*values))
            except ValueError as exc:
                raise ParseError(f"bad results row: {exc}", lineno) from exc
    return first.split("=", 1)[1], records


def _read_lines(path) -> tuple:
    """(content, its newline-ended lines) of a file, empty if there is none;
    a last line cut short is not among the lines."""
    data = Path(path).read_bytes() if os.path.exists(path) else b""
    return data, [line + b"\n" for line in data.split(b"\n")[:-1]]


def _finished_cells(config, head: bytes, folds_path) -> list:
    """Cut the results and folds files to their longest run of finished
    cells; -> its records.

    A sweep appends each cell's results row and then, if the cell is ok,
    its T fold rows, so a kill can leave a file cut inside a line, or a
    cell's fold rows short. A cell is finished when its results row is
    whole and, if it is ok, all T of its fold rows are: the i-th ok cell
    owns fold rows T*i+1 ... T*(i+1). A results file cut inside its head
    (hash and column lines) holds no cell; any other must carry this
    configuration's hash. A file that does not exist is not created.
    """
    data, lines = _read_lines(config.out)
    records = []
    if not head.startswith(data):
        if b"".join(lines[:2]) == head:
            with open(config.out, "rb+") as f:
                f.truncate(sum(map(len, lines)))
        file_hash, records = read_results(config.out)
        if file_hash != config.config_hash():
            raise ValueError(
                f"results file {config.out!r} was produced by a different "
                f"configuration (hash {file_hash})")
    _, folds = _read_lines(folds_path)
    fold_rows = len(folds) - 1 if folds[:1] == [FOLDS_HEAD.encode()] else 0
    kept = ok = 0
    for record in records:
        if record.status == "ok":
            if config.T * (ok + 1) > fold_rows:
                break
            ok += 1
        kept += 1
    for path, keep in ((config.out, lines[:2 + kept] if kept else []),
                       (folds_path, folds[:1 + config.T * ok] if ok else [])):
        if os.path.exists(path):
            with open(path, "rb+") as f:
                f.truncate(sum(map(len, keep)))
    return records[:kept]


def _normalize_latents(point_sets, box_side: float):
    """Uniform scale + translation of every set into [0, box]^2."""
    allpts = np.vstack(point_sets)
    lo = allpts.min(axis=0)
    span = float(np.max(allpts.max(axis=0) - lo))
    if span <= 0:
        raise ValueError("latent points are all identical; cannot normalize")
    s = box_side / span
    return [(pts - lo) * s for pts in point_sets]


class _SweepContext:
    """Stage 1: the shared immutable state every cell reads."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        if config.dataset == "synth":
            self.objects = synth_dataset(per_class=config.per_class,
                                         n_points=config.n_points,
                                         noise=config.noise,
                                         seed=config.dataset_seed)
        else:
            self.objects = load_pointcloud_file(config.dataset)
        self.labels = np.array([o.label for o in self.objects], dtype=int)
        self.object_ids = np.array([o.id for o in self.objects])
        self.schedule = CvSchedule(n_objects=len(self.objects), T=config.T,
                                   seed=config.cv_seed)
        # every index that ever lands in a test fold, plus its multiplicity,
        # and its positions in unique_test (row t: fold t's test set)
        self.test_multiset = np.concatenate(
            [test for _, test in self.schedule.folds])
        self.unique_test, test_pos = np.unique(self.test_multiset,
                                               return_inverse=True)
        self.test_pos = test_pos.reshape(config.T, -1)


# Stage 2: one pipeline's clean sources (the diagrams for pd, the points
# otherwise), points, density and T fold classifiers
_PipelineState = namedtuple("_PipelineState",
                            "sources points density classifiers")


def _latent_points(ctx):
    """Each object's latent set from a file in the diagram layout: its dim-0
    rows, then its dim-1 rows, each in file order, with coordinates of any
    finite sign."""
    rows = read_pd_rows(ctx.config.latent_file, finite)
    missing = [i for i in ctx.object_ids if i not in rows]
    if missing:
        raise ValueError(f"latent file lacks object {missing[0]} (and "
                         f"{len(missing) - 1} more)")
    raw = [rows[oid][np.argsort(rows[oid][:, 0], kind="stable"), 1:]
           for oid in ctx.object_ids]
    counts = {len(p) for p in raw}
    if len(counts) != 1:
        raise ValueError(
            f"latent sets must share one point count, got {sorted(counts)}")
    return _normalize_latents(raw, ctx.config.box_latent)


def _vectorize(cfg, pipeline: str, source, width: int) -> np.ndarray:
    """Features of a clean or received source: a diagram's tents, a raw
    set's raster, or a latent set cut or zero-padded to `width` points."""
    if pipeline == "pd":
        return perslay_vectorize(source, cfg.box_pd)
    if pipeline == "raw":
        return rasterize_raw(source, box_side=cfg.box_raw)
    padded = np.zeros((width, 2))
    padded[:min(width, len(source))] = source[:width]
    return padded.ravel()


def _build_pipeline(ctx, pipeline: str) -> _PipelineState:
    cfg = ctx.config
    if pipeline == "pd":
        sources = []
        for obj in ctx.objects:
            d = vr_diagram(obj.points, gamma_max=cfg.gamma_max)
            sources.append(d.drop_essential() if cfg.drop_essential else d)
        points = [d.points() for d in sources]
    else:
        points = sources = (_latent_points(ctx) if pipeline == "latent"
                            else [o.points for o in ctx.objects])
    features = np.array([_vectorize(cfg, pipeline, s, len(p))
                         for s, p in zip(sources, points)])
    density = estimate_density([points[i] for i in ctx.test_multiset],
                               box_side=cfg.box_for(pipeline),
                               partition=cfg.partition)
    classifiers = []
    for t, (train, _) in enumerate(ctx.schedule.folds):
        fold_seed = int(np.random.SeedSequence(
            entropy=cfg.train_seed,
            spawn_key=(SOURCE_KINDS.index(pipeline), t),
        ).generate_state(1)[0])
        classifiers.append(train_classifier(
            features[train], ctx.labels[train], hidden_sizes=cfg.hidden,
            epochs=cfg.epochs, seed=fold_seed))
    return _PipelineState(sources=sources, points=points, density=density,
                          classifiers=classifiers)


# The BCH payload coder of the sweep and of `pdsemcom code bch`. It lives
# here, not in codec, because sweepbench/spans.py wraps bch_generator,
# bch_encode and decode_or_passthrough where this module looks them up.
def build_bch(spec: tuple):
    """Stage 3: the designed-distance code for an (n, k, t) spec; a
    ValueError unless it has that n and k."""
    n, k, t = spec
    code = bch_generator((n + 1).bit_length() - 1, t)
    if (code.n, code.k) != (n, k):
        raise ValueError(
            f"designed-distance construction at t={t} yields "
            f"n={code.n}, k={code.k}, not n={n}, k={k}")
    return code


def encode_payload(code, bits) -> np.ndarray:
    """`bits` zero-padded to whole k-bit blocks, the n-bit codewords of the
    blocks concatenated."""
    bits = as_bits(bits, "payload")
    padded = np.zeros(-(-len(bits) // code.k) * code.k, dtype=np.uint8)
    padded[:len(bits)] = bits
    return np.array([bch_encode(code, block)
                     for block in padded.reshape(-1, code.k)],
                    dtype=np.uint8).ravel()


def decode_payload(code, words):
    """-> (message bits of whole n-bit `words`, failed block count); a block
    the decoder cannot correct passes its systematic bits through."""
    words = np.asarray(words).ravel()
    if len(words) % code.n:
        raise ShapeError(f"received length {len(words)} is not a multiple "
                         f"of {code.n}")
    messages, failures = [], 0
    for word in words.reshape(-1, code.n):
        message, _, failed = decode_or_passthrough(code, word)
        messages.append(message)
        failures += failed
    return np.array(messages, dtype=np.uint8).ravel(), failures


def symbol_error_rate(sent, decoded) -> float:
    """Share of the `sent` symbols that `decoded` gets wrong or leaves out;
    `decoded` holds at most len(sent) symbols, as decoding stops there."""
    n = len(decoded)
    wrong = np.count_nonzero(sent[:n] != decoded) + len(sent) - n
    return wrong / max(1, len(sent))


def _test_mean(ctx, per_object) -> float:
    """Mean over every test fold's objects of per-object values given in
    unique_test order."""
    return float(np.mean(np.asarray(per_object)[ctx.test_pos]))


# Stage 4: what every cell of one (pipeline, m) group shares, per object in
# unique_test order; `shared` holds the fields no channel or classifier sets
_CellPrep = namedtuple("_CellPrep", "grid streams bitstream huffman shared")


def _build_prep(ctx, state: _PipelineState, pipeline: str, m: int):
    cfg = ctx.config
    grid = QuantizerGrid(box_side=cfg.box_for(pipeline), n_bins=m)
    probs = cell_probabilities(state.density, grid)
    huffman = build_huffman(probs)
    quantize = quantize_diagram if pipeline == "pd" else quantize_set
    streams = [quantize(grid, state.sources[i],
                        collapse_duplicates=cfg.collapse_duplicates)
               for i in ctx.unique_test]
    # framed once for every cell of the group, so a payload or symbol count
    # too large for its frame field fails the whole group here
    bitstream = pack_objects(
        (int(ctx.object_ids[i]), huffman_encode(huffman, q.indices),
         q.channel_counts) for i, q in zip(ctx.unique_test, streams))
    mean_symbols = _test_mean(ctx, [len(q) for q in streams])
    rate = semantic_rate(quantizer_entropy(probs), pipeline, m, mean_symbols)
    shared = dict(
        entropy_bits=rate.entropy_bits_per_symbol,
        mean_symbols=rate.mean_symbols_per_object,
        rate_cells=rate.rate_bits_per_object,
        rate_selfinfo=rate.self_information_bits_per_object,
        huffman_bits=_test_mean(ctx, [f.n_bits for f in bitstream.frames]),
        avg_codeword_len=huffman.expected_length(probs),
        mse=mse_distortion(state.density, grid),
        bottleneck=bottleneck_style_distortion(
            [state.points[i] for i in ctx.test_multiset], grid))
    return _CellPrep(grid=grid, streams=streams, bitstream=bitstream,
                     huffman=huffman, shared=shared)


def _send_uncoded(prep, channel):
    """-> (payloads, wire bits, failures); lists in unique_test order."""
    sent = transmit(channel, prep.bitstream)
    wire = [frame.n_bits + frame.overhead_bits for frame in sent.frames]
    return [payload for _, payload in sent.payloads()], wire, 0


def _send_coded(prep, channel, code):
    """_send_uncoded with each payload BCH-coded, padded to whole blocks."""
    received, wire = [], []
    failures = 0
    for frame, payload in prep.bitstream.payloads():
        wire.append(frame.overhead_bits)
        if len(payload):
            words = encode_payload(code, payload)
            noisy = transmit_bits(channel, words, key=(frame.object_id,))
            message, failed = decode_payload(code, noisy)
            payload = message[:len(payload)]
            wire[-1] += len(words)
            failures += failed
        received.append(payload)
    return received, wire, failures


def _features(cfg, prep, pipeline, stream, symbols, width):
    """Received features of one object whose `stream` decoded to `symbols`."""
    if pipeline == "pd":
        c0 = min(stream.channel_counts[0], len(symbols))
        # imported at call time: sweepbench/spans.py wraps it in quantizer
        from .quantizer import diagram_from_symbols
        source = diagram_from_symbols(prep.grid, symbols,
                                      (c0, len(symbols) - c0))
    else:
        source = prep.grid.centers_of(symbols)
    return _vectorize(cfg, pipeline, source, width)


def _run_cell(ctx, state, prep, pipeline, m, alpha, label, code):
    channel = BscChannel(alpha=alpha, seed=ctx.config.channel_seed)
    if code is None:
        received, wire, failures = _send_uncoded(prep, channel)
    else:
        received, wire, failures = _send_coded(prep, channel, code)
    # the receiver, the same for coded and uncoded cells; decoding every
    # object before the numpy work runs faster than interleaving the two
    decoded = [huffman_decode(prep.huffman, bits, max_symbols=len(q))
               for bits, q in zip(received, prep.streams)]
    feats, symbol_errors = [], []
    for i, q, symbols in zip(ctx.unique_test, prep.streams, decoded):
        symbol_errors.append(symbol_error_rate(q.indices, symbols))
        feats.append(_features(ctx.config, prep, pipeline, q, symbols,
                               len(state.points[i])))
    feats = np.array(feats)
    fold_accs = [evaluate_accuracy(net, feats[pos], ctx.labels[test])
                 for net, pos, (_, test) in zip(
                     state.classifiers, ctx.test_pos, ctx.schedule.folds)]
    report = AccuracyReport(fold_accs)
    record = TradeoffRecord(
        pipeline=pipeline, m=m, alpha=alpha, code=label, status="ok",
        schedule=ctx.schedule.schedule_hash(), seed=ctx.config.channel_seed,
        wire_bits=_test_mean(ctx, wire),
        acc_mean=report.mean, band_low=report.band_low,
        band_high=report.band_high, acc_std=report.std,
        symbol_error_rate=_test_mean(ctx, symbol_errors),
        decode_failures=failures, **prep.shared)
    return record, report


def _error_record(ctx, pipeline, m, alpha, label, exc) -> TradeoffRecord:
    nan = {f.name: float("nan") for f in fields(TradeoffRecord)
           if f.type is float}
    return TradeoffRecord(**{
        **nan, "pipeline": pipeline, "m": m, "alpha": alpha, "code": label,
        "status": "error", "schedule": ctx.schedule.schedule_hash(),
        "seed": ctx.config.channel_seed, "decode_failures": 0,
        "error": f"{type(exc).__name__}: {exc}"})


def _attempt(build, *args):
    """Run one stage; a PipelineError or ValueError is returned instead of
    raised, and every cell that needs the stage records it."""
    try:
        return build(*args)
    except (PipelineError, ValueError) as exc:
        return exc


def folds_path_for(out_path: str) -> str:
    stem, ext = os.path.splitext(out_path)
    return stem + "_folds" + (ext or ".csv")


def run_sweep(config: ExperimentConfig, progress: bool = False):
    """Full factorial over (pipeline, m, alpha, code); resumable by key.

    Returns the complete record list, previously finished cells included.
    The results file gets one row per cell under a config-hash header; a
    sibling *_folds.csv holds per-repetition accuracies. Before it appends,
    a resume cuts both files to their longest run of finished cells, so a
    kill at any byte of either file costs at most the cells it cut.

    Each stage is built only for the cells still to run. The dataset and
    fold schedule are loaded only if some cell is, so a finished sweep
    reads just its two files. Each pipeline builds its diagrams or points,
    density and T fold classifiers when the sweep reaches its first pending
    cell, so the earlier pipelines' rows are on disk before a later
    pipeline trains, and a kill while it trains costs only its own cells
    and those after it.
    """
    # (key, pipeline, m, alpha, code spec) in row order
    cells = [((p, m, number_text(a), code_label(c)), p, m, a, c)
             for p, m, a, c in product(config.pipelines, config.m_values,
                                       config.alphas, (None,) + config.codes)]

    head = "# config_hash=%s\n%s\n" % (config.config_hash(),
                                        ",".join(COLUMNS))
    folds_path = folds_path_for(config.out)
    existing = _finished_cells(config, head.encode(), folds_path)
    done = {r.key for r in existing}
    pending_specs = {c[4] for c in cells if c[0] not in done}

    # stage 1, before either file is created, so a sweep whose dataset
    # fails to load leaves no file behind
    ctx = _SweepContext(config) if pending_specs else None
    # stage 3, each code built once, only for the cells still to run; built
    # here, not at first use, so no code build falls between two cells
    codes = {s: _attempt(build_bch, s) for s in config.codes
             if s in pending_specs}

    records = list(existing)
    failed = []
    built, state = None, None
    group, prep = None, None
    with (open(config.out, "a", newline="") as out_f,
          open(folds_path, "a", newline="") as folds_f):
        if out_f.tell() == 0:
            out_f.write(head)
            out_f.flush()
        if folds_f.tell() == 0:
            folds_f.write(FOLDS_HEAD)
            folds_f.flush()
        out_w = csv.writer(out_f, lineterminator="\n")
        folds_w = csv.writer(folds_f, lineterminator="\n")
        for idx, (key, pipeline, m, alpha, spec) in enumerate(cells):
            if key in done:
                if progress:
                    print(f"[{idx + 1}/{len(cells)}] {key} already done")
                continue
            if built != pipeline:
                # stage 2: the cells come pipeline by pipeline, so each
                # pipeline is built once, at its first pending cell, after
                # the last one's state and prep are dropped; the rows of
                # the pipelines before it are on disk before it trains
                state = prep = None
                built, state = pipeline, _attempt(_build_pipeline, ctx,
                                                  pipeline)
            if group != (pipeline, m):
                # stage 4: drop the finished group's prep, build this one's
                group, prep = (pipeline, m), None
                if not isinstance(state, Exception):
                    prep = _attempt(_build_prep, ctx, state, pipeline, m)
            code = codes.get(spec)
            failure = next((s for s in (state, prep, code)
                            if isinstance(s, Exception)), None)
            if failure is None:
                try:
                    record, report = _run_cell(ctx, state, prep, pipeline, m,
                                               alpha, key[3], code)
                except (PipelineError, ValueError) as exc:
                    failure = exc
            if failure is not None:
                record, report = _error_record(ctx, pipeline, m, alpha,
                                               key[3], failure), None
            records.append(record)
            out_w.writerow(record.to_row())
            out_f.flush()
            if report is not None:
                folds_w.writerows([*key, t, number_text(acc)]
                                  for t, acc in enumerate(report.per_fold))
                folds_f.flush()
            if record.status == "error":
                failed.append((key, record.error))
            if progress:
                tail = (f"acc={record.acc_mean:.4f}"
                        if record.status == "ok" else record.error)
                print(f"[{idx + 1}/{len(cells)}] {key} {tail}")
    if progress and failed:
        print(f"{len(failed)} cell(s) failed:")
        for key, err in failed:
            print(f"  {key}: {err}")
    return records


# ---------------------------------------------------------------------------
# curve emission

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(series, x_label, y_label, title, vlines=(), log_x=False):
    """Hand-rolled line chart. series: [(name, xs, ys, band)] with band a
    (lo, hi) pair of arrays or None; vlines: [(label, x)]."""
    width, height = 640, 440
    ml, mr, mt, mb = 64, 16, 28, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = np.concatenate([np.asarray(xs, dtype=float)
                             for _, xs, _, _ in series]
                            + [[x for _, x in vlines]])
    ys_all = np.concatenate(
        [np.asarray(ys, dtype=float) for _, _, ys, _ in series]
        + [np.asarray(b, dtype=float) for *_, band in series if band
           for b in band])
    # a log axis needs every x value and reference line positive
    log_x = log_x and bool(np.all(xs_all > 0))
    if log_x:
        xs_all = np.log10(xs_all)
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def px(x):
        v = math.log10(x) if log_x else x
        return ml + pw * (v - x_lo) / (x_hi - x_lo)

    def py(y):
        return mt + ph * (1 - (y - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']
    # axes box
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333"/>')
    if log_x:
        ticks = [m * 10.0 ** e
                 for e in range(int(math.floor(x_lo)) - 1,
                                int(math.ceil(x_hi)) + 1)
                 for m in (1, 2, 5)
                 if x_lo <= math.log10(m * 10.0 ** e) <= x_hi]
        if not ticks:
            ticks = [10.0 ** x_lo, 10.0 ** x_hi]
    else:
        ticks = np.linspace(x_lo, x_hi, 5).tolist()
    for tx in ticks:
        x = px(tx)
        out.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                   f'y2="{mt + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + ph + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{"%.3g" % tx}</text>')
    for ty in np.linspace(y_lo, y_hi, 5):
        y = py(ty)
        out.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{"%.3g" % ty}</text>')
    out.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{x_label}</text>')
    out.append(f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{y_label}</text>')
    for v_idx, (name, x) in enumerate(vlines):
        xp = px(x)
        out.append(f'<line x1="{xp:.1f}" y1="{mt}" x2="{xp:.1f}" '
                   f'y2="{mt + ph}" stroke="#666" stroke-dasharray="4 3"/>')
        out.append(f'<text x="{xp + 3:.1f}" y="{mt + 12 + 12 * v_idx}" '
                   f'font-family="sans-serif" font-size="10" '
                   f'fill="#666">{name}</text>')
    for s_idx, (name, xs, ys, band) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        if band:
            lo, hi = band
            ring = ([(px(x), py(v)) for x, v in zip(xs, hi)] +
                    [(px(x), py(v)) for x, v in zip(xs[::-1], lo[::-1])])
            pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in ring)
            out.append(f'<polygon points="{pts}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.4" '
                       f'fill="{color}"/>')
        ly = mt + 14 + 14 * s_idx
        lx = ml + pw - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 27}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# One chart kind. `columns`, `sort`, `x`, `y` and `group` name record fields;
# each pipeline's cells split into one series per `group` value, sorted by
# `sort` (stable in record order). `labels` are the x axis, y axis and title;
# `noisy` plots the cells off the perfect uncoded channel instead of those on
# it; `band` shades band_low..band_high.
_Curve = namedtuple("_Curve", "columns sort x y labels noisy band log_x "
                    "group name", defaults=(False, True, True, (),
                                            "{pipeline}"))

_RATE, _MSE, _ACC = "rate (bits/object)", "mean squared distortion", "accuracy"
_BAND = ("acc_mean", "band_low", "band_high")

_CURVES = {
    "dr": _Curve(("pipeline", "m", "rate_selfinfo", "rate_cells", "mse",
                  "bottleneck"), sort=("m",), x="rate_selfinfo", y="mse",
                 labels=(_RATE, _MSE, "distortion vs rate"), band=False),
    "ad": _Curve(("pipeline", "m", "mse") + _BAND + ("acc_std",),
                 sort=("mse", "m"), x="mse", y="acc_mean",
                 labels=(_MSE, _ACC, "accuracy vs distortion"), log_x=False),
    "ar": _Curve(("pipeline", "m", "rate_selfinfo") + _BAND + ("acc_std",),
                 sort=("rate_selfinfo", "m"), x="rate_selfinfo", y="acc_mean",
                 labels=(_RATE, _ACC, "accuracy vs rate")),
    "ar-coded": _Curve(("pipeline", "code", "alpha", "m", "wire_bits") + _BAND,
                       sort=("wire_bits",), x="wire_bits", y="acc_mean",
                       labels=("transmitted bits/object", _ACC,
                               "accuracy vs coded rate"),
                       noisy=True, band=False, group=("code", "alpha"),
                       name="{pipeline} {code} a={alpha}"),
}


def _is_clean(r) -> bool:
    return r.alpha == 0.0 and r.code == code_label(None)


def emit_curves(records, kind: str, out_dir) -> tuple:
    """Write <kind>.csv and <kind>.svg under out_dir; returns both paths.

    dr: distortion vs rate; ad: accuracy vs distortion; ar: accuracy vs
    rate (all at the perfect-channel uncoded cells); ar-coded: accuracy vs
    transmitted wire bits for noisy or coded cells, with dotted vertical
    reference lines at each pipeline's perfect-channel rate.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    spec = _CURVES[kind]
    records = [r for r in records if r.status == "ok"]
    if not records:
        raise ValueError("no successful records to plot")
    pipelines = [p for p in SOURCE_KINDS
                 if any(r.pipeline == p for r in records)]

    # rows and series are built before either file is opened, so a call
    # that raises writes nothing
    table, series, vlines = [], [], []
    for p in pipelines:
        clean = [r for r in records if r.pipeline == p and _is_clean(r)]
        if spec.noisy and clean:
            ref = min(clean, key=lambda r: r.m)
            vlines.append((f"{p} rate", ref.rate_selfinfo))
        groups = {}
        for r in records:
            if r.pipeline == p and _is_clean(r) != spec.noisy:
                key = tuple(getattr(r, g) for g in spec.group)
                groups.setdefault(key, []).append(r)
        if not groups:
            which = "coded or noisy" if spec.noisy else "perfect-channel"
            print(f"warning: no {which} rows for {p!r}, curve omitted")
            continue
        for key, rows in sorted(groups.items()):
            rows.sort(key=attrgetter(*spec.sort))
            table.extend([_text(getattr(r, c)) for c in spec.columns]
                         for r in rows)
            name = spec.name.format(pipeline=p, **{
                g: _text(v) for g, v in zip(spec.group, key)})
            band = ([r.band_low for r in rows],
                    [r.band_high for r in rows]) if spec.band else None
            series.append((name, [getattr(r, spec.x) for r in rows],
                           [getattr(r, spec.y) for r in rows], band))
    if not series:
        raise ValueError("no records matched the requested curve kind")
    chart = _svg_chart(series, *spec.labels, vlines=vlines, log_x=spec.log_x)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{kind}.csv")
    svg_path = os.path.join(out_dir, f"{kind}.svg")
    write_table(csv_path, spec.columns, table)
    write_file(svg_path, chart.encode())
    return csv_path, svg_path
