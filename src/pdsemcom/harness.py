"""Sweep orchestration: quantize, code, corrupt, classify, tabulate.

One sweep runs the full factorial over (pipeline, m, alpha, code) cells,
appends one results row per cell to a CSV keyed by a config hash, and can
resume after a kill by skipping keys already present. Curve emission turns
the rows into the distortion/rate/accuracy trade-off charts as CSV + SVG.
"""

import csv
import hashlib
import math
import os
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from itertools import product
from operator import attrgetter

import numpy as np

from .channel import BscChannel, transmit, transmit_bits
from .codec import (Frame, bch_encode, bch_generator, build_huffman,
                    decode_or_passthrough, huffman_decode, huffman_encode,
                    pack_objects)
from .dataset import load_pointcloud_file, synth_dataset
from .errors import ParseError, PipelineError
from .homology import load_pd_file, vr_diagram
from .infotheory import (bottleneck_style_distortion, cell_probabilities,
                         estimate_density, mse_distortion, quantizer_entropy,
                         semantic_rate)
from .inference import (AccuracyReport, CvSchedule, evaluate_accuracy,
                        perslay_vectorize, rasterize_raw, train_classifier)
from .quantizer import QuantizerGrid, quantize_diagram, quantize_set

PIPELINE_KINDS = ("pd", "raw", "latent")
CURVE_KINDS = ("dr", "ad", "ar", "ar-coded")

SEED_ENV = "PDSEMCOM_SEED"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.10g" % float(x)


def _text(x) -> str:
    """A record or config value as file text: strings as they are."""
    return x if isinstance(x, str) else _fmt(x)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep depends on; hashable as canonical text.

    `dataset` is either the literal "synth" or a point-cloud CSV path.
    `codes` lists (n, k, t) block codes swept in addition to the always
    present uncoded cell. `out` is artifact plumbing and does not enter the
    config hash.
    """

    pipelines: tuple = ("pd", "raw")
    dataset: str = "synth"
    latent_file: str | None = None
    per_class: int = 200
    n_points: int = 48
    noise: float = 0.2
    dataset_seed: int = 7
    gamma_max: float = 16.0
    box_pd: float = 16.0
    box_raw: float = 28.0
    box_latent: float = 1.0
    m_values: tuple = tuple(range(10, 28))
    partition: int = 28
    T: int = 10
    cv_seed: int = 1
    train_seed: int = 3
    channel_seed: int = 11
    alphas: tuple = (0.0,)
    codes: tuple = ()
    epochs: int = 300
    hidden: tuple = (128, 64)
    drop_essential: bool = False
    collapse_duplicates: bool = False
    out: str = "results.csv"

    def __post_init__(self):
        if not self.pipelines:
            raise ValueError("at least one pipeline kind is required")
        for p in self.pipelines:
            if p not in PIPELINE_KINDS:
                raise ValueError(f"unknown pipeline kind {p!r}")
        if len(set(self.pipelines)) != len(self.pipelines):
            raise ValueError("duplicate pipeline kinds")
        if self.dataset != "synth" and not os.path.exists(self.dataset):
            raise ValueError(f"dataset file {self.dataset!r} does not exist")
        if "latent" in self.pipelines:
            if not self.latent_file:
                raise ValueError("latent pipeline requires latent_file")
        if self.latent_file and not os.path.exists(self.latent_file):
            raise ValueError(f"latent file {self.latent_file!r} does not exist")
        if self.dataset == "synth" and (3 * self.per_class) % 2 != 0:
            raise ValueError("per_class must be even for half/half folds")
        ms = tuple(sorted(set(int(m) for m in self.m_values)))
        if not ms:
            raise ValueError("m_values must not be empty")
        for m in ms:
            if not 2 <= m <= 28:
                raise ValueError(f"m={m} outside the supported [2, 28] range")
        object.__setattr__(self, "m_values", ms)
        alphas = tuple(sorted(set(float(a) for a in self.alphas)))
        for a in alphas:
            if not 0.0 <= a < 0.5:
                raise ValueError(f"alpha={a} outside [0, 0.5)")
        object.__setattr__(self, "alphas", alphas)
        codes = tuple((int(n), int(k), int(t)) for n, k, t in self.codes)
        for n, k, t in codes:
            g = (n + 1).bit_length() - 1
            if (1 << g) - 1 != n:
                raise ValueError(f"code length {n} is not 2^g - 1")
            if not 0 < k < n:
                raise ValueError(f"message length {k} outside (0, {n})")
            if t < 1:
                raise ValueError("error capability must be at least 1")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        for name, low in (("per_class", 1), ("n_points", 4), ("partition", 1),
                          ("T", 1), ("epochs", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("gamma_max", "box_pd", "box_raw", "box_latent"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be positive")

    def box_for(self, pipeline: str) -> float:
        return {"pd": self.box_pd, "raw": self.box_raw,
                "latent": self.box_latent}[pipeline]

    def canonical_text(self, include_artifacts: bool = False) -> str:
        return "".join(
            f"{key} = {fmt(getattr(self, key))}\n"
            for key, (fmt, _) in _CONFIG_TEXT.items()
            if include_artifacts or key != "out")

    def config_hash(self) -> str:
        return hashlib.sha256(
            self.canonical_text().encode("utf-8")).hexdigest()[:16]


def _parse_int_list(v: str) -> tuple:
    out = []
    for tok in v.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo, hi = tok.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(tok))
    return tuple(out)


def _parse_codes(v: str) -> tuple:
    if v.strip().lower() == "none":
        return ()
    out = []
    for tok in v.split(","):
        n, k, t = tok.strip().split(":")
        out.append((int(n), int(k), int(t)))
    return tuple(out)


def _parse_bool(v: str) -> bool:
    s = v.strip().lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _join(items) -> str:
    return ",".join(str(x) for x in items)


# (format, parse) per config field type, and for the fields whose text
# needs more than their type says
_TEXT_BY_TYPE = {
    int: (lambda v: "%d" % v, int),
    float: (_fmt, float),
    str: (str, str.strip),
    bool: (lambda b: "true" if b else "false", _parse_bool),
}
_TEXT_BY_KEY = {
    "pipelines": (_join, lambda v: tuple(s.strip() for s in v.split(","))),
    "latent_file": (lambda v: v or "none",
                    lambda v: None if v.strip().lower() == "none"
                    else v.strip()),
    "m_values": (_join, _parse_int_list),
    "alphas": (lambda xs: ",".join(_fmt(a) for a in xs),
               lambda v: tuple(float(s) for s in v.split(","))),
    "codes": (lambda cs: ",".join("%d:%d:%d" % c for c in cs) or "none",
              _parse_codes),
    "hidden": (_join, _parse_int_list),
}
# key -> (format, parse) in field order; the formatted lines make up the
# canonical text, so the config hash depends on every entry
_CONFIG_TEXT = {f.name: _TEXT_BY_KEY.get(f.name) or _TEXT_BY_TYPE[f.type]
                for f in fields(ExperimentConfig)}
_KEY_PARSERS = {key: parse for key, (_, parse) in _CONFIG_TEXT.items()}


def parse_config(text: str) -> ExperimentConfig:
    """Key = value lines; '#' starts a comment; unknown keys are errors."""
    data = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}",
                             line_number=ln)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ParseError(f"unknown config key {key!r}", line_number=ln)
        try:
            data[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}",
                             line_number=ln) from exc
    try:
        return ExperimentConfig(**data)
    except ValueError as exc:
        raise ParseError(str(exc), line_number=0) from exc


def load_config(path) -> ExperimentConfig:
    """Read a config file; PDSEMCOM_SEED=s replaces all four seeds (dataset,
    cv, train, channel get s, s+1, s+2, s+3)."""
    with open(path) as f:
        config = parse_config(f.read())
    if os.environ.get(SEED_ENV):
        s = int(os.environ[SEED_ENV])
        config = replace(config, dataset_seed=s, cv_seed=s + 1,
                         train_seed=s + 2, channel_seed=s + 3)
    return config


def write_config(path, config: ExperimentConfig) -> None:
    with open(path, "w") as f:
        f.write(config.canonical_text(include_artifacts=True))


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
        return (self.pipeline, self.m, _fmt(self.alpha), self.code)

    def to_row(self) -> list:
        return [_text(getattr(self, name)) for name in COLUMNS]

    @classmethod
    def from_row(cls, row: dict) -> "TradeoffRecord":
        values = [row.get(name) for name in COLUMNS]
        if None in values or None in row:
            raise ValueError("row has missing or extra fields")
        return cls(*(f.type(v) for f, v in zip(fields(cls), values)))


COLUMNS = tuple(f.name for f in fields(TradeoffRecord))


def read_results(path):
    """-> (config hash, records). Inverse of the sweep's CSV writer; a row
    with missing, extra or unparsable fields raises ParseError."""
    with open(path, newline="") as f:
        first = f.readline().strip()
        if not first.startswith("# config_hash="):
            raise ParseError("results file lacks the config hash header",
                             line_number=1)
        config_hash = first.split("=", 1)[1]
        reader = csv.DictReader(f)
        records = []
        for row in reader:
            try:
                records.append(TradeoffRecord.from_row(row))
            except ValueError as exc:
                # the reader counts from the column line, file line 2
                raise ParseError(f"bad results row: {exc}",
                                 line_number=reader.line_num + 1) from exc
    return config_hash, records


def _drop_partial_line(path, header: bytes = b"") -> None:
    """Cut a last line that lacks its newline, as a kill mid-append leaves
    it, from a file that starts with `header`."""
    with open(path, "rb+") as f:
        data = f.read()
        if data.startswith(header) and not data.endswith(b"\n"):
            f.truncate(data.rfind(b"\n") + 1)


def _drop_unfinished_cell(out_path, folds_path, records, T: int) -> list:
    """A kill after a cell's results row and before its last fold row leaves
    the last row an ok cell with fewer than T fold rows. Cut that row and
    its fold rows so that the cell is computed again; -> the kept records."""
    if not records or records[-1].status != "ok":
        return records
    prefix = ",".join(map(str, records[-1].key)).encode() + b","
    with open(folds_path, "ab+") as f:
        f.seek(0)
        lines = f.readlines()
        kept = len(lines)
        while kept and lines[kept - 1].startswith(prefix):
            kept -= 1
        if len(lines) - kept >= T:
            return records
        f.truncate(sum(map(len, lines[:kept])))
    with open(out_path, "rb+") as f:
        f.truncate(sum(map(len, f.readlines()[:-1])))
    return records[:-1]


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
            self.dataset = synth_dataset(per_class=config.per_class,
                                         n_points=config.n_points,
                                         noise=config.noise,
                                         seed=config.dataset_seed)
        else:
            self.dataset = load_pointcloud_file(config.dataset)
        n = len(self.dataset.objects)
        self.labels = self.dataset.labels()
        if np.any(self.labels <= 0):
            raise ValueError("sweep requires a label for every object")
        self.object_ids = np.array([o.id for o in self.dataset.objects])
        self.schedule = CvSchedule(n_objects=n, T=config.T,
                                   seed=config.cv_seed)
        # every index that ever lands in a test fold, plus its multiplicity
        self.test_multiset = np.concatenate(
            [test for _, test in self.schedule.folds])
        self.unique_test = np.unique(self.test_multiset)


# Stage 2: one pipeline's clean diagrams (pd only), points, density and T
# fold classifiers
_PipelineState = namedtuple("_PipelineState",
                            "diagrams points density classifiers")


def _latent_points(ctx):
    entries = load_pd_file(ctx.config.latent_file)
    missing = [i for i in ctx.object_ids if i not in entries]
    if missing:
        raise ValueError(f"latent file lacks object {missing[0]} (and "
                         f"{len(missing) - 1} more)")
    raw = [np.vstack([entries[oid].points(0), entries[oid].points(1)])
           for oid in ctx.object_ids]
    counts = {len(p) for p in raw}
    if len(counts) != 1:
        raise ValueError(
            f"latent sets must share one point count, got {sorted(counts)}")
    return _normalize_latents(raw, ctx.config.box_latent)


def _build_pipeline(ctx, pipeline: str) -> _PipelineState:
    cfg = ctx.config
    diagrams = None
    if pipeline == "pd":
        diagrams = []
        for obj in ctx.dataset.objects:
            d = vr_diagram(obj.points, gamma_max=cfg.gamma_max)
            diagrams.append(d.drop_essential() if cfg.drop_essential else d)
        points = [np.vstack([d.points(0), d.points(1)]) for d in diagrams]
        features = np.array([perslay_vectorize(d, cfg.box_pd)
                             for d in diagrams])
    elif pipeline == "raw":
        points = [o.points for o in ctx.dataset.objects]
        features = np.array([rasterize_raw(o.points, box_side=cfg.box_raw)
                             for o in ctx.dataset.objects])
    else:
        points = _latent_points(ctx)
        features = np.array([p.ravel() for p in points])
    density = estimate_density([points[i] for i in ctx.test_multiset],
                               box_side=cfg.box_for(pipeline),
                               partition=cfg.partition)
    classifiers = []
    for t, (train, _) in enumerate(ctx.schedule.folds):
        fold_seed = int(np.random.SeedSequence(
            entropy=cfg.train_seed,
            spawn_key=(PIPELINE_KINDS.index(pipeline), t),
        ).generate_state(1)[0])
        classifiers.append(train_classifier(
            features[train], ctx.labels[train], hidden_sizes=cfg.hidden,
            epochs=cfg.epochs, seed=fold_seed))
    return _PipelineState(diagrams=diagrams, points=points, density=density,
                          classifiers=classifiers)


def _build_bch(spec: tuple):
    """Stage 3: one BCH code, checked against the configured k."""
    n, k, t = spec
    m_gf = (n + 1).bit_length() - 1
    code = bch_generator(m_gf, t)
    if code.k != k:
        raise ValueError(
            f"designed-distance construction at t={t} yields "
            f"k={code.k}, config says {k}")
    return code


# Stage 4: what every cell of one (pipeline, m) group shares; `shared` holds
# the record fields that no channel or classifier changes
_CellPrep = namedtuple("_CellPrep", "grid streams bits huffman shared")


def _build_prep(ctx, state: _PipelineState, pipeline: str, m: int):
    cfg = ctx.config
    grid = QuantizerGrid(box_side=cfg.box_for(pipeline), n_bins=m)
    probs = cell_probabilities(state.density, grid)
    huffman = build_huffman(probs)
    streams, bits = {}, {}
    for i in ctx.unique_test:
        if pipeline == "pd":
            q = quantize_diagram(grid, state.diagrams[i],
                                 collapse_duplicates=cfg.collapse_duplicates)
        else:
            q = quantize_set(grid, state.points[i], pipeline,
                             collapse_duplicates=cfg.collapse_duplicates)
        streams[i] = q
        bits[i] = huffman_encode(huffman, q.indices)
    mean_symbols = float(np.mean(
        [len(streams[i].indices) for i in ctx.test_multiset]))
    rate = semantic_rate(quantizer_entropy(probs), pipeline, m, mean_symbols)
    shared = dict(
        entropy_bits=rate.entropy_bits_per_symbol,
        mean_symbols=rate.mean_symbols_per_object,
        rate_cells=rate.rate_bits_per_object,
        rate_selfinfo=rate.self_information_bits_per_object,
        huffman_bits=float(np.mean([len(bits[i]) for i in ctx.test_multiset])),
        avg_codeword_len=huffman.expected_length(probs[huffman.symbols - 1]),
        mse=mse_distortion(state.density, grid),
        bottleneck=bottleneck_style_distortion(
            [state.points[i] for i in ctx.test_multiset], grid))
    return _CellPrep(grid=grid, streams=streams, bits=bits, huffman=huffman,
                     shared=shared)


def _decode_uncoded(ctx, prep, alpha):
    channel = BscChannel(alpha=alpha, seed=ctx.config.channel_seed)
    triples = [(int(ctx.object_ids[i]), prep.bits[i],
                prep.streams[i].channel_counts) for i in ctx.unique_test]
    sent = transmit(channel, pack_objects(triples))
    decoded, wire = {}, {}
    for i, (frame, payload) in zip(ctx.unique_test, sent.payloads()):
        n_symbols = sum(frame.channel_counts)
        decoded[i] = huffman_decode(prep.huffman, payload,
                                    max_symbols=n_symbols, strict=False)
        wire[i] = frame.n_bits + frame.overhead_bits
    return decoded, wire, 0


def _decode_coded(ctx, prep, alpha, code):
    channel = BscChannel(alpha=alpha, seed=ctx.config.channel_seed)
    n, k = code.n, code.k
    decoded, wire = {}, {}
    failures = 0
    for i in ctx.unique_test:
        payload = prep.bits[i]
        oid = int(ctx.object_ids[i])
        counts = prep.streams[i].channel_counts
        # the same frame, with its field limits, that uncoded streams charge
        overhead = Frame(oid, len(payload), counts).overhead_bits
        if len(payload) == 0:
            decoded[i] = np.empty(0, dtype=int)
            wire[i] = overhead
            continue
        blocks = int(np.ceil(len(payload) / k))
        padded = np.zeros(blocks * k, dtype=np.uint8)
        padded[:len(payload)] = payload
        words = [bch_encode(code, msg) for msg in padded.reshape(blocks, k)]
        received = transmit_bits(channel, np.concatenate(words), key=(oid,))
        pieces = []
        for word in received.reshape(blocks, n):
            msg, _, failed = decode_or_passthrough(code, word)
            failures += int(failed)
            pieces.append(msg)
        out_bits = np.concatenate(pieces)[:len(payload)]
        decoded[i] = huffman_decode(prep.huffman, out_bits,
                                    max_symbols=sum(counts),
                                    strict=False)
        wire[i] = blocks * n + overhead
    return decoded, wire, failures


def _cell_features(ctx, state, prep, pipeline, decoded):
    cfg = ctx.config
    feats = {}
    for i in ctx.unique_test:
        symbols = decoded[i]
        if pipeline == "pd":
            c0 = min(prep.streams[i].channel_counts[0], len(symbols))
            # imported at call time: sweepbench/spans.py wraps it in quantizer
            from .quantizer import diagram_from_symbols
            diag = diagram_from_symbols(prep.grid, symbols,
                                        (c0, len(symbols) - c0),
                                        gamma_max=cfg.gamma_max)
            feats[i] = perslay_vectorize(diag, cfg.box_pd)
            continue
        centers = prep.grid.centers_of(symbols)
        if pipeline == "raw":
            feats[i] = rasterize_raw(centers, box_side=cfg.box_raw)
        else:
            want = len(state.points[i])
            padded = np.zeros((want, 2))
            padded[:min(want, len(centers))] = centers[:want]
            feats[i] = padded.ravel()
    return feats


def _symbol_error_rate(ctx, prep, decoded) -> float:
    rates = {}
    for i in ctx.unique_test:
        orig = prep.streams[i].indices
        dec = np.asarray(decoded[i], dtype=int)
        n = min(len(orig), len(dec))
        errors = int(np.sum(orig[:n] != dec[:n])) + abs(len(orig) - len(dec))
        rates[i] = errors / max(1, len(orig))
    return float(np.mean([rates[i] for i in ctx.test_multiset]))


def _run_cell(ctx, state, prep, pipeline, m, alpha, label, code):
    if code is None:
        decoded, wire, failures = _decode_uncoded(ctx, prep, alpha)
    else:
        decoded, wire, failures = _decode_coded(ctx, prep, alpha, code)
    feats = _cell_features(ctx, state, prep, pipeline, decoded)
    fold_accs = []
    for t, (_, test) in enumerate(ctx.schedule.folds):
        X = np.stack([feats[i] for i in test])
        fold_accs.append(evaluate_accuracy(state.classifiers[t],
                                           X, ctx.labels[test]))
    report = AccuracyReport(fold_accs)
    record = TradeoffRecord(
        pipeline=pipeline, m=m, alpha=alpha, code=label, status="ok",
        schedule=ctx.schedule.schedule_hash(), seed=ctx.config.channel_seed,
        wire_bits=float(np.mean([wire[i] for i in ctx.test_multiset])),
        acc_mean=report.mean, band_low=report.band_low,
        band_high=report.band_high, acc_std=report.std,
        symbol_error_rate=_symbol_error_rate(ctx, prep, decoded),
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
    sibling *_folds.csv holds per-repetition accuracies. A last line cut
    short by a kill is dropped from both files before a resume appends, and
    so is a last cell whose fold rows did not all land.
    """
    ctx = _SweepContext(config)
    # (key, pipeline, m, alpha, code spec) in row order
    cells = [((p, m, _fmt(a), "none" if c is None else "%d:%d:%d" % c),
              p, m, a, c)
             for p, m, a, c in product(config.pipelines, config.m_values,
                                       config.alphas, (None,) + config.codes)]

    header = "# config_hash=%s\n" % config.config_hash()
    folds_path = folds_path_for(config.out)
    existing = []
    if os.path.exists(config.out):
        _drop_partial_line(config.out, header.encode())
        file_hash, existing = read_results(config.out)
        if file_hash != config.config_hash():
            raise ValueError(
                f"results file {config.out!r} was produced by a different "
                f"configuration (hash {file_hash})")
        if os.path.exists(folds_path):
            _drop_partial_line(folds_path)
        existing = _drop_unfinished_cell(config.out, folds_path, existing,
                                         config.T)
    done = {r.key for r in existing}
    pending = [c for c in cells if c[0] not in done]

    # stages 2 and 3, each built once, only for the cells still to run
    states = {p: _attempt(_build_pipeline, ctx, p) for p in config.pipelines
              if any(c[1] == p for c in pending)}
    codes = {s: _attempt(_build_bch, s) for s in config.codes
             if any(c[4] == s for c in pending)}

    records = list(existing)
    failed = []
    group, prep = None, None
    with (open(config.out, "a", newline="") as out_f,
          open(folds_path, "a", newline="") as folds_f):
        if out_f.tell() == 0:
            out_f.write(header + ",".join(COLUMNS) + "\n")
            out_f.flush()
        if folds_f.tell() == 0:
            folds_f.write("pipeline,m,alpha,code,t,accuracy\n")
            folds_f.flush()
        out_w = csv.writer(out_f, lineterminator="\n")
        folds_w = csv.writer(folds_f, lineterminator="\n")
        for idx, (key, pipeline, m, alpha, spec) in enumerate(cells):
            if key in done:
                if progress:
                    print(f"[{idx + 1}/{len(cells)}] {key} already done")
                continue
            state = states[pipeline]
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
                folds_w.writerows([*key, t, _fmt(acc)]
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
    return r.alpha == 0.0 and r.code == "none"


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
    pipelines = [p for p in PIPELINE_KINDS
                 if any(r.pipeline == p for r in records)]

    # rows and series are built before either file is opened, so a call
    # that raises writes nothing
    table, series, vlines = [spec.columns], [], []
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
    with open(csv_path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(table)
    with open(svg_path, "w") as f:
        f.write(chart)
    return csv_path, svg_path
