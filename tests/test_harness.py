import csv
import hashlib
import importlib.util
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pdsemcom.codec import bch_generator
from pdsemcom.errors import CapacityExceeded, ParseError
from pdsemcom.harness import (COLUMNS, ExperimentConfig, TradeoffRecord,
                              emit_curves, folds_path_for, load_config,
                              parse_config, read_results, run_sweep,
                              write_config, _decode_coded, _normalize_latents)
from pdsemcom.quantizer import upper_triangle_cells


def _small_config(out, **overrides):
    base = dict(pipelines=("pd", "raw"), per_class=6, n_points=16, noise=0.2,
                dataset_seed=7, m_values=(5, 8), T=2, alphas=(0.0, 0.3),
                codes=((15, 5, 3),), epochs=40, hidden=(16,), out=str(out))
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "results.csv"
    config = _small_config(out)
    records = run_sweep(config)
    return config, records


# -- config parsing ---------------------------------------------------------

def test_config_text_round_trip(tmp_path, monkeypatch):
    monkeypatch.delenv("PDSEMCOM_SEED", raising=False)
    latent = tmp_path / "latents.csv"
    latent.write_text("")
    config = _small_config(tmp_path / "r.csv", latent_file=str(latent),
                           collapse_duplicates=True)
    path = tmp_path / "cfg.txt"
    write_config(path, config)
    back = load_config(path)
    assert back == config
    assert back.config_hash() == config.config_hash()


def test_parse_ranges_comments_and_codes():
    cfg = parse_config(
        "# comment line\n"
        "m_values = 10..12, 20  # trailing comment\n"
        "alphas = 0.0, 0.12\n"
        "codes = 1023:123:170\n"
        "pipelines = pd\n"
    )
    assert cfg.m_values == (10, 11, 12, 20)
    assert cfg.alphas == (0.0, 0.12)
    assert cfg.codes == ((1023, 123, 170),)
    assert parse_config("codes = none\npipelines = raw\n").codes == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("per_class = 4\nwat = 7\n")
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        parse_config("per_class = not_a_number\n")
    assert err.value.line_number == 1
    with pytest.raises(ParseError):
        parse_config("just some words\n")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(pipelines=("voxel",))
    with pytest.raises(ValueError):
        ExperimentConfig(pipelines=("pd", "pd"))
    with pytest.raises(ValueError):
        ExperimentConfig(per_class=3)  # 9 objects cannot split in half
    with pytest.raises(ValueError):
        ExperimentConfig(m_values=(1,))
    with pytest.raises(ValueError):
        ExperimentConfig(m_values=(29,))
    with pytest.raises(ValueError):
        ExperimentConfig(alphas=(0.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(codes=((1000, 123, 170),))
    with pytest.raises(ValueError):
        ExperimentConfig(pipelines=("latent",))  # no latent_file
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="/no/such/file.csv")
    # m values are sorted and deduplicated
    cfg = ExperimentConfig(m_values=(12, 10, 12))
    assert cfg.m_values == (10, 12)


def test_env_overrides(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    write_config(path, ExperimentConfig(out=str(tmp_path / "r.csv")))
    monkeypatch.setenv("PDSEMCOM_SEED", "99")
    cfg = load_config(path)
    assert (cfg.dataset_seed, cfg.cv_seed, cfg.train_seed,
            cfg.channel_seed) == (99, 100, 101, 102)


def test_config_hashes_are_pinned():
    assert ExperimentConfig().config_hash() == "e65922132398f5d5"
    cfg = ExperimentConfig(codes=((1023, 123, 170), (15, 5, 3)),
                           alphas=(0.0, 0.12), drop_essential=True,
                           collapse_duplicates=True)
    assert cfg.config_hash() == "732a0c135e127a37"


def test_hash_ignores_artifact_plumbing():
    a = ExperimentConfig(out="a.csv")
    b = ExperimentConfig(out="b.csv")
    assert a.config_hash() == b.config_hash()
    c = ExperimentConfig(noise=0.3)
    assert c.config_hash() != a.config_hash()


def test_record_row_round_trip():
    rec = TradeoffRecord(
        pipeline="pd", m=10, alpha=0.12, code="1023:123:170", status="ok",
        schedule="abc123", seed=11, entropy_bits=1.5, mean_symbols=6.25,
        rate_cells=82.5, rate_selfinfo=9.375, huffman_bits=11.0,
        wire_bits=1055.0, avg_codeword_len=1.76, mse=0.41, bottleneck=0.52,
        acc_mean=0.93, band_low=0.9, band_high=0.96, acc_std=0.02,
        symbol_error_rate=0.0, decode_failures=0)
    row = dict(zip(COLUMNS, rec.to_row()))
    assert TradeoffRecord.from_row(row) == rec
    with pytest.raises(ValueError):
        TradeoffRecord(**{**rec.__dict__, "acc_mean": 1.5})
    with pytest.raises(ValueError):
        TradeoffRecord(**{**rec.__dict__, "mse": float("nan")})


def test_read_results_requires_hash_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("pipeline,m\npd,10\n")
    with pytest.raises(ParseError):
        read_results(path)


def test_folds_path():
    assert folds_path_for("a/b.csv") == "a/b_folds.csv"
    assert folds_path_for("plain") == "plain_folds.csv"


def test_normalize_latents():
    sets = [np.array([[2.0, 2.0], [4.0, 6.0]]), np.array([[3.0, 2.0]])]
    out = _normalize_latents(sets, 1.0)
    allpts = np.vstack(out)
    assert allpts.min() >= 0.0 and allpts.max() == pytest.approx(1.0)
    # relative geometry is preserved up to one global scale
    d_in = np.linalg.norm(sets[0][1] - sets[0][0])
    d_out = np.linalg.norm(out[0][1] - out[0][0])
    assert d_out == pytest.approx(d_in / 4.0)
    with pytest.raises(ValueError):
        _normalize_latents([np.array([[1.0, 1.0], [1.0, 1.0]])], 1.0)


# -- sweep behavior ---------------------------------------------------------

def test_sweep_is_complete_and_consistent(small_sweep):
    config, records = small_sweep
    assert len(records) == 2 * 2 * 2 * 2  # pipelines x m x alphas x codes+1
    assert all(r.status == "ok" for r in records)
    keys = {r.key for r in records}
    assert len(keys) == len(records)
    hashes = {r.schedule for r in records}
    assert len(hashes) == 1

    for r in records:
        m_cells = upper_triangle_cells(r.m) if r.pipeline == "pd" else r.m ** 2
        assert r.rate_cells == pytest.approx(m_cells * r.entropy_bits,
                                             abs=1e-9)
        assert r.rate_selfinfo == pytest.approx(
            r.mean_symbols * r.entropy_bits, abs=1e-9)
        assert r.huffman_bits <= r.wire_bits
        assert 0.0 <= r.acc_mean <= 1.0

    by_key = {r.key: r for r in records}
    for p in ("pd", "raw"):
        # noiseless uncoded cells decode losslessly
        clean = by_key[(p, 5, "0", "none")]
        assert clean.symbol_error_rate == 0.0
        assert clean.decode_failures == 0
        # noise hurts the symbol stream
        noisy = by_key[(p, 5, "0.3", "none")]
        assert noisy.symbol_error_rate > 0.0
        # coarser grids distort more: the D-R frontier is monotone
        assert by_key[(p, 5, "0", "none")].mse > by_key[(p, 8, "0", "none")].mse
        # block coding inflates the wire rate
        coded = by_key[(p, 5, "0", "15:5:3")]
        assert coded.wire_bits > clean.wire_bits


def test_results_file_round_trips(small_sweep):
    config, records = small_sweep
    file_hash, rows = read_results(config.out)
    assert file_hash == config.config_hash()
    # the file stores %.10g formatted values: reading back must reproduce
    # exactly what to_row wrote
    formatted = [TradeoffRecord.from_row(dict(zip(COLUMNS, r.to_row())))
                 for r in records]
    assert rows == formatted
    with open(folds_path_for(config.out)) as f:
        folds = list(csv.DictReader(f))
    assert len(folds) == len(records) * config.T


def test_sweep_determinism(small_sweep, tmp_path):
    config, _ = small_sweep
    out2 = tmp_path / "again.csv"
    run_sweep(ExperimentConfig(**{**config.__dict__, "out": str(out2)}))
    with open(config.out, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()


def test_sweep_resume_is_idempotent(small_sweep, tmp_path):
    config, records = small_sweep
    original = Path(config.out).read_bytes()

    # a completed sweep re-run adds nothing
    again = run_sweep(config)
    assert Path(config.out).read_bytes() == original
    assert len(again) == len(records)

    # a truncated file is finished to the identical byte content
    lines = original.decode().splitlines(keepends=True)
    partial = tmp_path / "partial.csv"
    with open(partial, "w") as f:
        f.writelines(lines[:2 + 5])  # hash header + columns + 5 data rows
    run_sweep(ExperimentConfig(**{**config.__dict__, "out": str(partial)}))
    assert Path(partial).read_bytes() == original


def test_resume_after_interrupted_append(small_sweep, tmp_path):
    # a kill mid-append leaves the last results row cut short and none of
    # that cell's fold rows
    config, finished = small_sweep
    results = Path(config.out).read_bytes()
    folds = Path(folds_path_for(config.out)).read_bytes()
    last = results[:-1].rsplit(b"\n", 1)[1]
    out = tmp_path / "cut.csv"
    out.write_bytes(results[:len(results) - len(last) // 2 - 1])
    fold_lines = folds.splitlines(keepends=True)
    cut_folds = tmp_path / "cut_folds.csv"
    cut_folds.write_bytes(b"".join(fold_lines[:-config.T]))
    records = run_sweep(ExperimentConfig(**{**config.__dict__,
                                            "out": str(out)}))
    assert len(records) == len(finished)
    assert out.read_bytes() == results
    assert cut_folds.read_bytes() == folds


@pytest.mark.parametrize("cut", [1, 2])
def test_resume_recomputes_cell_with_missing_fold_rows(tmp_path, cut):
    # a kill after a cell's results row and before its fold rows: the
    # resume recomputes that cell instead of leaving its folds short
    config = _small_config(tmp_path / "full.csv", pipelines=("raw",),
                           m_values=(5,), alphas=(0.0, 0.3), codes=(),
                           epochs=5)
    run_sweep(config)
    results = Path(config.out).read_bytes()
    folds = Path(folds_path_for(config.out)).read_bytes()
    out = tmp_path / "cut.csv"
    out.write_bytes(results)
    fold_lines = folds.splitlines(keepends=True)
    assert len(fold_lines) == 1 + 2 * config.T
    cut_folds = tmp_path / "cut_folds.csv"
    cut_folds.write_bytes(b"".join(fold_lines[:-cut]))
    records = run_sweep(ExperimentConfig(**{**config.__dict__,
                                            "out": str(out)}))
    assert len(records) == 2
    assert out.read_bytes() == results
    assert cut_folds.read_bytes() == folds


def test_read_results_rejects_bad_rows(small_sweep, tmp_path):
    config, _ = small_sweep
    lines = Path(config.out).read_text().splitlines(keepends=True)
    path = tmp_path / "r.csv"
    short = lines[4].rsplit(",", 3)[0] + "\n"
    path.write_text("".join(lines[:4] + [short] + lines[5:]))
    with pytest.raises(ParseError) as err:
        read_results(path)
    assert err.value.line_number == 5
    bad = lines[3].replace(",ok,", ",ok?,")
    path.write_text("".join(lines[:3] + [bad] + lines[4:]))
    with pytest.raises(ParseError) as err:
        read_results(path)
    assert err.value.line_number == 4


def test_each_stage_runs_once(tmp_path, monkeypatch):
    import pdsemcom.harness as harness
    calls = {}

    def counting(name):
        fn = getattr(harness, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapped)

    for name in ("vr_diagram", "train_classifier", "bch_generator"):
        counting(name)
    config = _small_config(tmp_path / "r.csv", epochs=5)
    run_sweep(config)
    assert calls == {"vr_diagram": 3 * config.per_class,
                     "train_classifier": len(config.pipelines) * config.T,
                     "bch_generator": len(config.codes)}
    calls.clear()
    run_sweep(config)  # nothing left to do: no stage is built
    assert calls == {}


def test_traced_names_still_resolve():
    # the sweep benchmark's tracer (sweepbench/spans.py) replaces these names
    # where the harness looks them up; a renamed or dropped one must fail
    # here and not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "sweepbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("sweepbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), (
            f"{module.__name__}.{attr}")


def test_coded_cell_checks_frame_capacity():
    # a payload of 2^16 bits overflows the 16-bit length field of its frame,
    # on the coded path as on the uncoded one
    ctx = SimpleNamespace(config=SimpleNamespace(channel_seed=0),
                          unique_test=[0], object_ids=np.array([1]))
    prep = SimpleNamespace(
        bits={0: np.zeros(1 << 16, dtype=np.uint8)},
        streams={0: SimpleNamespace(channel_counts=(3, 1))}, huffman=None)
    with pytest.raises(CapacityExceeded):
        _decode_coded(ctx, prep, 0.0, bch_generator(4, 1))


def test_sweep_rejects_foreign_results_file(small_sweep):
    config, _ = small_sweep
    other = ExperimentConfig(**{**config.__dict__, "noise": 0.25})
    with pytest.raises(ValueError):
        run_sweep(other)


def test_cell_errors_are_recorded_not_fatal(tmp_path):
    # diagram deaths live in [0, gamma_max]; a pd box smaller than that
    # makes every pd cell fail while raw cells keep working
    out = tmp_path / "r.csv"
    config = _small_config(out, gamma_max=20.0, box_pd=16.0,
                           m_values=(5,), alphas=(0.0,), codes=(),
                           epochs=5)
    records = run_sweep(config)
    by_status = {r.pipeline: r.status for r in records}
    assert by_status == {"pd": "error", "raw": "ok"}
    bad = [r for r in records if r.status == "error"][0]
    assert "OutOfBox" in bad.error
    assert np.isnan(bad.acc_mean)
    # errored cells are terminal: a resume does not retry them
    size = out.stat().st_size
    run_sweep(config)
    assert out.stat().st_size == size


def test_bad_code_spec_fails_only_coded_cells(tmp_path):
    # the t=2 designed-distance code on GF(16) has k=7, not 6
    out = tmp_path / "r.csv"
    config = _small_config(out, pipelines=("raw",), m_values=(5,),
                           alphas=(0.0,), codes=((15, 6, 2),), epochs=5)
    records = run_sweep(config)
    status = {r.code: r.status for r in records}
    assert status == {"none": "ok", "15:6:2": "error"}
    assert "k=7" in [r for r in records if r.status == "error"][0].error


def test_latent_pipeline_end_to_end(tmp_path):
    # class-coded latent point sets, same CSV layout as diagram files
    rng = np.random.default_rng(3)
    latent = tmp_path / "latents.csv"
    with open(latent, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["object", "dim", "birth", "death"])
        for oid in range(1, 19):
            cls = (oid - 1) // 6  # matches the synth blocked layout
            base = np.array([[1.0 + 3.0 * cls, 2.0], [5.0, 1.0 + 2.0 * cls],
                             [2.0, 6.0], [6.5, 7.5]])
            pts = base + rng.normal(0, 0.05, size=base.shape)
            for x, y in pts:
                w.writerow([oid, 0, f"{x:.9g}", f"{y:.9g}"])
    out = tmp_path / "r.csv"
    config = _small_config(out, pipelines=("latent",), latent_file=str(latent),
                           m_values=(6,), alphas=(0.0,), codes=(),
                           epochs=1200)
    records = run_sweep(config)
    assert len(records) == 1 and records[0].status == "ok"
    assert records[0].acc_mean > 0.5


# -- curve emission ---------------------------------------------------------

def test_emit_all_curve_kinds(small_sweep, tmp_path):
    _, records = small_sweep
    for kind in ("dr", "ad", "ar", "ar-coded"):
        csv_path, svg_path = emit_curves(records, kind, tmp_path / kind)
        text = Path(svg_path).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        with open(csv_path) as f:
            rows = list(csv.reader(f))
        assert len(rows) > 2
    # the coded chart carries the perfect-channel reference lines
    svg = (tmp_path / "ar-coded" / "ar-coded.svg").read_text()
    assert "stroke-dasharray" in svg


def test_emit_curves_warns_on_missing_pipeline(small_sweep, tmp_path, capsys):
    _, records = small_sweep
    only_raw = [r for r in records if r.pipeline == "raw"]
    emit_curves(only_raw, "dr", tmp_path / "c")
    assert "curve omitted" not in capsys.readouterr().out  # raw suffices
    clean_only = [r for r in records if r.alpha == 0.0 and r.code == "none"]
    with pytest.raises(ValueError):
        emit_curves(clean_only, "ar-coded", tmp_path / "c2")
    out = capsys.readouterr().out
    assert out.count("curve omitted") == 2  # once per pipeline


def _curve_record(pipeline, m, alpha, code, rate, mse, acc, wire):
    return TradeoffRecord(
        pipeline=pipeline, m=m, alpha=alpha, code=code, status="ok",
        schedule="s1", seed=11, entropy_bits=rate / 10, mean_symbols=10.0,
        rate_cells=rate * 2, rate_selfinfo=rate, huffman_bits=rate + 1,
        wire_bits=wire, avg_codeword_len=2.5, mse=mse,
        bottleneck=mse * 1.5, acc_mean=acc, band_low=acc - 0.05,
        band_high=min(1.0, acc + 0.05), acc_std=0.02,
        symbol_error_rate=0.0 if alpha == 0 else 0.1, decode_failures=0)


GOLDEN_CURVES = {
    "dr": ("pipeline,m,rate_selfinfo,rate_cells,mse,bottleneck\n"
           "pd,5,25,50,0.75,1.125\n"
           "pd,8,40,80,0.25,0.375\n"
           "raw,5,120,240,1.5,2.25\n"
           "raw,8,180,360,0.5,0.75\n",
           "68cc9544dfbe46e1c287b823d1007cd846a69e7cf19ca7ad5fbdf760abcb0ced"),
    "ad": ("pipeline,m,mse,acc_mean,band_low,band_high,acc_std\n"
           "pd,8,0.25,0.9,0.85,0.95,0.02\n"
           "pd,5,0.75,0.8,0.75,0.85,0.02\n"
           "raw,8,0.5,0.85,0.8,0.9,0.02\n"
           "raw,5,1.5,0.7,0.65,0.75,0.02\n",
           "366a3cf46a8e56b4cfb95c6529d98c4e9f62fb38bb3227bfb9af48086eeb0177"),
    "ar": ("pipeline,m,rate_selfinfo,acc_mean,band_low,band_high,acc_std\n"
           "pd,5,25,0.8,0.75,0.85,0.02\n"
           "pd,8,40,0.9,0.85,0.95,0.02\n"
           "raw,5,120,0.7,0.65,0.75,0.02\n"
           "raw,8,180,0.85,0.8,0.9,0.02\n",
           "dbfa17cebbd0eb05653e780416e1316c85e77924750cb0b472a494138a4a2e89"),
    # equal wire_bits keep record order (m=8 before m=5)
    "ar-coded": ("pipeline,code,alpha,m,wire_bits,acc_mean,band_low,"
                 "band_high\n"
                 "pd,none,0.3,5,57,0.55,0.5,0.6\n"
                 "pd,none,0.3,8,72,0.6,0.55,0.65\n"
                 "raw,15:5:3,0.3,8,600,0.8,0.75,0.85\n"
                 "raw,15:5:3,0.3,5,600,0.65,0.6,0.7\n",
                 "170be1b0df2aef0a36d1142e84ab98f59bbd8b67de9cce96dd239b19"
                 "56a29160"),
}


def test_golden_curves(tmp_path):
    # 2 pipelines x 2 m, clean cells out of m order, noisy pd cells and
    # coded raw cells that tie on wire bits
    records = [
        _curve_record("pd", 8, 0.0, "none", 40.0, 0.25, 0.9, 72.0),
        _curve_record("pd", 5, 0.0, "none", 25.0, 0.75, 0.8, 57.0),
        _curve_record("raw", 5, 0.0, "none", 120.0, 1.5, 0.7, 152.0),
        _curve_record("raw", 8, 0.0, "none", 180.0, 0.5, 0.85, 212.0),
        _curve_record("pd", 8, 0.3, "none", 40.0, 0.25, 0.6, 72.0),
        _curve_record("pd", 5, 0.3, "none", 25.0, 0.75, 0.55, 57.0),
        _curve_record("raw", 8, 0.3, "15:5:3", 180.0, 0.5, 0.8, 600.0),
        _curve_record("raw", 5, 0.3, "15:5:3", 120.0, 1.5, 0.65, 600.0),
    ]
    for kind, (text, svg_sha) in GOLDEN_CURVES.items():
        csv_path, svg_path = emit_curves(records, kind, tmp_path)
        assert Path(csv_path).read_bytes().decode() == text, kind
        with open(svg_path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == svg_sha, kind


def test_failed_emit_curves_writes_nothing(small_sweep, tmp_path):
    _, records = small_sweep
    clean_only = [r for r in records if r.alpha == 0.0 and r.code == "none"]
    with pytest.raises(ValueError):
        emit_curves(clean_only, "ar-coded", tmp_path)
    assert not (tmp_path / "ar-coded.csv").exists()
    assert not (tmp_path / "ar-coded.svg").exists()


def test_emit_curves_validation(small_sweep, tmp_path):
    _, records = small_sweep
    with pytest.raises(ValueError):
        emit_curves(records, "zz", tmp_path / "x")
    with pytest.raises(ValueError):
        emit_curves([], "dr", tmp_path / "x")
