import csv
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdsemcom.config import (ExperimentConfig, load_config, parse_config,
                             write_config)
from pdsemcom.dataset import (MIN_SYNTH_POINTS, PointCloud, synth_dataset,
                              synth_loops, write_pointcloud_file)
from pdsemcom.errors import ParseError
from pdsemcom.harness import (COLUMNS, TradeoffRecord, emit_curves,
                              folds_path_for, read_results, run_sweep,
                              symbol_error_rate, _normalize_latents)
from pdsemcom.inference import CvSchedule
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

def test_config_text_round_trip(tmp_path):
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
    # a range longer than MAX_RANGE fails before it is expanded
    for key in ("m_values", "hidden"):
        with pytest.raises(ParseError, match="over 1000") as err:
            parse_config(f"per_class = 4\n{key} = 10..100000\n")
        assert err.value.line_number == 2
    assert parse_config("hidden = 1..1000\n").hidden == tuple(range(1, 1001))
    with pytest.raises(ParseError, match="over 1000"):
        parse_config("hidden = 1..1001\n")


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


@pytest.mark.parametrize("key", ["m_values", "alphas"])
def test_config_rejects_an_empty_axis(key):
    # either axis empty would give a sweep of no cells, whose results and
    # folds files hold only their heads
    with pytest.raises(ValueError, match=f"{key} must not be empty"):
        ExperimentConfig(**{key: ()})


def test_synth_point_count_fails_in_load_config(tmp_path):
    # one bound for the config and the shape sampler: a config the sampler
    # would reject fails when it is read, not at sweep set-up
    path = tmp_path / "cfg.txt"
    path.write_text(f"n_points = {MIN_SYNTH_POINTS - 1}\n")
    with pytest.raises(ParseError,
                       match=f"n_points must be at least {MIN_SYNTH_POINTS}"):
        load_config(path)
    with pytest.raises(ValueError,
                       match=f"n_points must be at least {MIN_SYNTH_POINTS}"):
        synth_loops(1, n_points=MIN_SYNTH_POINTS - 1, noise=0.0, seed=0)
    path.write_text(f"n_points = {MIN_SYNTH_POINTS}\n")
    assert load_config(path).n_points == MIN_SYNTH_POINTS
    assert synth_loops(1, n_points=MIN_SYNTH_POINTS, noise=0.0,
                       seed=0).n_points == MIN_SYNTH_POINTS


@pytest.mark.parametrize("key", ["noise", "gamma_max", "box_pd", "box_raw",
                                 "box_latent"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_values(key, value):
    with pytest.raises(ParseError):
        parse_config(f"{key} = {value}\n")


def test_config_rejects_repeated_codes():
    # two cells would share one key, and a resume would skip the second
    with pytest.raises(ParseError, match="duplicate codes"):
        parse_config("codes = 1023:123:170, 1023:123:170\n")
    assert parse_config("codes = 1023:123:170, 1023:113:172\n").codes == (
        (1023, 123, 170), (1023, 113, 172))


def test_config_rejects_repeated_keys():
    # the second line would silently win over the first
    with pytest.raises(ParseError, match="'epochs' repeats line 1") as err:
        parse_config("epochs = 100\n# comment\nepochs = 300\n")
    assert err.value.line_number == 3
    config = ExperimentConfig(codes=((1023, 123, 170),))
    assert parse_config(config.canonical_text(include_artifacts=True)) == config


@pytest.mark.parametrize("kwargs", [
    {"hidden": (1.5,)}, {"m_values": (10.7, 12)},
    {"codes": ((1023.9, 123.2, 170.5),)}, {"epochs": 2.5}, {"T": 1.9},
    {"per_class": 12.0}, {"n_points": "48"}, {"partition": 28.0},
    {"dataset_seed": 7.0}, {"cv_seed": None}, {"train_seed": 3.5},
    {"channel_seed": np.float64(11)}])
def test_config_integer_settings_must_be_integers(kwargs):
    # a fraction was truncated, or kept and then hashed as if truncated
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name}: .* is not an integer"):
        ExperimentConfig(**kwargs)


def test_config_integer_settings_accept_numpy_integers():
    config = ExperimentConfig(per_class=np.int64(12),
                              m_values=np.arange(10, 13),
                              hidden=(np.int32(8),),
                              codes=((np.int16(15), 5, 3),))
    assert config == ExperimentConfig(per_class=12, m_values=(10, 11, 12),
                                      hidden=(8,), codes=((15, 5, 3),))
    assert type(config.per_class) is int and type(config.m_values[0]) is int


@pytest.mark.parametrize("key", ["dataset_seed", "cv_seed", "train_seed",
                                 "channel_seed"])
def test_config_rejects_negative_seeds(key):
    with pytest.raises(ParseError, match=f"{key} must be at least 0"):
        parse_config(f"{key} = -1\n")
    assert getattr(parse_config(f"{key} = 0\n"), key) == 0


def test_seeds_come_only_from_the_config_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    config = ExperimentConfig(dataset_seed=5, cv_seed=6, train_seed=7,
                              channel_seed=8, out=str(tmp_path / "r.csv"))
    write_config(path, config)
    monkeypatch.setenv("PDSEMCOM_SEED", "99")
    assert load_config(path) == config


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


def test_record_row_round_trip(tmp_path):
    rec = TradeoffRecord(
        pipeline="pd", m=10, alpha=0.12, code="1023:123:170", status="ok",
        schedule="abc123", seed=11, entropy_bits=1.5, mean_symbols=6.25,
        rate_cells=82.5, rate_selfinfo=9.375, huffman_bits=11.0,
        wire_bits=1055.0, avg_codeword_len=1.76, mse=0.41, bottleneck=0.52,
        acc_mean=0.93, band_low=0.9, band_high=0.96, acc_std=0.02,
        symbol_error_rate=0.0, decode_failures=0)
    path = tmp_path / "r.csv"
    path.write_text("# config_hash=abc\n%s\n%s\n" % (
        ",".join(COLUMNS), ",".join(rec.to_row())))
    assert read_results(path) == ("abc", [rec])
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


def test_symbol_error_rate_counts_wrong_and_missing_symbols():
    sent = np.array([3, 1, 4, 1])
    assert symbol_error_rate(sent, sent) == 0.0
    # one wrong symbol, two never decoded
    assert symbol_error_rate(sent, np.array([3, 5])) == 0.75
    assert symbol_error_rate(sent, np.array([], dtype=int)) == 1.0
    # an object with no symbols has nothing to get wrong
    empty = np.array([], dtype=int)
    assert symbol_error_rate(empty, empty) == 0.0


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
    assert [r.to_row() for r in rows] == [r.to_row() for r in records]
    with open(folds_path_for(config.out)) as f:
        folds = list(csv.DictReader(f))
    assert len(folds) == len(records) * config.T


def test_small_sweep_files_are_pinned(small_sweep):
    # a single flipped prediction changes a fold accuracy and so a digest,
    # which a comparison of two runs cannot see
    config, _ = small_sweep
    assert hashlib.sha256(Path(config.out).read_bytes()).hexdigest() == (
        "21cedf2ffc39f6656a316f6d7799bed47b99cdd6c0486c1dc0c773680f42ec3f")
    folds = Path(folds_path_for(config.out)).read_bytes()
    assert hashlib.sha256(folds).hexdigest() == (
        "ffda48bac7e1df71fadc40078733b1f04b0ce55d9a2e7dc396dd07d13e08ac64")


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


def test_resume_without_folds_file_recomputes_cells(small_sweep, tmp_path):
    # fold rows are written after their results row, so results rows
    # without a folds file are cells that did not finish
    config, finished = small_sweep
    results = Path(config.out).read_bytes()
    folds = Path(folds_path_for(config.out)).read_bytes()
    out = tmp_path / "cut.csv"
    out.write_bytes(b"".join(results.splitlines(keepends=True)[:2 + 3]))
    records = run_sweep(ExperimentConfig(**{**config.__dict__,
                                            "out": str(out)}))
    assert len(records) == len(finished)
    assert out.read_bytes() == results
    assert Path(folds_path_for(str(out))).read_bytes() == folds


@pytest.mark.slow
def test_resume_after_a_kill_at_every_byte(tmp_path):
    # the sweep writes the results head, the folds head, then per cell its
    # results row and its T fold rows; a kill can stop that sequence after
    # any byte, and the resume must finish both files byte for byte
    config = _small_config(tmp_path / "full.csv", pipelines=("raw",),
                           m_values=(5,), alphas=(0.0, 0.3), codes=(),
                           epochs=5)
    run_sweep(config)
    full = (Path(config.out).read_bytes(),
            Path(folds_path_for(config.out)).read_bytes())
    rows, fold_rows = (data.splitlines(keepends=True) for data in full)
    writes = [(0, len(rows[0] + rows[1])), (1, len(fold_rows[0]))]
    for i, row in enumerate(rows[2:]):
        own = fold_rows[1 + config.T * i:1 + config.T * (i + 1)]
        writes += [(0, len(row)), (1, len(b"".join(own)))]
    out = tmp_path / "cut.csv"
    paths = (out, Path(folds_path_for(str(out))))
    resumed = ExperimentConfig(**{**config.__dict__, "out": str(out)})
    for offset in range(sum(n for _, n in writes) + 1):
        sizes, left = [0, 0], offset
        for f, n in writes:
            sizes[f] += min(n, left)
            left -= min(n, left)
        for path, data, size in zip(paths, full, sizes):
            path.write_bytes(data[:size])
        run_sweep(resumed)
        assert tuple(p.read_bytes() for p in paths) == full, offset


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
    # a resume appends rows in COLUMNS order, so a column line in any other
    # order is refused, not read by name
    swapped = lines[1].replace("mse,bottleneck", "bottleneck,mse")
    path.write_text("".join(lines[:1] + [swapped] + lines[2:]))
    with pytest.raises(ParseError) as err:
        read_results(path)
    assert err.value.line_number == 2


def test_each_stage_runs_once(tmp_path, monkeypatch):
    import pdsemcom.harness as harness
    calls = {}

    def counting(name):
        fn = getattr(harness, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapped)

    for name in ("vr_diagram", "train_classifier", "bch_generator",
                 "read_results"):
        counting(name)
    config = _small_config(tmp_path / "r.csv", epochs=5)
    run_sweep(config)  # a fresh sweep reads no results file
    assert calls == {"vr_diagram": 3 * config.per_class,
                     "train_classifier": len(config.pipelines) * config.T,
                     "bch_generator": len(config.codes)}
    calls.clear()
    run_sweep(config)  # nothing left to do: no stage is built
    assert calls == {"read_results": 1}


def test_finished_sweep_resumes_from_its_two_files(small_sweep, monkeypatch,
                                                  capsys):
    import pdsemcom.harness as harness
    config, records = small_sweep
    paths = (Path(config.out), Path(folds_path_for(config.out)))
    files = tuple(p.read_bytes() for p in paths)

    def no_stage_one(config):
        raise AssertionError("stage 1 built for a finished sweep")

    monkeypatch.setattr(harness, "_SweepContext", no_stage_one)
    again = run_sweep(config, progress=True)
    assert [r.to_row() for r in again] == [r.to_row() for r in records]
    assert tuple(p.read_bytes() for p in paths) == files
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(records)
    assert all(line.endswith("already done") for line in lines)


def test_partly_finished_sweep_builds_stage_one_once(small_sweep, tmp_path,
                                                     monkeypatch):
    import pdsemcom.harness as harness
    config, _ = small_sweep
    results = Path(config.out).read_bytes()
    folds = Path(folds_path_for(config.out)).read_bytes()
    out = tmp_path / "partial.csv"
    out.write_bytes(b"".join(results.splitlines(keepends=True)[:2 + 5]))
    built = []
    context = harness._SweepContext

    def counted(config):
        built.append(config)
        return context(config)

    monkeypatch.setattr(harness, "_SweepContext", counted)
    run_sweep(ExperimentConfig(**{**config.__dict__, "out": str(out)}))
    assert len(built) == 1
    assert out.read_bytes() == results
    assert Path(folds_path_for(str(out))).read_bytes() == folds


def _file_dataset_sweep(tmp_path):
    """A tiny raw sweep over a point-cloud file, run in full, and its files."""
    data = tmp_path / "clouds.csv"
    write_pointcloud_file(data, synth_dataset(per_class=6, n_points=16,
                                              noise=0.2, seed=7))
    config = _small_config(tmp_path / "r.csv", pipelines=("raw",),
                           dataset=str(data), m_values=(5,), codes=(),
                           epochs=5)
    records = run_sweep(config)
    return config, records, (Path(config.out).read_bytes(),
                             Path(folds_path_for(config.out)).read_bytes())


def test_finished_sweep_resumes_after_its_dataset_is_deleted(tmp_path):
    # the config hash binds only the dataset's path, and a finished sweep
    # reads no dataset
    config, records, files = _file_dataset_sweep(tmp_path)
    Path(config.dataset).unlink()
    again = run_sweep(config)
    assert [r.to_row() for r in again] == [r.to_row() for r in records]
    assert (Path(config.out).read_bytes(),
            Path(folds_path_for(config.out)).read_bytes()) == files


@pytest.mark.parametrize("damage", ["delete", "garble"])
def test_dataset_failure_leaves_the_files_as_they_were(tmp_path, damage):
    config, _, (results, folds) = _file_dataset_sweep(tmp_path)
    data = Path(config.dataset)
    if damage == "delete":
        data.unlink()
    else:
        data.write_text("object,x,y,label\n1,one,2,1\n")
    paths = (Path(config.out), Path(folds_path_for(config.out)))
    # a fresh sweep fails before it creates either file
    for p in paths:
        p.unlink()
    with pytest.raises((OSError, ParseError)):
        run_sweep(config)
    assert not any(p.exists() for p in paths)
    # a resume cut at a cell boundary fails without touching either file
    kept = (b"".join(results.splitlines(keepends=True)[:3]),
            b"".join(folds.splitlines(keepends=True)[:1 + config.T]))
    for p, data in zip(paths, kept):
        p.write_bytes(data)
    with pytest.raises((OSError, ParseError)):
        run_sweep(config)
    assert tuple(p.read_bytes() for p in paths) == kept


def test_no_sweep_imports_masked_arrays(tmp_path):
    # numpy 2 loads numpy.ma at the first plain np.unique call (10-18 ms);
    # the sweep path makes none, with duplicate cells collapsed or not, so
    # a sweep never pays for it
    script = (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    sys.exit(3)\n"
        "import pdsemcom\n"
        "from pdsemcom import ExperimentConfig, run_sweep\n"
        "run_sweep(ExperimentConfig(per_class=6, n_points=16, "
        "m_values=(5,), T=1, alphas=(0.0, 0.1), codes=((15, 5, 3),), "
        "epochs=3, hidden=(4,), collapse_duplicates=sys.argv[2] == 'on', "
        "out=sys.argv[1]))\n"
        "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    for collapse in ("off", "on"):
        proc = subprocess.run([sys.executable, "-c", script,
                               str(tmp_path / f"{collapse}.csv"), collapse],
                              capture_output=True, text=True, env=env)
        if proc.returncode == 3:
            pytest.skip("this numpy loads numpy.ma on import")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", collapse


def _pd_then_raw(tmp_path, name):
    """A tiny pd + raw sweep, run in full into `name`.csv, and its files."""
    config = _small_config(tmp_path / f"{name}.csv", alphas=(0.0,), codes=(),
                           epochs=5)
    run_sweep(config)
    return config, (Path(config.out).read_bytes(),
                    Path(folds_path_for(config.out)).read_bytes())


def test_each_pipeline_trains_at_its_first_pending_cell(tmp_path,
                                                        monkeypatch):
    import pdsemcom.harness as harness
    full, (results, folds) = _pd_then_raw(tmp_path, "full")
    config = ExperimentConfig(**{**full.__dict__,
                                 "out": str(tmp_path / "streamed.csv")})
    paths = (Path(config.out), Path(folds_path_for(config.out)))
    build = harness._build_pipeline
    on_disk = {}

    def watched(ctx, pipeline):
        on_disk[pipeline] = tuple(p.read_bytes() for p in paths)
        return build(ctx, pipeline)

    monkeypatch.setattr(harness, "_build_pipeline", watched)
    run_sweep(config)
    # when raw builds, the files hold their heads and every pd row
    pd_cells = len(config.m_values)
    pd_rows = results.splitlines(keepends=True)[:2 + pd_cells]
    pd_folds = folds.splitlines(keepends=True)[:1 + config.T * pd_cells]
    assert on_disk["raw"] == (b"".join(pd_rows), b"".join(pd_folds))
    assert tuple(p.read_bytes() for p in paths) == (results, folds)


def test_kill_while_a_later_pipeline_trains_keeps_earlier_rows(tmp_path,
                                                               monkeypatch):
    import pdsemcom.harness as harness
    full, (results, folds) = _pd_then_raw(tmp_path, "full")
    config = ExperimentConfig(**{**full.__dict__,
                                 "out": str(tmp_path / "killed.csv")})
    build = harness._build_pipeline

    def killed_at_raw(ctx, pipeline):
        if pipeline == "raw":
            raise KeyboardInterrupt
        return build(ctx, pipeline)

    monkeypatch.setattr(harness, "_build_pipeline", killed_at_raw)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(config)
    _, records = read_results(config.out)
    assert [r.pipeline for r in records] == ["pd"] * len(config.m_values)
    built = []

    def counted(ctx, pipeline):
        built.append(pipeline)
        return build(ctx, pipeline)

    monkeypatch.setattr(harness, "_build_pipeline", counted)
    run_sweep(config)
    assert built == ["raw"]
    assert Path(config.out).read_bytes() == results
    assert Path(folds_path_for(config.out)).read_bytes() == folds


def _sweepbench_module(name):
    path = Path(__file__).resolve().parents[1] / "sweepbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"sweepbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_still_resolve():
    # the sweep benchmark's tracer (sweepbench/spans.py) replaces these names
    # where the harness looks them up; a renamed or dropped one must fail
    # here and not only in a traced benchmark run
    targets = _sweepbench_module("spans")._targets()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), (
            f"{module.__name__}.{attr}")


def test_traced_sweep_covers_every_benchmark_layer(tmp_path):
    # the tracer's counters read call arguments (max_symbols by keyword,
    # for one), so a change in how the harness calls a traced name must
    # fail here and not only in a traced benchmark run
    spans = _sweepbench_module("spans")
    workloads = _sweepbench_module("workloads")
    config = _small_config(tmp_path / "r.csv", m_values=(10,),
                           alphas=(0.0, 0.12), codes=((1023, 123, 170),),
                           T=2, epochs=5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = tracer.run(run_sweep, config)
    finally:
        tracer.uninstall()
    assert records and all(r.status == "ok" for r in records)
    layers = tracer.layer_metrics(lambda t: t)
    for base in set().union(*workloads.COVERED.values()):
        assert layers[base + "_calls"] > 0, base
    # the benchmark pins these counters (sweepbench/expected.json), so a
    # refactor that calls a traced name more or less often fails here
    assert {k: v for k, v in layers.items()
            if not k.endswith("_s")} == TRACED_COUNTERS


# every exact counter of the traced sweep above
TRACED_COUNTERS = {
    "channel.bits": 56336, "channel.flips": 3343,
    "channel.transmit_calls": 56,
    "codec.bch_blocks": 52, "codec.bch_corrected_bits": 3154,
    "codec.bch_decode_calls": 52, "codec.bch_encode_calls": 52,
    "codec.bch_failure_share": 0.0, "codec.bch_failures": 0,
    "codec.bch_generator_calls": 1,
    "codec.huffman_bits": 1570, "codec.huffman_build_calls": 2,
    "codec.huffman_decode_calls": 104,
    "codec.huffman_decode_yield": 0.9895348837209302,
    "codec.huffman_encode_calls": 26,
    "dataset.load_calls": 1, "harness.read_results_calls": 0,
    "homology.diagrams": 18, "homology.filtration_calls": 18,
    "homology.h1_finite_pairs": 20,
    "homology.h1_yield": 0.0022028857803722875,
    "homology.reduction_calls": 18, "homology.simplices": 11449,
    "homology.triangles": 9079,
    "inference.classify_calls": 16, "inference.train_calls": 4,
    "inference.vectorize_calls": 140,
    "infotheory.density_calls": 2, "infotheory.distortion_calls": 4,
    "infotheory.rate_calls": 6,
    "quantizer.dequantize_calls": 52, "quantizer.quantize_calls": 26,
    "quantizer.symbols": 430,
    "trace.spans": 651,
}


def test_frame_capacity_fails_every_cell_of_its_group(tmp_path):
    # 8000 points spread over the box: at m=27 (about 9.5 Huffman bits a
    # symbol) the object's payload overflows the 16-bit length field of its
    # frame, at m=5 (about 4.6) it fits; the group is framed once, so every
    # cell of it, coded or not, fails the same way
    objects = synth_dataset(per_class=6, n_points=16, noise=0.2, seed=7)
    i = CvSchedule(n_objects=len(objects), T=2, seed=1).folds[0][1][0]
    points = np.random.default_rng(0).uniform(0, 28, size=(8000, 2))
    objects[i] = PointCloud(points=points, label=objects[i].label,
                            id=objects[i].id)
    data = tmp_path / "clouds.csv"
    write_pointcloud_file(data, objects)
    config = _small_config(tmp_path / "r.csv", pipelines=("raw",),
                           dataset=str(data), m_values=(5, 27),
                           alphas=(0.0,), epochs=5, cv_seed=1)
    records = run_sweep(config)
    assert {(r.m, r.code): r.status for r in records} == {
        (5, "none"): "ok", (5, "15:5:3"): "ok",
        (27, "none"): "error", (27, "15:5:3"): "error"}
    errors = {r.error for r in records if r.m == 27}
    assert len(errors) == 1
    assert errors.pop().startswith("CapacityExceeded: payload of ")


def test_empty_payloads_pass_both_paths(tmp_path):
    # three copies of one point: one essential H0 class, dropped, and no
    # finite pair, so the object's diagram and payload are empty; it is the
    # first test object of fold 0, so every cell sends it
    objects = synth_dataset(per_class=6, n_points=16, noise=0.2, seed=7)
    i = CvSchedule(n_objects=len(objects), T=2, seed=1).folds[0][1][0]
    one = objects[i]
    objects[i] = PointCloud(points=np.repeat(one.points[:1], 3, axis=0),
                            label=one.label, id=one.id)
    data = tmp_path / "clouds.csv"
    write_pointcloud_file(data, objects)
    config = _small_config(tmp_path / "r.csv", pipelines=("pd",),
                           dataset=str(data), drop_essential=True,
                           m_values=(8,), alphas=(0.0, 0.1), epochs=5,
                           cv_seed=1)
    records = run_sweep(config)
    assert [r.status for r in records] == ["ok"] * 4
    rows = Path(config.out).read_bytes().split(b"\n", 2)[2]
    # the head holds the config hash, which depends on the data file's path
    assert hashlib.sha256(rows).hexdigest() == (
        "1ad7a031f0df420e0a47be50eef7cb00d407c19b0dd1ba915a037ea6e45cb0a4")


def test_one_cell_density_has_zero_rate(tmp_path):
    # a single point has one diagram point, the essential H0 class at
    # (0, gamma_max), so the pooled density sits in one cell; its cell
    # probability sums a few ulps above 1, which must not fail the group
    objects = [PointCloud(points=np.array([[1.0 + i, 2.0]]), label=1 + i % 3,
                          id=i + 1) for i in range(12)]
    data = tmp_path / "clouds.csv"
    write_pointcloud_file(data, objects)
    config = _small_config(tmp_path / "r.csv", pipelines=("pd",),
                           dataset=str(data), m_values=(2, 3), alphas=(0.0,),
                           codes=(), epochs=5, hidden=(8,), cv_seed=0)
    records = run_sweep(config)
    assert [(r.m, r.status) for r in records] == [(2, "ok"), (3, "ok")]
    assert all(r.entropy_bits == 0.0 and r.rate_selfinfo == 0.0
               for r in records)


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


def _latent_sweep(tmp_path, offset):
    # class-coded latent point sets, same CSV layout as diagram files,
    # written with csv's default CRLF line ends; coordinates are multiples
    # of 1/64, so that shifting them by `offset` is exact
    rng = np.random.default_rng(3)
    latent = tmp_path / f"latents{offset}.csv"
    with open(latent, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["object", "dim", "birth", "death"])
        for oid in range(1, 19):
            cls = (oid - 1) // 6  # matches the synth blocked layout
            base = np.array([[1.0 + 3.0 * cls, 2.0], [5.0, 1.0 + 2.0 * cls],
                             [2.0, 6.0], [6.5, 7.5]])
            pts = np.round(64 * (base + rng.normal(0, 0.05, base.shape))) / 64
            for x, y in pts + offset:
                w.writerow([oid, 0, f"{x:.9g}", f"{y:.9g}"])
    config = _small_config(tmp_path / f"r{offset}.csv", pipelines=("latent",),
                           latent_file=str(latent), m_values=(6,),
                           alphas=(0.0,), codes=(), epochs=1200)
    return run_sweep(config)


@pytest.fixture(scope="module")
def latent_records(tmp_path_factory):
    return _latent_sweep(tmp_path_factory.mktemp("latent"), 0)


@pytest.mark.parametrize("offset", [0, -10])
def test_latent_pipeline_end_to_end(latent_records, tmp_path, offset):
    # the sets are normalized into the box, so a shift of every coordinate,
    # negative ones included, changes no record
    records = _latent_sweep(tmp_path, offset)
    assert len(records) == 1 and records[0].status == "ok"
    assert records[0].acc_mean > 0.5
    assert records == latent_records


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_latent_file_rejects_non_finite_coordinates(tmp_path, value):
    latent = tmp_path / "latents.csv"
    latent.write_text(f"object,dim,birth,death\n1,0,-1,2\n2,0,{value},1\n")
    config = _small_config(tmp_path / "r.csv", pipelines=("latent",),
                           latent_file=str(latent), m_values=(6,),
                           alphas=(0.0,), codes=())
    [record] = run_sweep(config)
    assert record.error == (
        f"ParseError: line 3: coordinate must be finite, got '{value}'")


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


def test_curves_with_a_zero_rate_use_a_linear_axis(tmp_path):
    # a zero rate has no logarithm: the rate charts, and the coded chart
    # whose reference line sits at that rate, fall back to a linear x axis
    records = [
        _curve_record("pd", 5, 0.0, "none", 0.0, 0.75, 0.8, 57.0),
        _curve_record("pd", 8, 0.0, "none", 40.0, 0.25, 0.9, 72.0),
        _curve_record("pd", 5, 0.3, "none", 0.0, 0.75, 0.55, 57.0),
    ]
    for kind in ("dr", "ar", "ar-coded"):
        _, svg_path = emit_curves(records, kind, tmp_path)
        # the first x tick, below the axis box, reads 0
        assert ('y="410" text-anchor="middle" font-family="sans-serif" '
                'font-size="11">0</text>') in Path(svg_path).read_text(), kind


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
