from pathlib import Path

import numpy as np
import pytest

from pdsemcom.cli import main
from pdsemcom.dataset import load_pointcloud_file
from pdsemcom.harness import ExperimentConfig, read_results, write_config
from pdsemcom.homology import load_pd_file


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PDSEMCOM_SEED", raising=False)


def _bits(path):
    return [c for c in Path(path).read_text() if c in "01"]


def test_dataset_synth_and_pd_compute(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    rc = main(["dataset", "synth", "--per-class", "3", "--n-points", "12",
               "--seed", "5", "--out", str(cloud)])
    assert rc == 0
    assert "wrote 9 objects" in capsys.readouterr().out
    ds = load_pointcloud_file(cloud)
    assert len(ds.objects) == 9

    pd_path = tmp_path / "pd.csv"
    rc = main(["pd", "compute", "--in", str(cloud), "--out", str(pd_path)])
    assert rc == 0
    entries = load_pd_file(pd_path)
    assert sorted(entries) == [o.id for o in ds.objects]
    assert all(len(d.births) > 0 for d in entries.values())
    assert not any(d.essential.any() for d in entries.values())


def test_dataset_synth_rejects_other_class_counts(tmp_path, capsys):
    rc = main(["dataset", "synth", "--classes", "4",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "3-class" in capsys.readouterr().err


def test_dataset_from_grid(tmp_path, capsys):
    grids = np.zeros((2, 8, 8))
    grids[0, 2, 3] = 1.0
    grids[0, 5, 5] = 0.9
    grids[1, 1, 1] = 0.8
    npz = tmp_path / "grids.npz"
    np.savez(npz, grids=grids, labels=np.array([1, 2]))
    out = tmp_path / "cloud.csv"
    rc = main(["dataset", "from-grid", "--in", str(npz),
               "--threshold", "0.75", "--out", str(out)])
    assert rc == 0
    ds = load_pointcloud_file(out)
    assert [len(o.points) for o in ds.objects] == [2, 1]
    assert [o.label for o in ds.objects] == [1, 2]


def test_code_huffman_table(capsys):
    rc = main(["code", "huffman", "--probs", "0.5,0.25,0.125,0.125"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1\t0" in out and "4\t111" in out
    assert "entropy   1.750000" in out
    assert "avg length 1.750000" in out


def test_bch_encode_corrupt_decode(tmp_path, capsys):
    msg = tmp_path / "msg.bits"
    msg.write_text("10110\n")
    enc = tmp_path / "enc.bits"
    rc = main(["code", "bch", "encode", "--n", "15", "--k", "5", "--t", "3",
               "--in", str(msg), "--out", str(enc)])
    assert rc == 0
    word = _bits(enc)
    assert len(word) == 15
    assert word[10:] == list("10110")  # systematic bits fill the tail

    # flip three bits, the full correction capability
    corrupted = word[:]
    for i in (0, 6, 14):
        corrupted[i] = "1" if corrupted[i] == "0" else "0"
    bad = tmp_path / "bad.bits"
    bad.write_text("".join(corrupted) + "\n")
    dec = tmp_path / "dec.bits"
    rc = main(["code", "bch", "decode", "--n", "15", "--k", "5", "--t", "3",
               "--in", str(bad), "--out", str(dec)])
    assert rc == 0
    assert "0 failure(s)" in capsys.readouterr().out
    assert _bits(dec) == list("10110")


def test_code_huffman_rejects_nan(capsys):
    rc = main(["code", "huffman", "--probs", "nan,1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("action", ["encode", "decode"])
def test_bch_cli_passes_zero_blocks(tmp_path, capsys, action):
    empty = tmp_path / "empty.bits"
    empty.write_text("")
    out = tmp_path / "out.bits"
    rc = main(["code", "bch", action, "--n", "15", "--k", "5", "--t", "3",
               "--in", str(empty), "--out", str(out)])
    assert rc == 0
    assert "0 block(s)" in capsys.readouterr().out
    assert _bits(out) == []


@pytest.mark.parametrize("action", ["encode", "decode"])
def test_bch_cli_rejects_non_binary_words(tmp_path, capsys, action):
    word = tmp_path / "word.bits"
    word.write_text("2" * 15 + "\n")
    rc = main(["code", "bch", action, "--n", "15", "--k", "5", "--t", "3",
               "--in", str(word), "--out", str(tmp_path / "out.bits")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.bits").exists()


def test_bch_cli_validation(tmp_path, capsys):
    msg = tmp_path / "m.bits"
    msg.write_text("1111\n")
    # wrong k for the designed t
    rc = main(["code", "bch", "encode", "--n", "15", "--k", "6", "--t", "2",
               "--in", str(msg), "--out", str(tmp_path / "o.bits")])
    assert rc == 2
    assert "construction" in capsys.readouterr().err
    # (n, k) not in the packaged table and no --t given
    rc = main(["code", "bch", "encode", "--n", "15", "--k", "5",
               "--in", str(msg), "--out", str(tmp_path / "o.bits")])
    assert rc == 1
    assert "pass --t" in capsys.readouterr().err
    # decode input must be whole blocks
    rc = main(["code", "bch", "decode", "--n", "15", "--k", "5", "--t", "3",
               "--in", str(msg), "--out", str(tmp_path / "o.bits")])
    assert rc == 2


def test_channel_bsc_cli(tmp_path):
    src = tmp_path / "src.bits"
    src.write_text("0110100101\n")
    out = tmp_path / "out.bits"
    assert main(["channel", "bsc", "--alpha", "0.0",
                 "--in", str(src), "--out", str(out)]) == 0
    assert _bits(out) == _bits(src)
    # a non-binary character is a clean error, not a traceback
    src.write_text("0102\n")
    assert main(["channel", "bsc", "--alpha", "0.1",
                 "--in", str(src), "--out", str(out)]) == 1


def test_missing_input_is_exit_1(tmp_path, capsys):
    rc = main(["pd", "compute", "--in", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unexpected_failure_is_exit_1(tmp_path, capsys):
    # a truncated zip raises zipfile.BadZipFile inside numpy
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"PK\x03\x04garbage")
    rc = main(["dataset", "from-grid", "--in", str(bad),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_run_and_curves(tmp_path, capsys):
    out = tmp_path / "results.csv"
    config = ExperimentConfig(pipelines=("raw",), per_class=6, n_points=16,
                              m_values=(5,), T=2, epochs=20, hidden=(8,),
                              out=str(out))
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, config)
    rc = main(["sweep", "run", "--config", str(cfg_path), "--quiet"])
    assert rc == 0
    assert "1 cells" in capsys.readouterr().out
    _, records = read_results(out)
    assert len(records) == 1 and records[0].status == "ok"

    rc = main(["sweep", "curves", "--kind", "dr", "--in", str(out),
               "--out-dir", str(tmp_path / "curves")])
    assert rc == 0
    assert (tmp_path / "curves" / "dr.svg").exists()
    assert (tmp_path / "curves" / "dr.csv").exists()
    # no noisy or coded cells: the coded chart has nothing to draw
    rc = main(["sweep", "curves", "--kind", "ar-coded", "--in", str(out),
               "--out-dir", str(tmp_path / "curves2")])
    assert rc == 1
