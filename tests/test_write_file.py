"""Every one-shot output file is written whole or not at all: a writer that
fails midway leaves an earlier file at its path byte-identical and no
temporary file beside it."""

import errno
from pathlib import Path

import numpy as np
import pytest

import pdsemcom.errors as errors
from pdsemcom.cli import _write_bits
from pdsemcom.config import ExperimentConfig, write_config
from pdsemcom.dataset import synth_dataset, write_pointcloud_file
from pdsemcom.errors import write_file
from pdsemcom.harness import TradeoffRecord, emit_curves
from pdsemcom.homology import vr_diagram, write_pd_file
from pdsemcom.inference import Classifier, save_checkpoint
from pdsemcom.quantizer import QuantizerGrid, quantize_set, write_symbol_stream

CLOUDS = synth_dataset(per_class=1, n_points=12, noise=0.1, seed=3)


def _record(m, alpha):
    return TradeoffRecord(
        pipeline="pd", m=m, alpha=alpha, code="none", status="ok",
        schedule="s1", seed=11, entropy_bits=2.0, mean_symbols=10.0,
        rate_cells=40.0, rate_selfinfo=20.0 + m, huffman_bits=21.0,
        wire_bits=72.0, avg_codeword_len=2.5, mse=0.5 / m, bottleneck=0.75,
        acc_mean=0.8, band_low=0.75, band_high=0.85, acc_std=0.02,
        symbol_error_rate=0.0, decode_failures=0)


def _write_stream(path):
    grid = QuantizerGrid(box_side=28.0, n_bins=8)
    write_symbol_stream(path, grid, "raw", {
        c.id: quantize_set(grid, c.points) for c in CLOUDS})


# (output file name, a call that writes it into a directory)
WRITERS = {
    "point clouds": ("clouds.csv", lambda d: write_pointcloud_file(
        d / "clouds.csv", CLOUDS)),
    "diagrams": ("pd.csv", lambda d: write_pd_file(d / "pd.csv", {
        c.id: vr_diagram(c.points, gamma_max=8.0) for c in CLOUDS})),
    "symbol stream": ("stream.csv", lambda d: _write_stream(d / "stream.csv")),
    "config": ("sweep.cfg", lambda d: write_config(
        d / "sweep.cfg", ExperimentConfig(epochs=7))),
    "bits": ("bits.txt", lambda d: _write_bits(
        d / "bits.txt", np.array([1, 0, 1, 1], dtype=np.uint8))),
    "checkpoint": ("net.bin", lambda d: save_checkpoint(
        d / "net.bin", Classifier((4, 3, 3), seed=1))),
    "curve table": ("dr.csv", lambda d: emit_curves(
        [_record(5, 0.0), _record(8, 0.0)], "dr", d)),
    "curve chart": ("dr.svg", lambda d: emit_curves(
        [_record(5, 0.0), _record(8, 0.0)], "dr", d)),
}


# files written as a pair: a failed write of either leaves both as they were
PAIRED = {"dr.csv": "dr.svg", "dr.svg": "dr.csv"}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_writer_that_fails_midway_leaves_the_old_file(writer, tmp_path,
                                                        monkeypatch):
    name, write = WRITERS[writer]
    names = [name, *([PAIRED[name]] if name in PAIRED else [])]
    write(tmp_path)
    written = {n: (tmp_path / n).read_bytes() for n in names}
    assert all(written.values())
    old = b"an earlier file\n"
    for n in names:
        (tmp_path / n).write_bytes(old)
    before = sorted(p.name for p in tmp_path.iterdir())

    class Full:
        """Takes half of what it is given, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open

    # write_file is the one caller of open in errors; the temporary file's
    # name starts with its target's, so only that target's write fails
    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return Full(fh) if Path(path).name.startswith(name) else fh

    monkeypatch.setattr(errors, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path)
    monkeypatch.undo()
    for n in names:
        assert (tmp_path / n).read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    # and the same call, unhindered, writes what it wrote before
    write(tmp_path)
    for n in names:
        assert (tmp_path / n).read_bytes() == written[n]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_write_file_replaces_whole_and_cleans_up(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    write_file(path, b"first")
    write_file(str(path), b"second, longer")
    assert path.read_bytes() == b"second, longer"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    # a failed rename, after the data is written, also leaves no trace
    def no_replace(src, dst):
        raise OSError(errno.EXDEV, "cross-device link")

    monkeypatch.setattr(errors.os, "replace", no_replace)
    with pytest.raises(OSError, match="cross-device"):
        write_file(path, b"third")
    monkeypatch.undo()
    assert path.read_bytes() == b"second, longer"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    # a directory in the way is an error, not a partial file
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        write_file(tmp_path / "dir", b"x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.bin"]
