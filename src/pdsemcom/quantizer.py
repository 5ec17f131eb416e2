"""Uniform 2D vector quantization onto an m x m grid over a square box.

Cells are half-open [k*delta, (k+1)*delta) with the final cell closed, so the
box is partitioned exactly and boundary ties resolve to the higher cell.
Cell indices are 1-based and row-major by (x-bin, y-bin): index k satisfies
k - 1 = x_bin * m + y_bin. This layout is fixed in the wire format.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (CorruptSymbol, OutOfBox, ParseError, ShapeError, one_of,
                     read_table)
from .homology import PersistenceDiagram

SOURCE_KINDS = ("pd", "raw", "latent")


def upper_triangle_cells(m: int) -> int:
    """Cells meeting the open halfplane b < d: x_bin <= y_bin."""
    return m * (m + 1) // 2


@dataclass(frozen=True)
class QuantizerGrid:
    """m x m congruent square cells partitioning [0, box_side]^2."""

    box_side: float
    n_bins: int

    def __post_init__(self):
        if not 0 < self.box_side < np.inf:
            raise ValueError(
                f"box side must be positive and finite, got {self.box_side}")
        if self.n_bins < 1:
            raise ValueError(f"need at least 1 bin per dim, got {self.n_bins}")

    @property
    def cell_width(self) -> float:
        return self.box_side / self.n_bins

    @property
    def n_cells(self) -> int:
        return self.n_bins * self.n_bins

    def _bins(self, coords: np.ndarray) -> np.ndarray:
        bad = ~((coords >= 0) & (coords <= self.box_side))
        if np.any(bad):
            raise OutOfBox(
                f"coordinate {coords[bad][0]} outside [0, {self.box_side}]")
        bins = np.floor(coords / self.cell_width).astype(int)
        # closed final cell: points on the far boundary stay in bin m-1
        return np.minimum(bins, self.n_bins - 1)

    def quantize_points(self, points: np.ndarray) -> np.ndarray:
        """1-based cell indices for an (n, 2) array of in-box points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        bins = self._bins(pts)
        return bins[:, 0] * self.n_bins + bins[:, 1] + 1

    def bins_of(self, indices: np.ndarray) -> tuple:
        """(x bins, y bins) of 1-based indices; invalid index -> CorruptSymbol."""
        idx = np.asarray(indices, dtype=int).ravel()
        bad = (idx < 1) | (idx > self.n_cells)
        if np.any(bad):
            raise CorruptSymbol(
                f"cell index {idx[bad][0]} outside 1..{self.n_cells}"
            )
        return (idx - 1) // self.n_bins, (idx - 1) % self.n_bins

    def centers_of(self, indices: np.ndarray) -> np.ndarray:
        """Cell centers for 1-based indices; invalid index -> CorruptSymbol."""
        x_bin, y_bin = self.bins_of(indices)
        w = self.cell_width
        return np.column_stack([(x_bin + 0.5) * w, (y_bin + 0.5) * w])


@dataclass(frozen=True)
class QuantizedPointSet:
    """Multiset of cell indices for one object, split into channels.

    `channel_counts` partitions `indices` in order (for diagrams: degree-0
    symbols then degree-1 symbols). Halfplane membership (x_bin <= y_bin) is
    enforced for clean diagram sources; symbol streams rebuilt after a noisy
    channel set check_halfplane=False.
    """

    indices: np.ndarray
    grid: QuantizerGrid
    source_kind: str
    channel_counts: tuple = ()
    check_halfplane: bool = field(default=True, repr=False)

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(f"source_kind must be one of {SOURCE_KINDS}")
        idx = np.asarray(self.indices, dtype=int).ravel()
        x_bin, y_bin = self.grid.bins_of(idx)
        if not self.channel_counts:
            object.__setattr__(self, "channel_counts", (len(idx),))
        if sum(self.channel_counts) != len(idx):
            raise ShapeError(
                f"channel counts {self.channel_counts} do not partition "
                f"{len(idx)} symbols"
            )
        if (self.source_kind == "pd" and self.check_halfplane
                and np.any(x_bin > y_bin)):
            raise ValueError(
                f"cell {idx[x_bin > y_bin][0]} lies strictly below the "
                "diagonal; not reachable from birth <= death input")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def channel(self, c: int) -> np.ndarray:
        start = sum(self.channel_counts[:c])
        return self.indices[start:start + self.channel_counts[c]]


def _cells(grid: QuantizerGrid, points, collapse_duplicates: bool):
    idx = grid.quantize_points(points)
    return np.unique(idx) if collapse_duplicates else idx


def quantize_set(grid: QuantizerGrid, points: np.ndarray, source_kind: str,
                 collapse_duplicates: bool = False) -> QuantizedPointSet:
    """Quantize a point multiset; multiplicity kept unless collapsing."""
    return QuantizedPointSet(indices=_cells(grid, points, collapse_duplicates),
                             grid=grid, source_kind=source_kind)


def quantize_diagram(grid: QuantizerGrid, diagram: PersistenceDiagram,
                     collapse_duplicates: bool = False) -> QuantizedPointSet:
    """Quantize a diagram's (birth, death) points, degree 0 then degree 1."""
    parts = [_cells(grid, diagram.points(dim), collapse_duplicates)
             for dim in (0, 1)]
    return QuantizedPointSet(
        indices=np.concatenate(parts), grid=grid, source_kind="pd",
        channel_counts=tuple(len(p) for p in parts),
        check_halfplane=diagram.halfplane,
    )


def diagram_from_symbols(grid: QuantizerGrid, indices: np.ndarray,
                         channel_counts: tuple,
                         gamma_max: float | None = None) -> PersistenceDiagram:
    """Rebuild a (possibly corrupted) diagram from decoded cell indices."""
    idx = np.asarray(indices, dtype=int).ravel()
    if sum(channel_counts) != len(idx):
        raise ShapeError(
            f"channel counts {channel_counts} do not partition {len(idx)} symbols"
        )
    centers = grid.centers_of(idx)
    dims = np.repeat(np.arange(len(channel_counts)),
                     np.array(channel_counts, dtype=int))
    return PersistenceDiagram.from_received(
        births=centers[:, 0], deaths=centers[:, 1], dims=dims,
        gamma_max=gamma_max,
    )


def write_symbol_stream(path, grid: QuantizerGrid, source_kind: str,
                        objects) -> None:
    """Persist per-object symbol records under a (B, m, source_kind) header.

    The format has one row per symbol, so an object without symbols cannot
    be written and raises ValueError.
    """
    objects = (sorted(objects.items()) if isinstance(objects, dict)
               else list(objects))
    for object_id, q in objects:
        if len(q) == 0:
            raise ValueError(f"object {object_id} has no symbols to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["box_side", "n_bins", "source_kind"])
        writer.writerow([f"{grid.box_side:.9g}", grid.n_bins, source_kind])
        writer.writerow(["object", "channel", "symbol"])
        for object_id, q in objects:
            for c in range(len(q.channel_counts)):
                for k in q.channel(c):
                    writer.writerow([object_id, c, int(k)])


def _symbol(grid: QuantizerGrid, text: str) -> int:
    """A cell index of `grid`; bins_of raises CorruptSymbol for any other."""
    k = int(text)
    grid.bins_of(k)
    return k


def load_symbol_stream(path):
    """Read a symbol stream file -> (grid, source_kind, {id: QuantizedPointSet}).

    Indices are accepted as-is (no halfplane check): the file may hold a
    post-channel stream. Diagram streams have channels 0 and 1 (either may be
    empty), raw and latent streams channel 0 only.
    """
    with open(path, newline="") as fh:
        preamble = next(read_table(fh, ("box_side", "n_bins", "source_kind"),
                                   (float, int, one_of(str.strip, SOURCE_KINDS,
                                                       "source kind"))), None)
        if preamble is None:
            raise ParseError("missing grid parameters", line_number=2)
        lineno, (box_side, n_bins, source_kind) = preamble
        try:
            grid = QuantizerGrid(box_side=box_side, n_bins=n_bins)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        n_chan = 2 if source_kind == "pd" else 1
        per_object: dict[int, list] = {}
        for _, (obj, chan, sym) in read_table(
                fh, ("object", "channel", "symbol"),
                (int, one_of(int, tuple(range(n_chan)), "channel"),
                 lambda text: _symbol(grid, text)),
                first_line=lineno + 1):
            chans = per_object.setdefault(obj, [[] for _ in range(n_chan)])
            chans[chan].append(sym)
    out = {}
    for obj in sorted(per_object):
        parts = [np.array(c, dtype=int) for c in per_object[obj]]
        out[obj] = QuantizedPointSet(
            indices=np.concatenate(parts), grid=grid, source_kind=source_kind,
            channel_counts=tuple(len(p) for p in parts),
            check_halfplane=False,
        )
    return grid, source_kind, out
