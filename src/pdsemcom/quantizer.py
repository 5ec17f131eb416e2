"""Uniform 2D vector quantization onto an m x m grid over a square box.

A coordinate x falls in bin floor(x / delta), clipped to m - 1, with
delta = box_side / m: cells are half-open [k*delta, (k+1)*delta) up to the
rounding of x / delta, and the final cell is closed, so the far edge of the
box stays inside. A coordinate computed as k * delta can round into bin
k - 1 (box 10, m 36, k 31: 31 * delta / delta is 30.999999999999996). The
binning and the digests pinned on it depend on this exact rule.
Cell indices are 1-based and row-major by (x-bin, y-bin): index k satisfies
k - 1 = x_bin * m + y_bin. This layout is fixed in the wire format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SOURCE_KINDS
from .errors import (CorruptSymbol, OutOfBox, ParseError, ShapeError, one_of,
                     read_table, write_table)
from .homology import PersistenceDiagram

# symbol channels per source kind: a diagram's two degrees, one otherwise
CHANNELS = {kind: 2 if kind == "pd" else 1 for kind in SOURCE_KINDS}
# a symbol stream file: a grid header and its one row, then a symbol table
STREAM_GRID_HEADER = ("box_side", "n_bins", "source_kind")
STREAM_SYMBOL_HEADER = ("object", "channel", "symbol")


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
        # NaN fails both comparisons
        if not (coords.min(initial=0.0) >= 0
                and coords.max(initial=0.0) <= self.box_side):
            bad = ~((coords >= 0) & (coords <= self.box_side))
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
        """(x bins, y bins) of 1-based indices; an index that is not a
        whole number in 1..n_cells -> CorruptSymbol."""
        idx = np.asarray(indices).ravel()
        # integers are whole, so their extremes decide; any other dtype is
        # checked element by element before the int cast, which would
        # truncate 16.5 to 16, and NaN fails every comparison
        if idx.dtype.kind not in "iu" or not (
                idx.min(initial=1) >= 1
                and idx.max(initial=1) <= self.n_cells):
            ok = (idx >= 1) & (idx <= self.n_cells) & (idx == np.trunc(idx))
            if not ok.all():
                raise CorruptSymbol(f"cell index {idx[~ok][0]} is not one "
                                    f"of 1..{self.n_cells}")
        return np.divmod(idx.astype(int) - 1, self.n_bins)

    def _center_coords(self, indices: np.ndarray) -> tuple:
        """(x, y) arrays of the cell centers of 1-based indices."""
        x_bin, y_bin = self.bins_of(indices)
        w = self.cell_width
        return (x_bin + 0.5) * w, (y_bin + 0.5) * w

    def centers_of(self, indices: np.ndarray) -> np.ndarray:
        """Cell centers for 1-based indices; invalid index -> CorruptSymbol."""
        return np.column_stack(self._center_coords(indices))


@dataclass(frozen=True, eq=False)
class QuantizedPointSet:
    """Multiset of cell indices for one object, split into channels.

    `channel_counts` partitions `indices` in order (for diagrams: degree-0
    symbols then degree-1 symbols).
    """

    indices: np.ndarray
    channel_counts: tuple = ()

    def __post_init__(self):
        idx = np.asarray(self.indices).ravel()
        # checked before the int cast, which would truncate 1.5 and wrap 1e30
        if idx.dtype.kind not in "iu" and not (
                (idx == np.trunc(idx)) & (np.abs(idx) < 2.0 ** 63)).all():
            raise CorruptSymbol("cell indices must be whole 64-bit numbers")
        idx = idx.astype(int, copy=False)
        if not self.channel_counts:
            object.__setattr__(self, "channel_counts", (len(idx),))
        if sum(self.channel_counts) != len(idx):
            raise ShapeError(
                f"channel counts {self.channel_counts} do not partition "
                f"{len(idx)} symbols"
            )
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def channel(self, c: int) -> np.ndarray:
        start = sum(self.channel_counts[:c])
        return self.indices[start:start + self.channel_counts[c]]


def _distinct(idx: np.ndarray) -> np.ndarray:
    """The bytes of `np.unique(idx)` by a sort and a neighbour compare: a
    plain `np.unique` call imports numpy.ma."""
    idx = np.sort(idx)
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]
    return idx[keep]


def quantize_set(grid: QuantizerGrid, points: np.ndarray, *,
                 collapse_duplicates: bool = False) -> QuantizedPointSet:
    """Quantize a point multiset; multiplicity kept unless collapsing."""
    idx = grid.quantize_points(points)
    return QuantizedPointSet(
        indices=_distinct(idx) if collapse_duplicates else idx)


def quantize_diagram(grid: QuantizerGrid, diagram: PersistenceDiagram, *,
                     collapse_duplicates: bool = False) -> QuantizedPointSet:
    """Quantize a diagram's (birth, death) points, degree 0 then degree 1,
    each degree in diagram order; collapsing applies to each degree."""
    idx = grid.quantize_points(diagram.points())
    parts = (idx[:diagram.n0], idx[diagram.n0:])
    if collapse_duplicates:
        parts = tuple(_distinct(p) for p in parts)
    return QuantizedPointSet(indices=np.concatenate(parts),
                             channel_counts=tuple(len(p) for p in parts))


def diagram_from_symbols(grid: QuantizerGrid, indices: np.ndarray,
                         channel_counts: tuple) -> PersistenceDiagram:
    """Rebuild a (possibly corrupted) diagram from decoded cell indices.

    Decoded cell centers can land below the diagonal; no class is flagged
    essential.
    """
    n = np.size(indices)
    if sum(channel_counts) != n:
        raise ShapeError(
            f"channel counts {channel_counts} do not partition {n} symbols"
        )
    births, deaths = grid._center_coords(indices)
    dims = np.repeat(np.arange(len(channel_counts)),
                     np.array(channel_counts, dtype=int))
    return PersistenceDiagram(births=births, deaths=deaths, dims=dims,
                              essential=np.zeros(n, dtype=bool))


def write_symbol_stream(path, grid: QuantizerGrid, source_kind: str,
                        objects: dict) -> None:
    """Persist {object id: symbols} under a (B, m, source_kind) header.

    Nothing is written that load_symbol_stream rejects: an unknown source
    kind, an object without symbols or with other than its kind's
    CHANNELS raise ValueError, an index off the grid CorruptSymbol.
    """
    if source_kind not in SOURCE_KINDS:
        raise ValueError(f"source kind must be one of {SOURCE_KINDS}, "
                         f"got {source_kind!r}")
    n_chan = CHANNELS[source_kind]
    objects = sorted(objects.items())
    for object_id, q in objects:
        if len(q) == 0:
            raise ValueError(f"object {object_id} has no symbols to write")
        if len(q.channel_counts) != n_chan:
            raise ValueError(f"object {object_id} has {len(q.channel_counts)}"
                             f" channels, a {source_kind} stream {n_chan}")
        grid.bins_of(q.indices)
    write_table(path, STREAM_GRID_HEADER, [
        (f"{grid.box_side:.9g}", grid.n_bins, source_kind),
        STREAM_SYMBOL_HEADER,
        *((object_id, c, int(k)) for object_id, q in objects
          for c in range(n_chan) for k in q.channel(c))])


def _symbol(grid: QuantizerGrid, text: str) -> int:
    """A cell index of `grid`; bins_of raises CorruptSymbol for any other."""
    k = int(text)
    grid.bins_of(k)
    return k


def load_symbol_stream(path):
    """Read a symbol stream file -> (grid, source_kind, {id: QuantizedPointSet}).

    Diagram cells below the diagonal are accepted: the file may hold a
    post-channel stream. Diagram streams have channels 0 and 1 (either may be
    empty), raw and latent streams channel 0 only.
    """
    with open(path, newline="") as fh:
        preamble = next(read_table(fh, STREAM_GRID_HEADER,
                                   (float, int, one_of(str.strip, SOURCE_KINDS,
                                                       "source kind"))), None)
        if preamble is None:
            raise ParseError("missing grid parameters", line_number=2)
        lineno, (box_side, n_bins, source_kind) = preamble
        try:
            grid = QuantizerGrid(box_side=box_side, n_bins=n_bins)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        n_chan = CHANNELS[source_kind]
        per_object: dict[int, list] = {}
        for _, (obj, chan, sym) in read_table(
                fh, STREAM_SYMBOL_HEADER,
                (int, one_of(int, tuple(range(n_chan)), "channel"),
                 lambda text: _symbol(grid, text)),
                first_line=lineno + 1):
            chans = per_object.setdefault(obj, [[] for _ in range(n_chan)])
            chans[chan].append(sym)
    return grid, source_kind, {
        obj: QuantizedPointSet(indices=np.array(sum(chans, []), dtype=int),
                               channel_counts=tuple(map(len, chans)))
        for obj, chans in sorted(per_object.items())}
