"""Density estimation, quantizer entropy, semantic rates, and distortions.

The density lives on a fixed partition of the source box, a QuantizerGrid
(default 28x28) independent of the quantizer resolution m. Cell
probabilities and the MSE distortion integrate the piecewise-constant
density exactly against the quantizer grid via 1D overlap weights, so no
Monte-Carlo noise enters the trade-off curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_PARTITION, SOURCE_KINDS
from .errors import EmptyDensity, ShapeError, probability_vector
from .quantizer import QuantizerGrid, upper_triangle_cells


@dataclass(frozen=True, eq=False)
class EmpiricalDensity:
    """Rescaled histogram over the cells of `grid`.

    `mass[a, b]` is the probability mass of the cell with x-bin a and y-bin
    b; masses sum to 1, so the piecewise-constant density mass/cell_area
    integrates to 1 over the box.
    """

    grid: QuantizerGrid
    mass: np.ndarray

    def __post_init__(self):
        n = self.grid.n_bins
        m = np.array(self.mass, dtype=float)
        if m.shape != (n, n):
            raise ShapeError(f"mass must be {n}x{n}, got {m.shape}")
        probability_vector(m.ravel(), tol=1e-12)
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)


def estimate_density(point_sets, box_side: float,
                     partition: int = DEFAULT_PARTITION) -> EmpiricalDensity:
    """Histogram a collection of 2D point multisets and rescale to mass 1."""
    grid = QuantizerGrid(box_side=box_side, n_bins=partition)
    cells = [grid.quantize_points(pts) for pts in point_sets]
    total = sum(len(k) for k in cells)
    if total == 0:
        raise EmptyDensity("no points to estimate a density from")
    counts = np.bincount(np.concatenate(cells) - 1, minlength=grid.n_cells)
    return EmpiricalDensity(grid, counts.reshape(partition, partition) / total)


def _overlap_bounds(part: QuantizerGrid, grid: QuantizerGrid) -> tuple:
    """(lo, hi)[a, i]: the ends of partition cell a intersect quantizer bin i
    on one axis; the intersection is empty where hi <= lo."""
    if abs(part.box_side - grid.box_side) > 1e-12:
        raise ShapeError(
            f"density box {part.box_side} differs from grid box {grid.box_side}"
        )
    w = part.cell_width
    d = grid.cell_width
    a = np.arange(part.n_bins)
    i = np.arange(grid.n_bins)
    lo = np.maximum(a[:, None] * w, i[None, :] * d)
    hi = np.minimum((a[:, None] + 1) * w, (i[None, :] + 1) * d)
    return lo, hi


def cell_probabilities(density: EmpiricalDensity, grid: QuantizerGrid) -> np.ndarray:
    """Integral of the density over each quantizer cell, k-ordered (length m^2)."""
    # W[a, i] = |partition cell a  intersect  quantizer bin i| / cell width
    lo, hi = _overlap_bounds(density.grid, grid)
    W = np.clip(hi - lo, 0.0, None) / density.grid.cell_width
    p = W.T @ density.mass @ W
    return p.ravel()


def quantizer_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits, with 0 * log 0 = 0."""
    p = probability_vector(p)
    nz = p[p > 0]
    # a vector that sums a few ulps above 1 can hold an entry above 1, whose
    # log would make the entropy negative; 0.0 - x rather than -x: a
    # one-symbol distribution has entropy 0.0, not -0.0
    return float(0.0 - np.sum(nz * np.log2(np.minimum(nz, 1.0))))


@dataclass(frozen=True)
class RateReport:
    """Both rate notions for one (source kind, m) cell.

    `M` is the admissible cell count: the upper triangle for diagrams, m^2
    otherwise. `rate_bits_per_object` is M x entropy; the self-information
    variant is mean symbols per object x entropy, which equals the average
    per-object -sum log2 p over its symbols when the density was estimated
    from those same symbols.
    """

    source_kind: str
    m: int
    entropy_bits_per_symbol: float
    mean_symbols_per_object: float
    M: int = field(init=False)
    rate_bits_per_object: float = field(init=False)
    self_information_bits_per_object: float = field(init=False)

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.source_kind!r}")
        M = (upper_triangle_cells(self.m) if self.source_kind == "pd"
             else self.m * self.m)
        h = self.entropy_bits_per_symbol
        if h < 0:
            raise ValueError("entropy must be nonnegative")
        if M >= 1 and h > np.log2(M) + 1e-9:
            raise ValueError(f"entropy {h} exceeds log2({M})")
        for name, value in (("M", M), ("rate_bits_per_object", M * h),
                            ("self_information_bits_per_object",
                             self.mean_symbols_per_object * h)):
            object.__setattr__(self, name, value)


def semantic_rate(entropy: float, source_kind: str, m: int,
                  mean_symbols: float) -> RateReport:
    """Rate per object: upper-triangle cell count for diagrams, m^2 otherwise."""
    return RateReport(source_kind, m, float(entropy), float(mean_symbols))


def mse_distortion(density: EmpiricalDensity, grid: QuantizerGrid) -> float:
    """Expected squared Euclidean quantization error under the density.

    The 2D integral factorizes per axis: with A[a] the integral of
    (x - nearest center)^2 across partition cell a, the distortion is
    (1/w) * sum_ab mass[a,b] * (A[a] + A[b]). A uniform density gives
    exactly cell_width^2 / 6 for any m.
    """
    lo, hi = _overlap_bounds(density.grid, grid)
    centers = (np.arange(grid.n_bins) + 0.5) * grid.cell_width
    t_hi = np.clip(hi, lo, None) - centers[None, :]
    t_lo = lo - centers[None, :]
    seg = np.where(hi > lo, (t_hi ** 3 - t_lo ** 3) / 3.0, 0.0)
    A = np.sum(seg, axis=1)
    return float(np.sum(density.mass * (A[:, None] + A[None, :]))
                 / density.grid.cell_width)


def bottleneck_style_distortion(point_sets, grid: QuantizerGrid) -> float:
    """Mean over objects of the worst per-point ∞-norm quantization shift.

    One pass over the concatenated points: each point's shift, then each
    object's maximum over its segment; an empty object scores 0.
    """
    sets = [np.asarray(pts, dtype=float).reshape(-1, 2) for pts in point_sets]
    if not sets:
        raise EmptyDensity("no objects given")
    pts = np.concatenate(sets)
    shift = np.max(np.abs(pts - grid.centers_of(grid.quantize_points(pts))),
                   axis=1)
    sizes = np.array([len(s) for s in sets])
    filled = sizes > 0
    worst = np.zeros(len(sets))
    if len(shift):
        # a filled object's segment runs to the next filled object's start
        starts = np.cumsum(sizes) - sizes
        worst[filled] = np.maximum.reduceat(shift, starts[filled])
    return float(np.mean(worst))
