"""Point-cloud ingestion and synthetic labeled shape generation.

Objects are finite sets of 2D points in pixel-style coordinates: x is the
column index and y is the row index, both 1-based for grid-derived data.
Class ids live in {1, 2, 3} and encode loop count: one loop, two loops,
no loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MIN_SYNTH_POINTS, RAW_BOX_SIDE
from .errors import (EmptyObject, InconsistentLabel, ParseError, nonnegative,
                     nonnegative_int, one_of, read_table, substream,
                     write_table)

VALID_CLASSES = (1, 2, 3)
POINTCLOUD_HEADER = ("object", "x", "y", "label")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A deduplicated set of 2D points with a class label and a
    nonnegative integer id (a channel substream key)."""

    points: np.ndarray
    label: int
    id: int = 0

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"object id must be nonnegative, got {self.id}")
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if pts.shape[0] == 0:
            raise EmptyObject(f"object {self.id} has no points")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"object {self.id}: non-finite coordinate")
        if np.any(pts < 0):
            raise ValueError(f"object {self.id}: negative coordinate")
        # a point cloud is a set: sorted by x, then y (a canonical point
        # order), with each row equal to the one before it dropped; the
        # rows of np.unique(pts, axis=0), which would import numpy.ma
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        pts = pts[np.concatenate(
            ([True], np.any(pts[1:] != pts[:-1], axis=1)))]
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.label not in VALID_CLASSES:
            raise ValueError(f"object {self.id}: label must be in "
                             f"{VALID_CLASSES}, got {self.label}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


class CloudList(list):
    """A plain list of point clouds whose `objects` is the list itself, the
    one attribute sweepbench/drift.py still reads from synth_dataset."""
    objects = property(lambda self: self)


def threshold_grid(grid: np.ndarray, threshold: float, label: int,
                   object_id: int = 0) -> PointCloud:
    """Keep the 1-based (x=column, y=row) coordinates of a 2-D grid whose
    value is >= threshold."""
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    rows, cols = np.nonzero(np.asarray(grid) >= threshold)
    if rows.size == 0:
        raise EmptyObject(
            f"object {object_id}: no pixel reaches threshold {threshold}"
        )
    points = np.column_stack([cols + 1.0, rows + 1.0])
    return PointCloud(points=points, label=label, id=object_id)


def load_pointcloud_file(path) -> list[PointCloud]:
    """Read a `object,x,y,label` CSV into clouds in object id order."""
    groups: dict[int, tuple] = {}
    with open(path, newline="") as fh:
        for lineno, (obj, x, y, lab) in read_table(
                fh, POINTCLOUD_HEADER,
                (nonnegative_int, nonnegative, nonnegative,
                 one_of(int, VALID_CLASSES, "label"))):
            label, pts = groups.setdefault(obj, (lab, []))
            if label != lab:
                raise InconsistentLabel(f"object {obj}: label {lab} at line "
                                        f"{lineno} conflicts with {label}")
            pts.append((x, y))
    if not groups:
        raise ParseError("file contains no data rows", line_number=2)
    return [PointCloud(points=np.array(pts), label=lab, id=obj)
            for obj, (lab, pts) in sorted(groups.items())]


def write_pointcloud_file(path, clouds: list[PointCloud]) -> None:
    """Write clouds; an empty list is a ValueError, as the loader rejects it."""
    if not clouds:
        raise ValueError("no objects to write")
    write_table(path, POINTCLOUD_HEADER,
                ([obj.id, f"{x:.9g}", f"{y:.9g}", obj.label]
                 for obj in clouds for x, y in obj.points))


def synth_loops(class_id: int, n_points: int, noise: float, seed: int,
                object_id: int = 0) -> PointCloud:
    """Generate one labeled shape inside [0, 28]^2.

    Class 1 samples one circle, class 2 two tangent circles, class 3 an open
    arc (no loop). Each object gets a random rigid pose so that raw-pixel
    classifiers cannot rely on absolute position, while the topology (and
    hence the persistence diagram) is untouched.
    """
    if class_id not in VALID_CLASSES:
        raise ValueError(f"class_id must be in {VALID_CLASSES}")
    if n_points < MIN_SYNTH_POINTS:
        raise ValueError(f"n_points must be at least {MIN_SYNTH_POINTS}")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = substream(seed, class_id, object_id)
    center = np.array([14.0, 14.0]) + rng.uniform(-1.5, 1.5, size=2)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    scale = rng.uniform(0.95, 1.05)

    if class_id == 1:
        radius = 8.0 * scale
        ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        base = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    elif class_id == 2:
        radius = 4.5 * scale
        half = n_points // 2
        ang1 = np.linspace(0.0, 2.0 * np.pi, half, endpoint=False)
        ang2 = np.linspace(0.0, 2.0 * np.pi, n_points - half, endpoint=False)
        left = radius * np.column_stack([np.cos(ang1), np.sin(ang1)])
        left[:, 0] -= radius
        right = radius * np.column_stack([np.cos(ang2), np.sin(ang2)])
        right[:, 0] += radius
        base = np.vstack([left, right])
    else:
        # open arc spanning 140 degrees: connected, loop-free
        radius = 9.0 * scale
        ang = np.linspace(-0.39 * np.pi, 0.39 * np.pi, n_points)
        base = radius * np.column_stack([np.cos(ang), np.sin(ang)])
        base[:, 0] -= radius * 0.5

    pts = base @ rot.T + center
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    pts = np.clip(pts, 0.0, RAW_BOX_SIDE)
    return PointCloud(points=pts, label=class_id, id=object_id)


def synth_dataset(per_class: int, n_points: int, noise: float,
                  seed: int) -> CloudList:
    """Balanced 3-class list of synthetic shapes (ids 1..3*per_class)."""
    return CloudList(
        synth_loops(class_id, n_points=n_points, noise=noise, seed=seed,
                    object_id=oid)
        for oid, class_id in enumerate(
            np.repeat(VALID_CLASSES, per_class).tolist(), start=1))


def load_grid_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a `.npz` of grayscale grids into `(grids, labels)`: `grids`
    (N, H, W) with every value in [-1, 1], whole-number `labels` (N,)."""
    # numpy leaves a file it opened itself open when the zip is corrupt
    with open(path, "rb") as f:
        data = np.load(f)
        for key in ("grids", "labels"):
            if key not in data:
                raise ParseError(f"npz file must contain a {key!r} array")
        grids, labels = data["grids"].astype(float), data["labels"]
    if grids.ndim != 3 or 0 in grids.shape:
        raise ParseError(f"'grids' must be 3-D (N, H, W) with no zero "
                         f"size, got shape {grids.shape}")
    # written so that NaN fails: it compares false both ways
    if not np.all((grids >= -1.0) & (grids <= 1.0)):
        raise ParseError("grid values must lie in [-1, 1]")
    if labels.shape != (len(grids),):
        raise ParseError(f"'labels' must have shape ({len(grids)},), "
                         f"got {labels.shape}")
    if labels.dtype.kind not in "iuf" or not np.all(
            np.isfinite(labels) & (labels == np.floor(labels))):
        raise ParseError("labels must be whole numbers")
    return grids, labels.astype(int)
