"""Point-cloud ingestion and synthetic labeled shape generation.

Objects are finite sets of 2D points in pixel-style coordinates: x is the
column index and y is the row index, both 1-based for grid-derived data.
Class ids live in {1, 2, 3} and encode loop count: one loop, two loops,
no loop.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyObject, InconsistentLabel, ParseError, nonnegative,
                     one_of, read_table, substream)

RAW_BOX_SIDE = 28.0
VALID_CLASSES = (1, 2, 3)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A deduplicated set of 2D points with a class label."""

    points: np.ndarray
    label: int
    id: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if pts.shape[0] == 0:
            raise EmptyObject(f"object {self.id} has no points")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"object {self.id}: non-finite coordinate")
        if np.any(pts < 0):
            raise ValueError(f"object {self.id}: negative coordinate")
        # a point cloud is a set: drop duplicates (np.unique sorts rows,
        # which also gives a canonical point order)
        pts = np.unique(pts, axis=0)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.label not in VALID_CLASSES:
            raise ValueError(f"object {self.id}: label must be in "
                             f"{VALID_CLASSES}, got {self.label}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A list of labeled point clouds."""

    objects: list

    def __len__(self):
        return len(self.objects)

    def labels(self) -> np.ndarray:
        return np.array([obj.label for obj in self.objects], dtype=int)


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


def load_pointcloud_file(path) -> LabeledDataset:
    """Read a `object,x,y,label` CSV into a dataset grouped by object id."""
    groups: dict[int, list] = {}
    labels: dict[int, int] = {}
    with open(path, newline="") as fh:
        for lineno, (obj, x, y, lab) in read_table(
                fh, ("object", "x", "y", "label"),
                (int, nonnegative, nonnegative,
                 one_of(int, VALID_CLASSES, "label"))):
            if obj in labels and labels[obj] != lab:
                raise InconsistentLabel(
                    f"object {obj}: label {lab} at line {lineno} "
                    f"conflicts with {labels[obj]}"
                )
            labels[obj] = lab
            groups.setdefault(obj, []).append((x, y))
    if not groups:
        raise ParseError("file contains no data rows", line_number=2)
    objects = [
        PointCloud(points=np.array(pts), label=labels[obj], id=obj)
        for obj, pts in sorted(groups.items())
    ]
    return LabeledDataset(objects=objects)


def write_pointcloud_file(path, dataset: LabeledDataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object", "x", "y", "label"])
        for obj in dataset.objects:
            for x, y in obj.points:
                writer.writerow([obj.id, f"{x:.9g}", f"{y:.9g}", obj.label])


def synth_loops(class_id: int, n_points: int = 36, noise: float = 0.25,
                seed: int = 0, object_id: int = 0) -> PointCloud:
    """Generate one labeled shape inside [0, 28]^2.

    Class 1 samples one circle, class 2 two tangent circles, class 3 an open
    arc (no loop). Each object gets a random rigid pose so that raw-pixel
    classifiers cannot rely on absolute position, while the topology (and
    hence the persistence diagram) is untouched.
    """
    if class_id not in VALID_CLASSES:
        raise ValueError(f"class_id must be in {VALID_CLASSES}")
    if n_points < 8:
        raise ValueError("n_points must be at least 8")
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


def synth_dataset(per_class: int = 200, n_points: int = 36, noise: float = 0.25,
                  seed: int = 0) -> LabeledDataset:
    """Balanced 3-class dataset of synthetic shapes (ids 1..3*per_class)."""
    objects = []
    oid = 1
    for class_id in VALID_CLASSES:
        for _ in range(per_class):
            objects.append(
                synth_loops(class_id, n_points=n_points, noise=noise,
                            seed=seed, object_id=oid)
            )
            oid += 1
    return LabeledDataset(objects=objects)


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
