import numpy as np
import pytest

from pdsemcom.dataset import (GrayscaleGrid, PointCloud, load_grid_file,
                              load_pointcloud_file, synth_dataset,
                              synth_loops, threshold_grid,
                              write_pointcloud_file)
from pdsemcom.errors import EmptyObject, InconsistentLabel, ParseError


def test_pointcloud_dedups_and_sorts():
    pts = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
    cloud = PointCloud(points=pts, id=1)
    assert cloud.n_points == 3
    assert np.array_equal(cloud.points,
                          np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 1.0]]))


def test_pointcloud_rejects_empty_and_bad_values():
    with pytest.raises(EmptyObject):
        PointCloud(points=np.empty((0, 2)), id=1)
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[1.0, np.nan]]), id=1)
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[-0.5, 1.0]]), id=1)


def test_threshold_grid_pixel_coordinates():
    values = np.zeros((28, 28))
    values[0, 0] = 1.0   # row 0, col 0 -> (x, y) = (1, 1)
    values[5, 2] = 0.9   # row 5, col 2 -> (x, y) = (3, 6)
    grid = GrayscaleGrid.from_array(values)
    cloud = threshold_grid(grid, 0.7, object_id=4, label=2)
    assert cloud.label == 2
    assert np.array_equal(cloud.points, np.array([[1.0, 1.0], [3.0, 6.0]]))


def test_threshold_grid_empty_raises():
    grid = GrayscaleGrid.from_array(np.zeros((28, 28)))
    with pytest.raises(EmptyObject):
        threshold_grid(grid, 0.5)


def test_pointcloud_file_round_trip(tmp_path):
    ds = synth_dataset(per_class=2, n_points=12, noise=0.1, seed=3)
    path = tmp_path / "clouds.csv"
    write_pointcloud_file(path, ds)
    back = load_pointcloud_file(path)
    assert len(back.objects) == len(ds.objects)
    for a, b in zip(ds.objects, back.objects):
        assert a.id == b.id and a.label == b.label
        assert np.allclose(a.points, b.points, atol=1e-7)


def test_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("object,x,y,label\n1,2.0,3.0,1\n1,oops,3.0,1\n")
    with pytest.raises(ParseError) as err:
        load_pointcloud_file(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("row", ["1,2.0,3.0,7", "1,-2.0,3.0,1",
                                 "1,nan,3.0,1"])
def test_loader_reports_bad_values_with_line_numbers(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"object,x,y,label\n1,2.0,3.0,1\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_pointcloud_file(path)
    assert err.value.line_number == 3


def test_loader_rejects_inconsistent_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("object,x,y,label\n1,2.0,3.0,1\n1,4.0,5.0,2\n")
    with pytest.raises(InconsistentLabel):
        load_pointcloud_file(path)


def test_synth_dataset_shape_and_determinism():
    a = synth_dataset(per_class=5, n_points=20, noise=0.2, seed=9)
    b = synth_dataset(per_class=5, n_points=20, noise=0.2, seed=9)
    assert len(a.objects) == 15
    assert a.class_counts == {1: 5, 2: 5, 3: 5}
    # blocked layout: ids 1..15, first block all class 1
    assert [o.id for o in a.objects] == list(range(1, 16))
    assert all(o.label == 1 for o in a.objects[:5])
    for x, y in zip(a.objects, b.objects):
        assert np.array_equal(x.points, y.points)
    c = synth_dataset(per_class=5, n_points=20, noise=0.2, seed=10)
    assert not all(np.array_equal(x.points, y.points)
                   for x, y in zip(a.objects, c.objects))


def test_synth_points_stay_in_pixel_box():
    ds = synth_dataset(per_class=10, n_points=40, noise=0.5, seed=1)
    for obj in ds.objects:
        assert np.all(obj.points <= 28.0)


def test_synth_classes_differ_geometrically():
    # class 1 is a single wide ring, class 2 two small ones: the radial
    # spread around the centroid separates them even before homology
    one = synth_loops(1, n_points=60, noise=0.05, seed=2, object_id=1)
    two = synth_loops(2, n_points=60, noise=0.05, seed=2, object_id=2)

    def spread(c):
        r = np.linalg.norm(c.points - c.points.mean(0), axis=1)
        return r.std() / r.mean()

    assert spread(one) < spread(two)


def test_labels_vector_matches_objects():
    ds = synth_dataset(per_class=3, n_points=12, noise=0.1, seed=4)
    assert np.array_equal(ds.labels(), np.array([o.label for o in ds.objects]))


def test_load_grid_file(tmp_path):
    grids = np.zeros((2, 28, 28))
    grids[0, 3, 4] = 1.0
    grids[1, 5, 5] = 1.0
    np.savez(tmp_path / "g.npz", grids=grids, labels=np.array([1, 2]))
    entries = load_grid_file(tmp_path / "g.npz")
    assert len(entries) == 2
    assert entries[0][1] == 1 and entries[1][1] == 2
    np.savez(tmp_path / "bad.npz", other=grids)
    with pytest.raises(ParseError):
        load_grid_file(tmp_path / "bad.npz")


@pytest.mark.parametrize("grids, labels, message", [
    (np.zeros((2, 4, 4)), np.array([1.5, 2.7]), "whole numbers"),
    (np.zeros((2, 4, 4)), np.array([1.0, np.nan]), "whole numbers"),
    (np.zeros((2, 4, 4)), np.array([1, 2, 3]), "(2,)"),
    (np.zeros((4, 4)), np.array([1, 2, 3, 1]), "(4, 4)"),
])
def test_load_grid_file_rejects_bad_arrays(tmp_path, grids, labels, message):
    np.savez(tmp_path / "g.npz", grids=grids, labels=labels)
    with pytest.raises(ParseError) as err:
        load_grid_file(tmp_path / "g.npz")
    assert message in str(err.value)
