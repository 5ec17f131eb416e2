import numpy as np
import pytest

from pdsemcom.dataset import (PointCloud, load_grid_file,
                              load_pointcloud_file, synth_dataset,
                              synth_loops, threshold_grid,
                              write_pointcloud_file)
from pdsemcom.errors import EmptyObject, InconsistentLabel, ParseError


def test_pointcloud_dedups_and_sorts():
    pts = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
    cloud = PointCloud(points=pts, label=1, id=1)
    assert cloud.n_points == 3
    assert np.array_equal(cloud.points,
                          np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 1.0]]))


def test_pointcloud_rejects_empty_and_bad_values():
    with pytest.raises(EmptyObject):
        PointCloud(points=np.empty((0, 2)), label=1, id=1)
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[1.0, np.nan]]), label=1, id=1)
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[-0.5, 1.0]]), label=1, id=1)


@pytest.mark.parametrize("label", [None, 0, 4])
def test_pointcloud_requires_a_valid_label(label):
    with pytest.raises(ValueError, match="object 7: label"):
        PointCloud(points=np.array([[1.0, 1.0]]), label=label, id=7)


def test_threshold_grid_pixel_coordinates():
    values = np.zeros((28, 28))
    values[0, 0] = 1.0   # row 0, col 0 -> (x, y) = (1, 1)
    values[5, 2] = 0.9   # row 5, col 2 -> (x, y) = (3, 6)
    cloud = threshold_grid(values, 0.7, 2, object_id=4)
    assert cloud.label == 2
    assert np.array_equal(cloud.points, np.array([[1.0, 1.0], [3.0, 6.0]]))


def test_threshold_grid_empty_raises():
    with pytest.raises(EmptyObject):
        threshold_grid(np.zeros((28, 28)), 0.5, 1)


def test_pointcloud_file_round_trip(tmp_path):
    ds = synth_dataset(per_class=2, n_points=12, noise=0.1, seed=3)
    path = tmp_path / "clouds.csv"
    write_pointcloud_file(path, ds)
    assert b"\r" not in path.read_bytes()
    back = load_pointcloud_file(path)
    assert len(back) == len(ds)
    for a, b in zip(ds, back):
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


def test_negative_object_ids_are_rejected_at_the_boundary(tmp_path):
    # an object id keys the channel's substream, which takes nonnegative
    # integers only; a file with a negative id fails at the row that has it
    path = tmp_path / "bad.csv"
    path.write_text("object,x,y,label\n1,2.0,3.0,1\n0,2.0,3.0,2\n"
                    "-3,4.0,5.0,1\n")
    with pytest.raises(ParseError, match="line 4: object id must be "
                       "nonnegative, got -3"):
        load_pointcloud_file(path)
    with pytest.raises(ValueError, match="object id must be nonnegative"):
        PointCloud(points=np.array([[1.0, 1.0]]), label=1, id=-1)
    assert PointCloud(points=np.array([[1.0, 1.0]]), label=1, id=0).id == 0
    values = np.ones((4, 4))
    with pytest.raises(ValueError, match="object id must be nonnegative"):
        threshold_grid(values, 0.5, 1, object_id=-2)
    with pytest.raises(ValueError):
        synth_loops(1, n_points=12, noise=0.0, seed=0, object_id=-1)


def test_loader_rejects_inconsistent_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("object,x,y,label\n1,2.0,3.0,1\n1,4.0,5.0,2\n")
    with pytest.raises(InconsistentLabel):
        load_pointcloud_file(path)


def test_synth_dataset_shape_and_determinism():
    a = synth_dataset(per_class=5, n_points=20, noise=0.2, seed=9)
    b = synth_dataset(per_class=5, n_points=20, noise=0.2, seed=9)
    assert len(a) == 15
    assert np.bincount([o.label for o in a]).tolist() == [0, 5, 5, 5]
    # blocked layout: ids 1..15, first block all class 1
    assert [o.id for o in a] == list(range(1, 16))
    assert all(o.label == 1 for o in a[:5])
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
    c = synth_dataset(per_class=5, n_points=20, noise=0.2, seed=10)
    assert not all(np.array_equal(x.points, y.points)
                   for x, y in zip(a, c))


def test_synth_points_stay_in_pixel_box():
    ds = synth_dataset(per_class=10, n_points=40, noise=0.5, seed=1)
    for obj in ds:
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


def test_load_grid_file(tmp_path):
    grids = np.zeros((2, 28, 28))
    grids[0, 3, 4] = 1.0
    grids[1, 5, 5] = 1.0
    np.savez(tmp_path / "g.npz", grids=grids, labels=np.array([1, 2]))
    loaded, labels = load_grid_file(tmp_path / "g.npz")
    assert np.array_equal(loaded, grids)
    assert labels.tolist() == [1, 2]
    np.savez(tmp_path / "bad.npz", other=grids)
    with pytest.raises(ParseError):
        load_grid_file(tmp_path / "bad.npz")


@pytest.mark.parametrize("grids, labels, message", [
    (np.zeros((2, 4, 4)), np.array([1.5, 2.7]), "whole numbers"),
    (np.zeros((2, 4, 4)), np.array([1.0, np.nan]), "whole numbers"),
    (np.zeros((2, 4, 4)), np.array([1, 2, 3]), "(2,)"),
    (np.zeros((4, 4)), np.array([1, 2, 3, 1]), "(4, 4)"),
    (np.full((2, 4, 4), np.nan), np.array([1, 2]), "[-1, 1]"),
    (np.full((2, 4, 4), 1.5), np.array([1, 2]), "[-1, 1]"),
    (np.zeros((2, 4, 4)), None, "'labels'"),
    (np.zeros((2, 0, 4)), np.array([1, 2]), "(2, 0, 4)"),
    (np.zeros((0, 4, 4)), np.zeros(0), "(0, 4, 4)"),
])
def test_load_grid_file_rejects_bad_arrays(tmp_path, grids, labels, message):
    arrays = {"grids": grids}
    if labels is not None:
        arrays["labels"] = labels
    np.savez(tmp_path / "g.npz", **arrays)
    with pytest.raises(ParseError) as err:
        load_grid_file(tmp_path / "g.npz")
    assert message in str(err.value)
