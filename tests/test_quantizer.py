import numpy as np
import pytest

from pdsemcom.errors import CorruptSymbol, OutOfBox, ParseError, ShapeError
from pdsemcom.homology import vr_diagram
from pdsemcom.quantizer import (QuantizedPointSet, QuantizerGrid,
                                diagram_from_symbols, load_symbol_stream,
                                quantize_diagram, quantize_set,
                                upper_triangle_cells, write_symbol_stream)


def test_worked_cell_indexing():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    assert grid.cell_width == 4.0
    # x_bin-major, 1-based: (0, 0) -> 1; (1, 2) -> 1*4 + 2 + 1 = 7
    pts = np.array([[0.5, 0.5], [5.0, 9.0],
                    # boundary ties go up, the far edge stays inside
                    [4.0, 0.0], [16.0, 16.0]])
    assert np.array_equal(grid.quantize_points(pts), [1, 7, 5, 16])
    assert np.allclose(grid.centers_of([7]), [[6.0, 10.0]])


def test_out_of_box_rejected():
    grid = QuantizerGrid(box_side=16.0, n_bins=10)
    with pytest.raises(OutOfBox):
        grid.quantize_points(np.array([[17.0, 2.0]]))
    with pytest.raises(OutOfBox):
        grid.quantize_points(np.array([[2.0, -0.1]]))


def test_round_trip_error_bounded_by_half_cell():
    rng = np.random.default_rng(8)
    for m in (5, 10, 27):
        grid = QuantizerGrid(box_side=16.0, n_bins=m)
        pts = rng.uniform(0.0, 16.0, size=(2000, 2))
        q = quantize_set(grid, pts, "raw")
        back = grid.centers_of(q.indices)
        err = np.max(np.abs(back - pts))
        assert err <= grid.cell_width / 2.0 + 1e-12


def test_quantize_is_idempotent_on_centers():
    grid = QuantizerGrid(box_side=16.0, n_bins=9)
    idx = np.arange(1, grid.n_cells + 1)
    centers = grid.centers_of(idx)
    assert np.array_equal(grid.quantize_points(centers), idx)


def test_corrupt_symbol_detected():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    with pytest.raises(CorruptSymbol):
        grid.centers_of(np.array([0]))
    with pytest.raises(CorruptSymbol):
        grid.centers_of(np.array([17]))
    with pytest.raises(CorruptSymbol):
        QuantizedPointSet(indices=np.array([99]), grid=grid, source_kind="raw")


def test_clean_diagram_occupies_upper_triangle_only():
    grid = QuantizerGrid(box_side=16.0, n_bins=6)
    pts = np.random.default_rng(4).uniform(2.0, 10.0, size=(20, 2))
    pd = vr_diagram(pts, gamma_max=16.0)
    q = quantize_diagram(grid, pd)
    x_bin = (q.indices - 1) // 6
    y_bin = (q.indices - 1) % 6
    assert np.all(x_bin <= y_bin)
    assert len(np.unique(q.indices)) <= upper_triangle_cells(6)
    # channel split: degree-0 count then degree-1 count
    assert q.channel_counts == (pd.count(0), pd.count(1))
    assert np.array_equal(np.sort(q.channel(0)),
                          np.sort(grid.quantize_points(pd.points(0))))


def test_below_diagonal_input_rejected_for_clean_pd():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    with pytest.raises(ValueError):
        QuantizedPointSet(indices=np.array([5]), grid=grid, source_kind="pd")
    # the same index is fine when flagged as post-channel
    q = QuantizedPointSet(indices=np.array([5]), grid=grid, source_kind="pd",
                          check_halfplane=False)
    assert len(q) == 1


def test_collapse_duplicates():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    pts = np.array([[1.0, 1.0], [1.2, 1.1], [9.0, 9.0]])
    q = quantize_set(grid, pts, "raw")
    qc = quantize_set(grid, pts, "raw", collapse_duplicates=True)
    assert len(q) == 3 and len(qc) == 2


def test_diagram_from_symbols_handles_corruption():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    # cell 5 decodes below the diagonal: kept, flagged non-halfplane
    pd = diagram_from_symbols(grid, np.array([5, 1]), (1, 1), gamma_max=16.0)
    assert not pd.halfplane
    assert np.array_equal(pd.dims, [0, 1])
    with pytest.raises(ShapeError):
        diagram_from_symbols(grid, np.array([1, 2, 3]), (1, 1))


def test_channel_counts_must_partition():
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    with pytest.raises(ShapeError):
        QuantizedPointSet(indices=np.array([1, 2]), grid=grid,
                          source_kind="raw", channel_counts=(1,))


def test_symbol_stream_round_trip(tmp_path):
    grid = QuantizerGrid(box_side=16.0, n_bins=10)
    rng = np.random.default_rng(2)
    objects = {}
    for oid in (3, 7):
        pd = vr_diagram(rng.uniform(1.0, 12.0, size=(15, 2)), gamma_max=16.0)
        objects[oid] = quantize_diagram(grid, pd)
    path = tmp_path / "stream.csv"
    write_symbol_stream(path, grid, "pd", objects)
    grid2, kind, back = load_symbol_stream(path)
    assert grid2 == grid and kind == "pd"
    for oid, q in objects.items():
        assert np.array_equal(back[oid].indices, q.indices)
        assert back[oid].channel_counts == q.channel_counts


def test_symbol_stream_keeps_empty_channels(tmp_path):
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    objects = {
        1: QuantizedPointSet(indices=np.array([1, 2, 6]), grid=grid,
                             source_kind="pd", channel_counts=(3, 0)),
        2: QuantizedPointSet(indices=np.array([4, 16]), grid=grid,
                             source_kind="pd", channel_counts=(0, 2)),
    }
    path = tmp_path / "stream.csv"
    write_symbol_stream(path, grid, "pd", objects)
    _, _, back = load_symbol_stream(path)
    assert {oid: q.channel_counts for oid, q in back.items()} == {
        1: (3, 0), 2: (0, 2)}
    assert np.array_equal(back[2].indices, [4, 16])


def test_symbol_stream_rejects_empty_objects(tmp_path):
    grid = QuantizerGrid(box_side=16.0, n_bins=4)
    empty = QuantizedPointSet(indices=np.empty(0, dtype=int), grid=grid,
                              source_kind="pd", channel_counts=(0, 0))
    full = quantize_set(grid, np.array([[1.0, 2.0]]), "pd")
    path = tmp_path / "stream.csv"
    with pytest.raises(ValueError, match="object 9"):
        write_symbol_stream(path, grid, "pd", {3: full, 9: empty})
    assert not path.exists()


def test_symbol_stream_channels_follow_source_kind(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("box_side,n_bins,source_kind\n16,4,raw\n"
                    "object,channel,symbol\n3,0,1\n3,1,5\n")
    with pytest.raises(ParseError) as err:
        load_symbol_stream(path)
    assert err.value.line_number == 5
    path.write_text("box_side,n_bins,source_kind\n16,4,raw\n"
                    "object,channel,symbol\n3,0,1\n3,0,5\n")
    _, _, back = load_symbol_stream(path)
    assert back[3].channel_counts == (2,)


@pytest.mark.parametrize("row", ["3,-1,5", "3,0,0"])
def test_symbol_stream_reports_bad_values_with_line_numbers(tmp_path, row):
    path = tmp_path / "stream.csv"
    path.write_text("box_side,n_bins,source_kind\n16,4,pd\n"
                    f"object,channel,symbol\n3,0,1\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_symbol_stream(path)
    assert err.value.line_number == 5


def test_single_bin_grid_holds_the_whole_box():
    grid = QuantizerGrid(box_side=16.0, n_bins=1)
    pts = np.array([[0.0, 0.0], [7.5, 16.0], [16.0, 3.0]])
    assert np.array_equal(grid.quantize_points(pts), [1, 1, 1])
    assert np.allclose(grid.centers_of([1]), [[8.0, 8.0]])
    with pytest.raises(ValueError):
        QuantizerGrid(box_side=16.0, n_bins=0)
