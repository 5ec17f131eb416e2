import hashlib
import tracemalloc

import numpy as np
import pytest

from brute import (assert_same_diagram, assert_same_filtration,
                   betti_bruteforce, betti_from_diagram,
                   filtration_by_lexsort, persistence_by_triangle_columns)
from pdsemcom.dataset import synth_dataset
from pdsemcom.errors import BudgetExceeded, ParseError, ShapeError
from pdsemcom.homology import (TRIANGLE_BLOCK_CELLS, PersistenceDiagram,
                               _kuhn_max_matching, build_vr_filtration,
                               compute_persistence, load_pd_file, vr_diagram,
                               write_pd_file)

SQUARE = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
# 3969 points 2 apart: at cap 1 a complex of vertices only
SPACED_GRID = np.array([(x, y) for x in np.arange(63) * 2.0
                        for y in np.arange(63) * 2.0])


def test_unit_square_diagram_exact():
    pd = vr_diagram(SQUARE, gamma_max=16.0)
    h0 = pd.points(0)
    h1 = pd.points(1)
    # three merges at the side length, one essential component
    assert h0.shape == (4, 2)
    finite = h0[~pd.essential[pd.dims == 0]]
    assert np.allclose(finite, [[0.0, 1.0]] * 3)
    assert np.allclose(h0[pd.essential[pd.dims == 0]], [[0.0, 16.0]])
    # the loop is born when the square closes and dies at the diagonal
    assert h1.shape == (1, 2)
    assert np.allclose(h1, [[1.0, np.sqrt(2.0)]], atol=1e-12)


def test_betti_numbers_match_boundary_matrix_ranks():
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(3, 9))
        pts = rng.uniform(0.0, 4.0, size=(n, 2))
        pd = vr_diagram(pts, gamma_max=16.0)
        dists = np.unique(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
        dists = dists[dists > 0]
        gammas = np.concatenate([
            [dists[0] / 2.0], (dists[:-1] + dists[1:]) / 2.0, [dists[-1] + 1.0]
        ])
        for gamma in gammas:
            assert betti_from_diagram(pd, gamma) == betti_bruteforce(pts, gamma)


def test_truncation_drops_merges_beyond_cap():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    pd = vr_diagram(pts, gamma_max=4.0)
    # the merge at distance 10 never happens: two essential components
    assert pd.count(0) == 2
    assert np.all(pd.essential)
    assert np.allclose(pd.deaths, 4.0)


def test_drop_essential_flag_and_method():
    pd = vr_diagram(SQUARE, gamma_max=16.0)
    lean = pd.drop_essential()
    assert not np.any(lean.essential)
    assert len(lean) == len(pd) - int(np.sum(pd.essential))


def test_max_dim_one_leaves_cycles_unfilled():
    pd = vr_diagram(SQUARE, gamma_max=16.0, max_dim=1)
    # no triangles: E - (n - 1) = 3 independent cycles, all essential
    assert pd.count(1) == 3
    assert np.all(pd.essential[pd.dims == 1])
    assert np.all(pd.deaths[pd.dims == 1] == 16.0)


def test_filtration_ordering_and_budget():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 8.0, size=(30, 2))
    filt = build_vr_filtration(pts, gamma_max=16.0)
    assert np.all(np.diff(filt.edge_values) >= 0)
    assert np.all(np.diff(filt.edge_values[filt.facets.max(axis=0)]) >= 0)
    assert np.all(filt.edges[:, 0] < filt.edges[:, 1])
    assert np.all((filt.triangles[:, 0] < filt.triangles[:, 1])
                  & (filt.triangles[:, 1] < filt.triangles[:, 2]))
    with pytest.raises(BudgetExceeded):
        build_vr_filtration(pts, gamma_max=16.0, budget=100)
    # budget large enough for edges but not triangles still trips early
    n_low = 30 + len(filt.edges)
    with pytest.raises(BudgetExceeded):
        build_vr_filtration(pts, gamma_max=16.0, budget=n_low)
    # the budget bounds n + E + T exactly, and n + E before any triangle
    total = filt.simplex_count
    assert build_vr_filtration(
        pts, gamma_max=16.0, budget=total).simplex_count == total
    for budget in (total - 1, n_low - 1):
        with pytest.raises(BudgetExceeded):
            build_vr_filtration(pts, gamma_max=16.0, budget=budget)


def test_triangles_enumerated_in_several_blocks():
    # 300 points on an integer grid tie many lengths; a block holds the
    # rows of TRIANGLE_BLOCK_CELLS // n = 3495 edges, and the triangles
    # come from the third block too
    n, cap = 300, 8.0
    pts = np.random.default_rng(11).integers(0, 29, size=(n, 2)).astype(float)
    filt = build_vr_filtration(pts, gamma_max=cap)
    lexicographic = {edge: pos for pos, edge in
                     enumerate(sorted(map(tuple, filt.edges.tolist())))}
    assert max(lexicographic[i, j] for i, j, _ in filt.triangles.tolist()) \
        >= 2 * (TRIANGLE_BLOCK_CELLS // n)
    assert_same_filtration(filt, filtration_by_lexsort(pts, gamma_max=cap))
    # one contiguous row per facet, which the reduction scans whole
    assert filt.facets.flags.c_contiguous
    total = filt.simplex_count
    assert build_vr_filtration(
        pts, gamma_max=cap, budget=total).simplex_count == total
    for budget in (total - 1, n + len(filt.edges), n + len(filt.edges) - 1):
        with pytest.raises(BudgetExceeded):
            build_vr_filtration(pts, gamma_max=cap, budget=budget)


def test_distances_in_row_blocks_match_the_lexsort_filtration():
    # a block holds TRIANGLE_BLOCK_CELLS // n = 953 rows of distances, so
    # the edges of 1100 points come from two blocks
    n, cap = 1100, 1.5
    pts = np.random.default_rng(13).uniform(0.0, 30.0, size=(n, 2))
    filt = build_vr_filtration(pts, gamma_max=cap)
    assert filt.edges[:, 0].max() >= TRIANGLE_BLOCK_CELLS // n
    assert len(filt.triangles)
    assert_same_filtration(filt, filtration_by_lexsort(pts, gamma_max=cap))


def test_filtration_memory_is_not_a_float_matrix():
    # no edges, so one block of distances (two float arrays of 8.4 MB,
    # squared and summed in place) and then the n x n position table
    # (uint8, 16 MB) are all that is held; an n x n x 2 difference array
    # alone would be 252 MB
    tracemalloc.start()
    try:
        filt = build_vr_filtration(SPACED_GRID, gamma_max=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert filt.simplex_count == len(SPACED_GRID)
    assert peak < 25e6


def test_reduction_memory_is_not_an_int64_matrix():
    # the reduction reads the facet positions the filtration kept, so it
    # holds no n x n array at all; an int64 edge index alone would be 126 MB
    filt = build_vr_filtration(SPACED_GRID, gamma_max=1.0)
    tracemalloc.start()
    try:
        pd = compute_persistence(filt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pd) == pd.count(0) == len(SPACED_GRID)
    assert peak < 2e6


def test_union_find_reads_the_edges_as_it_goes():
    # 1500 points in a box the cap covers: 1124250 edges, and a spanning
    # tree after a few thousand; a Python list of every edge, on top of the
    # diagram of every edge that stays essential, would be ~150 MB
    pts = np.random.default_rng(12).uniform(0.0, 8.0, size=(1500, 2))
    filt = build_vr_filtration(pts, gamma_max=16.0, max_dim=1)
    tracemalloc.start()
    try:
        pd = compute_persistence(filt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pd.count(0) == 1500 and pd.count(1) == len(filt.edges) - 1499
    assert peak < 110e6


def test_more_lengths_than_sixteen_bits_rank():
    # 400 points in a box the cap covers: 79800 distinct lengths, so the
    # ranks are 32-bit and the stable sort is not a radix sort; 79800 edges
    # also make the position table and the facet positions 32-bit
    pts = np.random.default_rng(12).uniform(0.0, 8.0, size=(400, 2))
    filt = build_vr_filtration(pts, gamma_max=16.0, max_dim=1)
    assert len(np.unique(filt.edge_values)) > 65535
    assert_same_filtration(
        filt, filtration_by_lexsort(pts, gamma_max=16.0, max_dim=1))
    assert np.min_scalar_type(len(filt.edges)) == np.uint32
    assert_same_diagram(compute_persistence(filt),
                        persistence_by_triangle_columns(filt))


def test_matching_follows_augmenting_paths_past_the_recursion_limit():
    # left u sees right u - 1 and u, so matching left u walks a path through
    # all u earlier left vertices before it reaches right u
    n = 1100
    adj = np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    assert _kuhn_max_matching(adj) == n


def test_diagram_validation():
    with pytest.raises(ShapeError):
        PersistenceDiagram(births=np.array([0.0, 1.0]), deaths=np.array([1.0]),
                           dims=np.array([0]), essential=np.array([False]))
    # received diagrams may dip below the diagonal
    pd = PersistenceDiagram(births=np.array([2.0]), deaths=np.array([1.0]),
                            dims=np.array([1]), essential=np.array([False]))
    assert pd.births[0] > pd.deaths[0]


@pytest.mark.parametrize("dims", [[0.5, 1.9], [0.0, np.nan], [2, 0], [-1, 1]])
def test_degrees_must_be_zero_or_one(dims):
    # checked before the int cast, which would turn [0.5, 1.9] into [0, 1]
    with pytest.raises(ValueError, match="homology degree must be 0 or 1"):
        PersistenceDiagram(births=np.zeros(2), deaths=np.ones(2), dims=dims,
                           essential=np.zeros(2, dtype=bool))
    ok = PersistenceDiagram(births=np.zeros(2), deaths=np.ones(2),
                            dims=[1.0, 0.0], essential=np.zeros(2, dtype=bool))
    assert ok.dims.dtype == int and ok.dims.tolist() == [1, 0]


@pytest.mark.parametrize("flags", [[0.5, 2], [0, np.nan], [-1, 1]])
def test_essential_flags_must_be_zero_or_one(flags):
    # checked before the bool cast, which would turn [0.5, 2] into True
    with pytest.raises(ValueError, match="essential flags must be 0 or 1"):
        PersistenceDiagram(births=np.zeros(2), deaths=np.ones(2),
                           dims=[0, 1], essential=flags)
    ok = PersistenceDiagram(births=np.zeros(2), deaths=np.ones(2),
                            dims=[0, 1], essential=[1.0, 0])
    assert ok.essential.dtype == bool
    assert ok.essential.tolist() == [True, False]


def test_determinism():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 10.0, size=(40, 2))
    a = vr_diagram(pts, gamma_max=16.0)
    b = vr_diagram(pts, gamma_max=16.0)
    assert np.array_equal(a.births, b.births)
    assert np.array_equal(a.deaths, b.deaths)
    assert np.array_equal(a.dims, b.dims)
    assert np.array_equal(a.essential, b.essential)


def _diagram_digest(diagrams):
    h = hashlib.sha256()
    for pd in diagrams:
        for arr, dtype in ((pd.births, "<f8"), (pd.deaths, "<f8"),
                           (pd.dims, "<i8"), (pd.essential, "?")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def test_golden_diagrams():
    # corpus objects as the default sweep sees them, an integer grid with
    # duplicate points and tied distances, two rings wider than a cap of 4
    # (essential H1 classes) and a run without triangles
    ds = synth_dataset(per_class=200, n_points=48, noise=0.2, seed=7)
    corpus = [vr_diagram(o.points) for o in ds[::10]]
    assert _diagram_digest(corpus) == (
        "3eb7349e7f2c6a004c780ed004dad8a1a99d1d85884e570367f79ecf623526c7")
    rng = np.random.default_rng(17)
    grid = rng.integers(0, 6, size=(24, 2)).astype(float)
    grid = np.vstack([grid, grid[:5]])
    # two rings of radius about 4 around (5, 5) and (15, 5)
    angles = (np.linspace(0.0, 4.0 * np.pi, 40, endpoint=False)
              + rng.uniform(0.0, 0.2, 40))
    radii = rng.uniform(3.6, 4.4, size=(40, 1))
    ring = np.column_stack([np.cos(angles), np.sin(angles)]) * radii + 5.0
    ring[20:, 0] += 10.0
    capped = vr_diagram(ring, gamma_max=4.0)
    assert np.sum(capped.essential & (capped.dims == 1)) == 2
    others = [vr_diagram(grid), vr_diagram(grid, gamma_max=2.0), capped,
              vr_diagram(rng.uniform(0.0, 8.0, size=(20, 2)), max_dim=1)]
    assert _diagram_digest(others) == (
        "71531a49487492ca939b4e6bb7440a449f3948f377d262e62fd343690ece3c42")


def test_pd_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    entries = {}
    for oid in (1, 2, 5):
        pts = rng.uniform(0.0, 6.0, size=(10, 2))
        entries[oid] = vr_diagram(pts, gamma_max=16.0)
    path = tmp_path / "pds.csv"
    write_pd_file(path, entries)
    assert b"\r" not in path.read_bytes()
    back = load_pd_file(path)
    assert sorted(back) == [1, 2, 5]
    for oid, pd in entries.items():
        got = back[oid]
        assert np.allclose(got.births, pd.births, atol=1e-7)
        assert np.allclose(got.deaths, pd.deaths, atol=1e-7)
        assert np.array_equal(got.dims, pd.dims)
        assert pd.essential.any() and not got.essential.any()
    # rows that interleave degrees load in file order; points() gives the
    # degree-0 rows, then the degree-1 rows
    path.write_text("object,dim,birth,death\n"
                    "7,1,1,3\n7,0,0,2\n7,1,2,5\n7,0,0,4\n")
    mixed = load_pd_file(path)[7]
    assert mixed.dims.tolist() == [1, 0, 1, 0]
    assert mixed.points().tolist() == [[0, 2], [0, 4], [1, 3], [2, 5]]
    assert np.array_equal(mixed.points(),
                          np.vstack([mixed.points(0), mixed.points(1)]))


def test_pd_file_keeps_pairs_that_die_at_the_cap(tmp_path):
    # the H0 merge of two points 2 apart dies at the cap 2.0, as the
    # essential class does; the file cannot tell the two rows apart, so
    # neither reloads as essential and drop_essential keeps the merge
    pd = vr_diagram(np.array([[0.0, 0.0], [2.0, 0.0]]), gamma_max=2.0)
    assert pd.essential.tolist() == [False, True]
    path = tmp_path / "pds.csv"
    write_pd_file(path, {1: pd})
    back = load_pd_file(path)[1]
    assert back.deaths.tolist() == [2.0, 2.0]
    assert back.essential.tolist() == [False, False]
    assert len(back.drop_essential()) == 2
    write_pd_file(path, {1: pd.drop_essential()})
    assert load_pd_file(path)[1].points().tolist() == [[0.0, 2.0]]


def test_pd_loader_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("object,dim,birth,death\n1,0,0.0,zzz\n")
    with pytest.raises(ParseError) as err:
        load_pd_file(bad)
    assert err.value.line_number == 2
    bad.write_text("wrong,header\n")
    with pytest.raises(ParseError):
        load_pd_file(bad)


@pytest.mark.parametrize("row", ["1,5,0.0,1.0", "1,0,-1.0,1.0"])
def test_pd_loader_reports_bad_values_with_line_numbers(tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"object,dim,birth,death\n1,0,0.0,2.0\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_pd_file(bad)
    assert err.value.line_number == 3
