import hashlib

import numpy as np
import pytest

from brute import betti_bruteforce, betti_from_diagram
from pdsemcom.dataset import synth_dataset
from pdsemcom.errors import BudgetExceeded, ParseError, ShapeError
from pdsemcom.homology import (PersistenceDiagram, _kuhn_max_matching,
                               build_vr_filtration, compute_persistence,
                               load_pd_file, vr_diagram, write_pd_file)

SQUARE = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


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
    assert np.all(np.diff(filt.triangle_values) >= 0)
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


def test_matching_follows_augmenting_paths_past_the_recursion_limit():
    # left u sees right u - 1 and u, so matching left u walks a path through
    # all u earlier left vertices before it reaches right u
    n = 1100
    adj = np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    assert _kuhn_max_matching(adj) == n


def test_diagram_validation():
    with pytest.raises(ValueError):
        PersistenceDiagram(births=np.array([2.0]), deaths=np.array([1.0]),
                           dims=np.array([0]), essential=np.array([False]))
    with pytest.raises(ShapeError):
        PersistenceDiagram(births=np.array([0.0, 1.0]), deaths=np.array([1.0]),
                           dims=np.array([0]), essential=np.array([False]))
    # received diagrams may dip below the diagonal
    pd = PersistenceDiagram.from_received(
        births=np.array([2.0]), deaths=np.array([1.0]), dims=np.array([1]))
    assert not pd.halfplane


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
    corpus = [vr_diagram(o.points) for o in ds.objects[::10]]
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
    back = load_pd_file(path)
    assert sorted(back) == [1, 2, 5]
    for oid, pd in entries.items():
        got = back[oid]
        assert np.allclose(got.births, pd.births, atol=1e-7)
        assert np.allclose(got.deaths, pd.deaths, atol=1e-7)
        assert np.array_equal(got.dims, pd.dims)
        assert pd.essential.any() and not got.essential.any()


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
