"""Vietoris-Rips persistence for 2D point clouds, plus bottleneck distance.

The filtration truncates at a scale cap: simplices enter when all pairwise
distances among their vertices are at most the cap. Classes still alive at
the cap are truncated (death set to the cap, flagged essential);
`PersistenceDiagram.drop_essential` removes them. Homology is computed over
GF(2): degree 0 by union-find over the sorted edges, degree 1 by reducing
edge coboundaries in reverse filtration order, as Ripser does (Bauer, JACT
2021): edges that merge components need no column (clearing), most edges
pair with their oldest cofacet outright (apparent pairs), and the few
coboundaries the reduction adds are built on demand as Python-int bitmasks
over triangle positions, from comparisons against the triangles' facet
positions. Cohomology yields the same pairs as homology (de Silva, Morozov
and Vejdemo-Johansson, 2011).

The filtration sorts by integer rank, not by float value: each distinct
edge length gets a dense rank, held in the smallest unsigned dtype that
fits, so the stable sorts of edges and triangles are radix sorts for up to
256 points. Its one n x n array holds each edge's position. Triangles are
the set cells of an (edge, vertex) mask, two rows of that table, a block of
edges at a time (E * n cells, not n**3); the same rows give the facets the
reduction reads, and a filtration is its sorted edges and those facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (BudgetExceeded, ShapeError, nonnegative, one_of,
                     read_table, write_table)

DEFAULT_GAMMA_MAX = 16.0
DEFAULT_SIMPLEX_BUDGET = 2_000_000
# the columns of a diagram file, and of a latent file, which shares its layout
PD_HEADER = ("object", "dim", "birth", "death")
# the (edge, vertex) mask cells that one triangle enumeration step holds
TRIANGLE_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class Filtration:
    """Sorted edges and the facet table of a truncated Vietoris-Rips complex.

    Simplices are ordered by (filtration value, dimension, lexicographic
    vertex tuple); vertices all enter at value 0 so the arrays here hold the
    dimension-1 and dimension-2 parts in their global order. Each
    dimension is enumerated in lexicographic order, so one stable sort by
    filtration value gives the whole order: simplices of equal value keep
    their lexicographic order. The sort key is the dense rank of the value
    among the edge lengths (a triangle's is its longest edge's), which
    orders exactly as the value does; the values are read back from the
    ranks, so they are the distances themselves. `facets` holds the edge
    positions of each triangle's facets (i, j), (i, k), (j, k), a contiguous
    row each, in the narrowest dtype that holds E; a triangle's value is its
    youngest facet's, `edge_values[facets.max(axis=0)]`.
    """

    n_vertices: int
    edges: np.ndarray          # (E, 2) int, i < j, sorted
    edge_values: np.ndarray    # (E,) float
    facets: np.ndarray         # (3, T) edge positions
    gamma_max: float

    @property
    def triangles(self) -> np.ndarray:
        """(T, 3) int, i < j < k, sorted, built on each access: triangle
        (i, j, k) has facets (i, j) and (i, k)."""
        return np.column_stack([self.edges[self.facets[0]],
                                self.edges[self.facets[1], 1]])

    @property
    def simplex_count(self) -> int:
        return self.n_vertices + len(self.edges) + self.facets.shape[1]


def _edge_cells(pts: np.ndarray, gamma_max: float, step: int) -> tuple:
    """The flat indices i * n + j of the edges (i, j), i < j, in
    lexicographic order, and their lengths. The distances are taken `step`
    rows at a time, as two float arrays squared and summed in place."""
    n = len(pts)
    cells, lengths = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for lo in range(0, n, step):
        dist = pts[lo:lo + step, None, 0] - pts[None, :, 0]
        dy = pts[lo:lo + step, None, 1] - pts[None, :, 1]
        dist *= dist
        dy *= dy
        dist += dy
        del dy  # else alive while the next block's distances are taken
        np.sqrt(dist, out=dist)
        cell = np.flatnonzero(np.triu(dist <= gamma_max, k=lo + 1))
        lengths.append(dist.ravel()[cell])
        cells.append(cell + lo * n)
    return np.concatenate(cells), np.concatenate(lengths)


def build_vr_filtration(points: np.ndarray, gamma_max: float = DEFAULT_GAMMA_MAX,
                        max_dim: int = 2,
                        budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """Enumerate edges and (optionally) triangles with diameter <= gamma_max."""
    # written so that NaN fails too
    if not 0 < gamma_max < math.inf:
        raise ValueError(
            f"scale cap gamma_max must be positive and finite, got {gamma_max}")
    if max_dim not in (1, 2):
        raise ValueError(f"max_dim must be 1 or 2, got {max_dim}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    step = max(1, TRIANGLE_BLOCK_CELLS // max(n, 1))
    cell, lengths = _edge_cells(pts, gamma_max, step)
    # equal lengths share a rank, so a stable sort by rank is the stable
    # sort by length
    values, edge_rank = np.unique(lengths, return_inverse=True)
    edge_rank = edge_rank.astype(np.min_scalar_type(len(values)))
    order = np.argsort(edge_rank, kind="stable")
    sorted_rank, sorted_cell = edge_rank[order], cell[order]
    edges = np.column_stack(np.divmod(sorted_cell, max(n, 1)))
    edge_values = values[sorted_rank]
    n_edges = len(edges)
    count = n + n_edges
    if count > budget:
        raise BudgetExceeded(f"{count} simplices exceed budget {budget}")
    # the one n x n array: the position of edge (i, j), i < j, among the
    # sorted edges, or E where there is none, in the narrowest dtype
    pos = np.full((n, n), n_edges, dtype=np.min_scalar_type(n_edges))
    pos.reshape(-1)[sorted_cell] = np.arange(n_edges, dtype=pos.dtype)

    # the triangles (i, j, k) over edge (i, j) are the k set in both rows i
    # and j of `pos`, which hold the facets (i, k) and (j, k), so the flat
    # indices of a block of edge rows come in lexicographic order. The count
    # stops the enumeration after the first block that passes the budget,
    # so memory stays within the budget plus one block.
    parts = [np.empty((3, 0), dtype=pos.dtype)]
    for lo in range(0, n_edges if max_dim == 2 else 0, step):
        a, b = np.divmod(cell[lo:lo + step], n)
        row_a, row_b = pos.take(a, axis=0), pos.take(b, axis=0)
        mask = row_a < n_edges
        mask &= row_b < n_edges
        flat = np.flatnonzero(mask)
        count += len(flat)
        if count > budget:
            raise BudgetExceeded(f"{count} simplices exceed budget {budget}")
        parts.append(np.stack([pos.take(cell[lo:lo + step]).take(flat // n),
                               row_a.take(flat), row_b.take(flat)]))
    facets = np.concatenate(parts, axis=1)
    # a triangle's rank is its longest edge's, the rank of its youngest
    # facet; `take` keeps the rows contiguous, which the reduction scans
    order = np.argsort(sorted_rank.take(facets.max(axis=0)), kind="stable")
    return Filtration(n_vertices=n, edges=edges, edge_values=edge_values,
                      facets=facets.take(order, axis=1),
                      gamma_max=float(gamma_max))


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Finite multiset of (birth, death) pairs tagged with homology degree.

    `essential` marks classes whose death was truncated at the scale cap.
    Births need not precede deaths: a diagram rebuilt from a noisy symbol
    stream can hold decoded cell centers below the diagonal.
    """

    births: np.ndarray
    deaths: np.ndarray
    dims: np.ndarray
    essential: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.births, dtype=float).ravel()
        d = np.asarray(self.deaths, dtype=float).ravel()
        dm = np.asarray(self.dims).ravel()
        es = np.asarray(self.essential).ravel()
        if not (len(b) == len(d) == len(dm) == len(es)):
            raise ShapeError("birth/death/dim/essential lengths differ")
        # over both arrays and 0, so an empty diagram passes; a NaN makes
        # both extremes NaN
        lo = b.min(initial=d.min(initial=0.0))
        hi = b.max(initial=d.max(initial=0.0))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("diagram coordinates must be finite")
        if lo < 0:
            raise ValueError("diagram coordinates must be nonnegative")
        # checked before the int cast, which would truncate 0.5 to 0
        if not ((dm == 0) | (dm == 1)).all():
            raise ValueError("homology degree must be 0 or 1")
        dm = dm.astype(int, copy=False)
        # likewise: the bool cast would turn 0.5 into True
        if es.dtype != bool and not ((es == 0) | (es == 1)).all():
            raise ValueError("essential flags must be 0 or 1")
        es = es.astype(bool, copy=False)
        for name, arr in (("births", b), ("deaths", d), ("dims", dm),
                          ("essential", es)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.births)

    def points(self, dim: int | None = None) -> np.ndarray:
        """(n, 2) array of (birth, death) rows of degree `dim`, or of degree
        0 then degree 1 (each in diagram order) if `dim` is None."""
        rows = self.degree_order()[0] if dim is None else self.dims == dim
        return np.column_stack([self.births[rows], self.deaths[rows]])

    def degree_order(self) -> tuple:
        """(order, n0): the indices of the degree-0 points then of the
        degree-1 points, each in diagram order, and the degree-0 count."""
        return (np.argsort(self.dims, kind="stable"),
                len(self.dims) - np.count_nonzero(self.dims))

    def count(self, dim: int) -> int:
        return int(np.sum(self.dims == dim))

    def drop_essential(self) -> "PersistenceDiagram":
        keep = ~self.essential
        return PersistenceDiagram(
            births=self.births[keep], deaths=self.deaths[keep],
            dims=self.dims[keep], essential=self.essential[keep],
        )


def compute_persistence(filtration: Filtration) -> PersistenceDiagram:
    """Degree-0 and degree-1 persistence of a truncated VR filtration.

    Degree 0 comes from union-find over the sorted edges. Degree 1 comes
    from reducing the coboundaries of the edges that close a cycle, youngest
    edge first, with the oldest triangle as pivot. Edges that merge
    components are skipped (clearing). An edge whose oldest cofacet has that
    edge as its youngest facet is paired with it outright (an apparent
    pair); its coboundary is built only if a later column needs it, as a
    bitmask of the triangles whose facet arrays hold that edge. The pairs
    are those of the triangle-column homology reduction.

    Degree-1 pairs of zero persistence are dropped; degree-0 pairs of
    duplicate points (birth 0, death 0) stay, one per extra copy. Classes
    still alive at the cap get death = gamma_max and are flagged essential;
    `PersistenceDiagram.drop_essential` removes them.
    """
    n = filtration.n_vertices
    edges = filtration.edges
    evals = filtration.edge_values
    gmax = filtration.gamma_max
    n_edges, n_tris = len(edges), filtration.facets.shape[1]

    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    merges = []
    # n edges at a time, as the loop seldom reads them all
    for pos, (a, b) in enumerate(chain.from_iterable(
            edges[lo:lo + n].tolist() for lo in range(0, n_edges, max(n, 1)))):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            merges.append(pos)
            # a spanning tree: every later edge closes a cycle
            if len(merges) == n - 1:
                break
    n_components = n - len(merges)
    positive = np.ones(n_edges, dtype=bool)
    positive[merges] = False

    # the youngest facet of every triangle and the oldest cofacet of every
    # edge (n_tris if none), as positions
    f0, f1, f2 = filtration.facets
    youngest = np.maximum(np.maximum(f0, f1), f2)
    oldest = np.full(n_edges, n_tris)
    for facet in (f0, f1, f2):
        np.minimum.at(oldest, facet, np.arange(n_tris))

    # of the edges that close a cycle and have a cofacet, most pair with
    # their oldest cofacet outright (apparent pairs); the rest are reduced
    cand = np.nonzero(positive & (oldest < n_tris))[0]
    apparent = youngest[oldest[cand]] == cand
    # pivot triangle -> edge
    owner = dict(zip(oldest[cand[apparent]].tolist(),
                     cand[apparent].tolist()))
    # edge -> reduced coboundary as a bitmask over triangle positions (an
    # apparent pair's is built when first added)
    columns: dict[int, int] = {}

    def coboundary(e: int) -> int:
        # an edge's cofacets are the triangles that have it as a facet: a
        # coboundary is a pass over every triangle position anyway, so
        # three comparisons against the facet arrays find them without
        # sorting any key
        mask = (f0 == e) | (f1 == e) | (f2 == e)
        return int.from_bytes(np.packbits(mask, bitorder="little"), "little")

    for e in cand[~apparent][::-1].tolist():
        col = coboundary(e)
        while col:
            t = (col & -col).bit_length() - 1
            other = owner.get(t)
            if other is None:
                owner[t] = e
                columns[e] = col
                break
            if other not in columns:
                columns[other] = coboundary(other)
            col ^= columns[other]

    pair_t = np.fromiter(owner.keys(), dtype=int, count=len(owner))
    pair_e = np.fromiter(owner.values(), dtype=int, count=len(owner))
    pair_death = evals[youngest[pair_t]]
    finite = evals[pair_e] < pair_death
    positive[pair_e] = False  # the positive edges left never die
    alive = np.nonzero(positive & (evals < gmax))[0]

    sizes = [len(merges), n_components, int(finite.sum()), len(alive)]
    b = np.concatenate([np.zeros(len(merges) + n_components),
                        evals[pair_e[finite]], evals[alive]])
    d = np.concatenate([evals[merges], np.full(n_components, gmax),
                        pair_death[finite], np.full(len(alive), gmax)])
    dm = np.repeat([0, 0, 1, 1], sizes)
    es = np.repeat([False, True, False, True], sizes)
    order = np.lexsort((es, d, b, dm))
    return PersistenceDiagram(births=b[order], deaths=d[order], dims=dm[order],
                              essential=es[order])


def vr_diagram(points: np.ndarray, gamma_max: float = DEFAULT_GAMMA_MAX,
               max_dim: int = 2,
               budget: int = DEFAULT_SIMPLEX_BUDGET) -> PersistenceDiagram:
    """Convenience wrapper: filtration construction plus reduction."""
    filt = build_vr_filtration(points, gamma_max=gamma_max, max_dim=max_dim,
                               budget=budget)
    return compute_persistence(filt)


def _kuhn_max_matching(adj: np.ndarray) -> int:
    """Maximum bipartite matching size via augmenting paths."""
    n_left, n_right = adj.shape
    nbrs = [np.nonzero(adj[u])[0] for u in range(n_left)]
    match_right = np.full(n_right, -1)

    def augment(u: int, seen: np.ndarray) -> bool:
        # depth-first with an explicit stack, as paths can be n_left long;
        # path[d] is the right vertex that level d stepped through
        stack, path = [(u, iter(nbrs[u]))], []
        while stack:
            for v in stack[-1][1]:
                if not seen[v]:
                    seen[v] = True
                    path.append(v)
                    if match_right[v] < 0:
                        for (w, _), x in zip(stack, path):
                            match_right[x] = w
                        return True
                    stack.append((match_right[v], iter(nbrs[match_right[v]])))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    size = 0
    for u in range(n_left):
        if augment(u, np.zeros(n_right, dtype=bool)):
            size += 1
    return size


def _matching_feasible(dist: np.ndarray, diag_a: np.ndarray,
                       diag_b: np.ndarray, delta: float) -> bool:
    """Can every point match within delta, using the diagonal as overflow?"""
    na, nb = dist.shape
    n = na + nb
    adj = np.zeros((n, n), dtype=bool)
    adj[:na, :nb] = dist <= delta
    adj[:na, nb:] = (diag_a <= delta)[:, None]
    adj[na:, :nb] = (diag_b <= delta)[None, :]
    adj[na:, nb:] = True
    return _kuhn_max_matching(adj) == n


def bottleneck_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact bottleneck distance between two diagrams given as (n, 2) arrays.

    Points may be matched to the diagonal at cost (death - birth) / 2.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)

    # classes with infinite death can only match each other, by birth
    inf_a = ~np.isfinite(a[:, 1])
    inf_b = ~np.isfinite(b[:, 1])
    inf_part = 0.0
    if np.any(inf_a) or np.any(inf_b):
        ba = np.sort(a[inf_a, 0])
        bb = np.sort(b[inf_b, 0])
        if len(ba) != len(bb):
            return float("inf")
        if len(ba):
            inf_part = float(np.max(np.abs(ba - bb)))
        a, b = a[~inf_a], b[~inf_b]

    if len(a) == 0 and len(b) == 0:
        return inf_part
    diag_a = (a[:, 1] - a[:, 0]) / 2.0
    diag_b = (b[:, 1] - b[:, 0]) / 2.0
    dist = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    cands = np.unique(np.concatenate([dist.ravel(), diag_a, diag_b, [0.0]]))
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(dist, diag_a, diag_b, float(cands[mid])):
            hi = mid
        else:
            lo = mid + 1
    return max(float(cands[lo]), inf_part)


def write_pd_file(path, entries: dict) -> None:
    """Write {object id: diagram} as `object,dim,birth,death` rows in id
    order, 9 significant digits."""
    write_table(path, PD_HEADER,
                ([object_id, int(pd.dims[i]), f"{pd.births[i]:.9g}",
                  f"{pd.deaths[i]:.9g}"]
                 for object_id, pd in sorted(entries.items())
                 for i in range(len(pd))))


def read_pd_rows(path, coordinate) -> dict:
    """{object id: (n, 3) array of its (dim, birth, death) rows in file
    order} of a file in the diagram layout; `coordinate` converts each birth
    and death. Any bad row is a ParseError with its line number."""
    rows: dict[int, list] = {}
    with open(path, newline="") as fh:
        for _, (obj, *row) in read_table(
                fh, PD_HEADER, (int, one_of(int, (0, 1), "homology degree"),
                                coordinate, coordinate)):
            rows.setdefault(obj, []).append(row)
    return {obj: np.array(r) for obj, r in rows.items()}


def load_pd_file(path) -> dict:
    """Read a diagram CSV back into {object id: PersistenceDiagram}.

    The format has no essential flag, and a finite pair can die exactly at
    the cap, so every loaded row is non-essential (`pd compute
    --drop-essential` drops the essential classes before writing).
    Rows below the diagonal are accepted: received diagrams can contain
    them.
    """
    return {obj: PersistenceDiagram(
                births=rows[:, 1], deaths=rows[:, 2], dims=rows[:, 0],
                essential=np.zeros(len(rows), dtype=bool))
            for obj, rows in sorted(read_pd_rows(path, nonnegative).items())}
