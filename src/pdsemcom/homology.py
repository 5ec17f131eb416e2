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
over triangle positions. Cohomology yields the same pairs as homology
(de Silva, Morozov and Vejdemo-Johansson, 2011).
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, ShapeError, nonnegative, one_of,
                     read_table)

DEFAULT_GAMMA_MAX = 16.0
DEFAULT_SIMPLEX_BUDGET = 2_000_000


@dataclass(frozen=True)
class Filtration:
    """Sorted edges and triangles of a truncated Vietoris-Rips complex.

    Simplices are ordered by (filtration value, dimension, lexicographic
    vertex tuple); vertices all enter at value 0 so the arrays here hold the
    dimension-1 and dimension-2 parts in their global order. Each
    dimension is enumerated in lexicographic order, so one stable sort by
    filtration value gives the whole order: simplices of equal value keep
    their lexicographic order.
    """

    n_vertices: int
    edges: np.ndarray          # (E, 2) int, i < j, sorted
    edge_values: np.ndarray    # (E,) float
    triangles: np.ndarray      # (T, 3) int, i < j < k, sorted
    triangle_values: np.ndarray
    gamma_max: float

    @property
    def simplex_count(self) -> int:
        return self.n_vertices + len(self.edges) + len(self.triangles)


def _by_diameter(simplices: np.ndarray,
                 dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort simplices, given in lexicographic order, by diameter."""
    values = np.max([dist[simplices[:, a], simplices[:, b]] for a, b in
                     itertools.combinations(range(simplices.shape[1]), 2)],
                    axis=0)
    order = np.argsort(values, kind="stable")
    return simplices[order], values[order]


def build_vr_filtration(points: np.ndarray, gamma_max: float = DEFAULT_GAMMA_MAX,
                        max_dim: int = 2,
                        budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """Enumerate edges and (optionally) triangles with diameter <= gamma_max."""
    if gamma_max <= 0:
        raise ValueError(f"scale cap must be positive, got {gamma_max}")
    if max_dim not in (1, 2):
        raise ValueError(f"max_dim must be 1 or 2, got {max_dim}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    upper = np.triu(dist <= gamma_max, k=1)
    edges, edge_values = _by_diameter(np.argwhere(upper), dist)

    # triangles (i, j, k) come vertex by vertex in lexicographic order; the
    # count stops the enumeration once it passes the budget, so memory stays
    # within the budget plus one vertex's block
    count = n + len(edges)
    blocks = [np.empty((0, 3), dtype=int)]
    for i in range(n if max_dim == 2 else 0):
        if count > budget:
            break
        nbrs = np.nonzero(upper[i])[0]
        j, k = np.nonzero(upper[np.ix_(nbrs, nbrs)])
        blocks.append(np.column_stack([np.full(len(j), i), nbrs[j], nbrs[k]]))
        count += len(j)
    if count > budget:
        raise BudgetExceeded(f"{count} simplices exceed budget {budget}")
    triangles, triangle_values = _by_diameter(np.concatenate(blocks), dist)

    return Filtration(n_vertices=n, edges=edges, edge_values=edge_values,
                      triangles=triangles, triangle_values=triangle_values,
                      gamma_max=float(gamma_max))


@dataclass(frozen=True)
class PersistenceDiagram:
    """Finite multiset of (birth, death) pairs tagged with homology degree.

    `essential` marks classes whose death was truncated at `gamma_max`.
    `halfplane` records whether every pair satisfies birth <= death; it is
    False for diagrams rebuilt from corrupted symbol streams, where decoded
    cell centers can land below the diagonal.
    """

    births: np.ndarray
    deaths: np.ndarray
    dims: np.ndarray
    essential: np.ndarray
    gamma_max: float | None = None
    halfplane: bool = True

    def __post_init__(self):
        b = np.asarray(self.births, dtype=float).ravel()
        d = np.asarray(self.deaths, dtype=float).ravel()
        dm = np.asarray(self.dims, dtype=int).ravel()
        es = np.asarray(self.essential, dtype=bool).ravel()
        if not (len(b) == len(d) == len(dm) == len(es)):
            raise ShapeError("birth/death/dim/essential lengths differ")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
            raise ValueError("diagram coordinates must be finite")
        if np.any(b < 0) or np.any(d < 0):
            raise ValueError("diagram coordinates must be nonnegative")
        if len(dm) and not np.all((dm == 0) | (dm == 1)):
            raise ValueError("homology degree must be 0 or 1")
        if self.halfplane and np.any(d < b):
            raise ValueError("birth exceeds death in a halfplane diagram")
        for name, arr in (("births", b), ("deaths", d), ("dims", dm),
                          ("essential", es)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.births)

    def points(self, dim: int | None = None) -> np.ndarray:
        """(n, 2) array of (birth, death) rows, optionally one degree only."""
        mask = slice(None) if dim is None else self.dims == dim
        return np.column_stack([self.births[mask], self.deaths[mask]])

    def count(self, dim: int) -> int:
        return int(np.sum(self.dims == dim))

    def drop_essential(self) -> "PersistenceDiagram":
        keep = ~self.essential
        return PersistenceDiagram(
            births=self.births[keep], deaths=self.deaths[keep],
            dims=self.dims[keep], essential=self.essential[keep],
            gamma_max=self.gamma_max, halfplane=self.halfplane,
        )

    @classmethod
    def from_received(cls, births, deaths, dims,
                      gamma_max: float | None = None) -> "PersistenceDiagram":
        """Build a diagram from decoded points without the halfplane check."""
        b = np.asarray(births, dtype=float).ravel()
        return cls(births=b, deaths=deaths, dims=dims,
                   essential=np.zeros(len(b), dtype=bool),
                   gamma_max=gamma_max, halfplane=False)


def compute_persistence(filtration: Filtration) -> PersistenceDiagram:
    """Degree-0 and degree-1 persistence of a truncated VR filtration.

    Degree 0 comes from union-find over the sorted edges. Degree 1 comes
    from reducing the coboundaries of the edges that close a cycle, youngest
    edge first, with the oldest triangle as pivot. Edges that merge
    components are skipped (clearing). An edge whose oldest cofacet has that
    edge as its youngest facet is paired with it outright (an apparent
    pair); its coboundary is built only if a later column needs it. The
    pairs are those of the triangle-column homology reduction.

    Degree-1 pairs of zero persistence are dropped; degree-0 pairs of
    duplicate points (birth 0, death 0) stay, one per extra copy. Classes
    still alive at the cap get death = gamma_max and are flagged essential;
    `PersistenceDiagram.drop_essential` removes them.
    """
    n = filtration.n_vertices
    edges = filtration.edges
    evals = filtration.edge_values
    tris = filtration.triangles
    tvals = filtration.triangle_values
    gmax = filtration.gamma_max
    n_edges, n_tris = len(edges), len(tris)

    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    merges = []
    for pos, (a, b) in enumerate(edges.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            merges.append(pos)
    n_components = len({find(v) for v in range(n)})
    positive = np.ones(n_edges, dtype=bool)
    positive[merges] = False

    # the youngest facet of every triangle and the oldest cofacet of every
    # edge (n_tris if none), as positions, one facet array at a time
    index = np.full((n, n), -1)
    index[edges[:, 0], edges[:, 1]] = np.arange(n_edges)
    index[edges[:, 1], edges[:, 0]] = np.arange(n_edges)
    i, j, k = tris.T
    youngest = np.full(n_tris, -1)
    oldest = np.full(n_edges, n_tris)
    for u, v in ((i, j), (i, k), (j, k)):
        facet = index[u, v]
        np.maximum(youngest, facet, out=youngest)
        np.minimum.at(oldest, facet, np.arange(n_tris))

    # of the edges that close a cycle and have a cofacet, most pair with
    # their oldest cofacet outright (apparent pairs); the rest are reduced
    cand = np.nonzero(positive & (oldest < n_tris))[0]
    apparent = youngest[oldest[cand]] == cand
    # pivot triangle -> edge
    owner = dict(zip(oldest[cand[apparent]].tolist(),
                     cand[apparent].tolist()))
    rest = cand[~apparent][::-1].tolist()
    if rest:
        # edge -> reduced coboundary as a bitmask over triangle positions
        # (an apparent pair's is built when first added)
        columns: dict[int, int] = {}
        keys = (i * n + j) * n + k
        # stable: the default sort's SIMD code adds about 0.4 MB of
        # resident memory to a process on first use
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        adjacent = index >= 0

        def coboundary(e: int) -> int:
            # the triangles {a, b, c} over the common neighbours c of a < b
            a, b = edges[e]
            c = np.nonzero(adjacent[a] & adjacent[b])[0]
            lo, hi = np.minimum(a, c), np.maximum(b, c)
            found = np.searchsorted(
                sorted_keys, (lo * n + (a + b + c - lo - hi)) * n + hi)
            mask = np.zeros(n_tris, dtype=bool)
            mask[by_key[found]] = True
            return int.from_bytes(np.packbits(mask, bitorder="little"),
                                  "little")

        for e in rest:
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
    finite = evals[pair_e] < tvals[pair_t]
    positive[pair_e] = False  # the positive edges left never die
    alive = np.nonzero(positive & (evals < gmax))[0]

    sizes = [len(merges), n_components, int(finite.sum()), len(alive)]
    b = np.concatenate([np.zeros(len(merges) + n_components),
                        evals[pair_e[finite]], evals[alive]])
    d = np.concatenate([evals[merges], np.full(n_components, gmax),
                        tvals[pair_t[finite]], np.full(len(alive), gmax)])
    dm = np.repeat([0, 0, 1, 1], sizes)
    es = np.repeat([False, True, False, True], sizes)
    order = np.lexsort((es, d, b, dm))
    return PersistenceDiagram(births=b[order], deaths=d[order], dims=dm[order],
                              essential=es[order], gamma_max=gmax)


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


def bottleneck_distance(a: np.ndarray, b: np.ndarray,
                        strict_bijection: bool = False) -> float:
    """Exact bottleneck distance between two diagrams given as (n, 2) arrays.

    Points may be matched to the diagonal at cost (death - birth) / 2 unless
    `strict_bijection` demands a pure point-to-point pairing, which raises
    ShapeError when the cardinalities differ.
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

    na, nb = len(a), len(b)
    if strict_bijection and na != nb:
        raise ShapeError(
            f"strict matching needs equal sizes, got {na} and {nb}"
        )
    if na == 0 and nb == 0:
        return inf_part
    diag_a = (a[:, 1] - a[:, 0]) / 2.0
    diag_b = (b[:, 1] - b[:, 0]) / 2.0
    if strict_bijection:
        # a closed diagonal leaves only point-to-point pairings (na == nb)
        diag_a = diag_b = np.full(na, np.inf)
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


def write_pd_file(path, entries) -> None:
    """Write diagrams as `object,dim,birth,death` rows, 9 significant digits."""
    if isinstance(entries, dict):
        entries = sorted(entries.items())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object", "dim", "birth", "death"])
        for object_id, pd in entries:
            for i in range(len(pd)):
                writer.writerow([
                    object_id, int(pd.dims[i]),
                    f"{pd.births[i]:.9g}", f"{pd.deaths[i]:.9g}",
                ])


def load_pd_file(path) -> dict:
    """Read a diagram CSV back into {object id: PersistenceDiagram}.

    The format has no essential flag, and a finite pair can die exactly at
    the cap, so every loaded row is non-essential (`pd compute
    --drop-essential` drops the essential classes before writing).
    Rows below the diagonal are accepted (received diagrams can contain them)
    and mark the whole object's diagram as halfplane=False.
    """
    rows: dict[int, list] = {}
    with open(path, newline="") as fh:
        for _, (obj, *row) in read_table(
                fh, ("object", "dim", "birth", "death"),
                (int, one_of(int, (0, 1), "homology degree"), nonnegative,
                 nonnegative)):
            rows.setdefault(obj, []).append(row)
    out = {}
    for obj in sorted(rows):
        dims, births, deaths = np.array(rows[obj]).T
        out[obj] = PersistenceDiagram(
            births=births, deaths=deaths, dims=dims,
            essential=np.zeros(len(dims), dtype=bool),
            halfplane=bool(np.all(births <= deaths)),
        )
    return out
