"""Small brute-force oracles shared between unit and acceptance tests.

Everything here is the slow-but-obviously-correct version of something the
package computes cleverly: GF(2) Betti numbers straight from boundary-matrix
ranks, the persistence diagram of a filtration by reducing every triangle
column against edge rows (homology, where the package reduces edge
coboundaries), bottleneck distance by enumerating every partial matching,
the density histogram and occupancy raster by their own floor-and-clamp binning rather than through
the quantizer grid, and the BCH error locator by the general 2t-step
Berlekamp-Massey (the package runs the t-step binary form). That last one
is the package's former `_berlekamp_massey`, moved here verbatim except
that the field inverse of b is inlined as exp[(n - log[b]) % n]. The BCH
syndromes and Chien search by multiplying exponents and reducing them mod n
on every call (the package gathers from tables built once per code) are the
package's former `_syndromes` body and Chien evaluation, moved here
verbatim, and `bch_decode_by_products` is the package's former
`bch_decode` built from them and the general Berlekamp-Massey. The
systematic BCH encoder that divides the shifted message by g one bit per
step with `_gf2_poly_mod` (the package reads the message a byte per step
against a 256-entry table of each byte's parity) is the package's former
`bch_encode`, moved here verbatim as `bch_encode_by_poly_mod`. The t-step
binary Berlekamp-Massey over Python lists of field elements, with a branch
per zero coefficient (the package runs each step as a few gathers from
zero-sentinel log and exp tables on fixed-width numpy registers), is the
package's former binary `_berlekamp_massey`, moved here as
`berlekamp_massey_lists`; it tests each syndrome for zero itself and reads
the field's log table only at nonzero elements.

The canonical Huffman codewords by walking the symbols in (length, symbol)
order and the Huffman decoder that walks the bits against a table of every
codeword (the package derives both from first-code tables) are the
package's former `build_huffman` reassignment loop and `huffman_decode`,
moved here verbatim.

The Vietoris-Rips filtration that sorts edges and triangles by
(diameter, vertex tuple) with `np.lexsort` and counts triangles for the
budget with an adjacency matrix product (the package enumerates triangles
as the set cells of an (edge row, vertex) mask, a block of edges at a
time, sorts once by the integer rank of the diameter with a stable sort,
and counts while enumerating) is the package's former
`build_vr_filtration`, moved here verbatim as `filtration_by_lexsort`,
plus the facet positions of each triangle, read from a dict of the sorted
edges' positions (the package reads them from its n x n position table
while it enumerates the triangles). It returns its own record,
`LexsortFiltration`, which holds the triangles' vertices and values as it
computes them (a package `Filtration` holds only the facet table and reads
both back from it). It is the one filtration oracle, and it applies the
same budget rule: n + E is checked before any triangle, and n + E + T in
full. The reduction's oracle is `persistence_by_triangle_columns`, which
reduces triangle columns over edge rows, takes each triangle's value as
the largest of its edges' and never looks up a cofacet.

The MLP fit over every feature column (the package fits only the columns
some training row fills and leaves the rest of the first weight matrix as
drawn) is the package's former `train_classifier`, moved here as
`train_classifier_all_columns`. The fit that runs each ADAM step as
14 operations per parameter array and takes its gradients from
`loss_and_gradients_allocating` (the package lays the narrowed weights and
biases out as views of one vector, steps the whole vector at once and
writes the gradients into views of a second one) is the package's former
`train_classifier`, moved here as `train_classifier_per_array`. Both
count ADAM's steps t = epoch + 1 themselves, as the package does. Their
forward and backward pass, which allocates every activation, softmax
column and backward product afresh and reads the (row, label)
probabilities by fancy indexing (the package writes all of them into
buffers allocated once per fit), is the package's former
`Classifier.forward` and `loss_and_gradients`, moved here as
`forward_allocating` and `loss_and_gradients_allocating`.
The bottleneck-style distortion that quantizes and re-centers the test
multiset one object at a time (the package takes every point's shift in
one pass and each object's maximum by `np.maximum.reduceat`) is the
package's former `bottleneck_style_distortion`, moved here verbatim as
`bottleneck_style_distortion_loop`.

The bit packing through big-endian bytes of the reversed array (the
package packs little-endian with `np.packbits`/`np.unpackbits(count=)`)
is the package's former `bits_to_int` and `int_to_bits`, moved here
verbatim as `bits_to_int_reversed` and `int_to_bits_reversed`. The BCH
block loops that pad a message to whole k-bit blocks and encode or decode
one block at a time are the command line's former `code bch` loops,
moved here as `bch_encode_blocks` and `bch_decode_blocks` (the package
codes payloads with the sweep's `encode_payload`/`decode_payload`).

The canonical Huffman decoder that walks one bit per step against a map
of (length, codeword) to symbol (the package reads one codeword per step
from a first-level table and bisects the left-justified limits for longer
codewords) is the package's former `huffman_decode`, moved here as
`huffman_decode_per_bit`; it builds that map from the code's symbols and
lengths by the first-code rule written out here (`first_codes`), so it
reads none of the package's tables. The Huffman merge that keeps the list of
leaves below every node and adds 1 to the lengths of all of them at each
merge (the package records parent pointers and takes the depths in one
pass) is the package's former `_codeword_lengths`, moved here verbatim as
`codeword_lengths_leaf_lists`. The tent features computed one degree at a
time, each with its own tent grid (the package evaluates all the points
once against cached centers and splits the rows by degree), are the
package's former `_channel_features` and `perslay_vectorize`, moved here
verbatim as `channel_features` and `perslay_vectorize_per_degree`. The
diagram quantizer that quantizes each degree's points in its own call (the
package quantizes all the points at once and splits them by degree) is the
package's former `quantize_diagram` with its `_cells` helper, moved here
verbatim as `quantize_diagram_per_degree`; the diagram rebuilt through
`centers_of` (the package takes the centers' coordinates from one
`bins_of` call) is the package's former `diagram_from_symbols`, moved here
verbatim as `diagram_from_symbols_via_centers`.

The point-cloud deduplication by `np.unique(pts, axis=0)` (the package
sorts the rows with one `np.lexsort` and drops each row equal to the one
before it, because `np.unique` imports `numpy.ma`) is the package's former
`PointCloud` dedup, moved here as `dedup_by_unique`.
"""

import heapq
import itertools
import math
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from pdsemcom.codec import BchCode, bch_encode, decode_or_passthrough
from pdsemcom.codec.bch import _gf2_poly_mod, bits_to_int, int_to_bits
from pdsemcom.codec.bitstream import as_bits
from pdsemcom.errors import (BudgetExceeded, DecodeFailure, EmptyDensity,
                             ShapeError, TrainingDiverged)
from pdsemcom.homology import (DEFAULT_GAMMA_MAX, DEFAULT_SIMPLEX_BUDGET,
                               PersistenceDiagram)
from pdsemcom.inference import (ADAM_EPS, BANDWIDTH, BETA1, BETA2,
                                LEARNING_RATE, N_BIRTH, N_PERS, TOP_K,
                                WEIGHT_EXPONENT,
                                N_CLASSES, Classifier)
from pdsemcom.quantizer import QuantizedPointSet, QuantizerGrid


def rank_gf2(mat: np.ndarray) -> int:
    m = (np.asarray(mat) % 2).astype(np.uint8)
    if m.size == 0:
        return 0
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot < 0:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in np.nonzero(m[:, c])[0]:
            if r != rank:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def betti_bruteforce(points: np.ndarray, gamma: float) -> tuple:
    """(b0, b1) of the Rips complex at scale gamma, via boundary ranks."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if d[i, j] <= gamma]
    eidx = {e: p for p, e in enumerate(edges)}
    tris = [(i, j, k)
            for i in range(n) for j in range(i + 1, n)
            for k in range(j + 1, n)
            if d[i, j] <= gamma and d[i, k] <= gamma and d[j, k] <= gamma]
    d1 = np.zeros((n, len(edges)), dtype=np.uint8)
    for p, (i, j) in enumerate(edges):
        d1[i, p] = d1[j, p] = 1
    d2 = np.zeros((len(edges), len(tris)), dtype=np.uint8)
    for p, (i, j, k) in enumerate(tris):
        d2[eidx[(i, j)], p] = 1
        d2[eidx[(i, k)], p] = 1
        d2[eidx[(j, k)], p] = 1
    r1 = rank_gf2(d1)
    r2 = rank_gf2(d2)
    return n - r1, len(edges) - r1 - r2


class _UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n)

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def dedup_by_unique(points: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, 2) float array, in sorted order."""
    return np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)


class LexsortFiltration(NamedTuple):
    """The arrays `filtration_by_lexsort` computes, triangles and their
    values included."""

    n_vertices: int
    edges: np.ndarray
    edge_values: np.ndarray
    triangles: np.ndarray
    triangle_values: np.ndarray
    facets: np.ndarray
    gamma_max: float

    @property
    def simplex_count(self) -> int:
        return self.n_vertices + len(self.edges) + len(self.triangles)


def filtration_by_lexsort(points: np.ndarray, gamma_max: float = DEFAULT_GAMMA_MAX,
                          max_dim: int = 2,
                          budget: int = DEFAULT_SIMPLEX_BUDGET) -> LexsortFiltration:
    """Enumerate edges and (optionally) triangles with diameter <= gamma_max."""
    if gamma_max <= 0:
        raise ValueError(f"scale cap must be positive, got {gamma_max}")
    if max_dim not in (1, 2):
        raise ValueError(f"max_dim must be 1 or 2, got {max_dim}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    adj = dist <= gamma_max
    np.fill_diagonal(adj, False)

    iu, ju = np.triu_indices(n, k=1)
    keep = adj[iu, ju]
    ei, ej = iu[keep], ju[keep]
    evals = dist[ei, ej]
    order = np.lexsort((ej, ei, evals))
    edges = np.column_stack([ei, ej])[order]
    edge_values = evals[order]

    count = n + len(edges)
    if count > budget:
        raise BudgetExceeded(f"{count} simplices exceed budget {budget}")

    if max_dim < 2 or n < 3:
        tri = np.empty((0, 3), dtype=int)
        tri_values = np.empty(0)
    else:
        # count triangles before materializing them so the budget check
        # cannot itself blow memory
        adj_int = adj.astype(np.int64)
        common = adj_int @ adj_int
        n_tri = int(np.sum(common[ei, ej])) // 3
        if count + n_tri > budget:
            raise BudgetExceeded(
                f"{count + n_tri} simplices exceed budget {budget}"
            )
        tris = []
        for i in range(n - 2):
            nbrs = np.nonzero(adj[i, i + 1:])[0] + i + 1
            if len(nbrs) < 2:
                continue
            sub = adj[np.ix_(nbrs, nbrs)]
            aa, bb = np.nonzero(np.triu(sub, k=1))
            if len(aa):
                j = nbrs[aa]
                k = nbrs[bb]
                tris.append(np.column_stack([np.full(len(j), i), j, k]))
        if tris:
            tri = np.vstack(tris)
            tri_values = np.maximum.reduce([
                dist[tri[:, 0], tri[:, 1]],
                dist[tri[:, 0], tri[:, 2]],
                dist[tri[:, 1], tri[:, 2]],
            ])
            torder = np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0], tri_values))
            tri = tri[torder]
            tri_values = tri_values[torder]
        else:
            tri = np.empty((0, 3), dtype=int)
            tri_values = np.empty(0)

    edge_pos = {edge: pos
                for pos, edge in enumerate(map(tuple, edges.tolist()))}
    facets = np.array([[edge_pos[i, j], edge_pos[i, k], edge_pos[j, k]]
                       for i, j, k in tri.tolist()],
                      dtype=np.min_scalar_type(len(edges))).reshape(-1, 3)
    return LexsortFiltration(n_vertices=n, edges=edges,
                             edge_values=edge_values, triangles=tri,
                             triangle_values=tri_values,
                             facets=np.ascontiguousarray(facets.T),
                             gamma_max=float(gamma_max))


def _assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same_filtration(got, want):
    """The package's filtration `got` and the oracle's record `want` hold
    equal arrays of equal dtypes: edges, edge values, triangles, triangle
    values (for `got`, each triangle's youngest facet's) and facets."""
    _assert_same_arrays(got, want, ("edges", "edge_values", "triangles",
                                    "facets"))
    values = got.edge_values[got.facets.max(axis=0)]
    assert values.dtype == want.triangle_values.dtype and np.array_equal(
        values, want.triangle_values), "triangle_values"


def assert_same_diagram(got, want):
    """Both diagrams hold equal arrays of equal dtypes."""
    _assert_same_arrays(got, want, ("births", "deaths", "dims", "essential"))


def persistence_by_triangle_columns(filtration) -> PersistenceDiagram:
    """Degree-0 and degree-1 persistence of a truncated VR filtration, with
    every triangle column reduced against edge rows in Python-int bitmasks.

    Degree-1 pairs of zero persistence are dropped; degree-0 pairs of
    duplicate points (birth 0, death 0) stay, one per extra copy. Classes
    still alive at the cap get death = gamma_max and are flagged essential;
    `PersistenceDiagram.drop_essential` removes them.
    """
    n = filtration.n_vertices
    edges = filtration.edges
    evals = filtration.edge_values
    gmax = filtration.gamma_max

    births, deaths, dims, ess = [], [], [], []

    uf = _UnionFind(n)
    positive = np.zeros(len(edges), dtype=bool)
    for pos in range(len(edges)):
        a, b = edges[pos]
        if uf.union(int(a), int(b)):
            births.append(0.0)
            deaths.append(float(evals[pos]))
            dims.append(0)
            ess.append(False)
        else:
            positive[pos] = True
    n_components = len({uf.find(v) for v in range(n)})
    for _ in range(n_components):
        births.append(0.0)
        deaths.append(gmax)
        dims.append(0)
        ess.append(True)

    # degree 1: reduce triangle columns over edge rows; a column's surviving
    # lowest one pairs that edge's cycle with this triangle
    paired = np.zeros(len(edges), dtype=bool)
    # built on each access, so read once
    triangles = filtration.triangles
    if len(triangles):
        edge_pos = {}
        for pos, (a, b) in enumerate(edges):
            edge_pos[(int(a), int(b))] = pos
        pivots: dict[int, int] = {}
        for t in range(len(triangles)):
            i, j, k = (int(v) for v in triangles[t])
            facets = (edge_pos[(i, j)], edge_pos[(i, k)], edge_pos[(j, k)])
            value = max(evals[f] for f in facets)
            col = (1 << facets[0]) | (1 << facets[1]) | (1 << facets[2])
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    paired[low] = True
                    if evals[low] < value:
                        births.append(float(evals[low]))
                        deaths.append(float(value))
                        dims.append(1)
                        ess.append(False)
                    break
                col ^= other

    for pos in np.nonzero(positive & ~paired)[0]:
        if evals[pos] < gmax:
            births.append(float(evals[pos]))
            deaths.append(gmax)
            dims.append(1)
            ess.append(True)

    b = np.array(births)
    d = np.array(deaths)
    dm = np.array(dims, dtype=int)
    es = np.array(ess, dtype=bool)
    order = np.lexsort((es, d, b, dm))
    return PersistenceDiagram(births=b[order], deaths=d[order], dims=dm[order],
                              essential=es[order])


def betti_from_diagram(pd, gamma: float) -> tuple:
    """(b0, b1) read off a truncated diagram: intervals [birth, death)."""
    alive = (pd.births <= gamma) & ((gamma < pd.deaths) | pd.essential)
    return (int(np.sum(alive & (pd.dims == 0))),
            int(np.sum(alive & (pd.dims == 1))))


def bottleneck_exhaustive(a: np.ndarray, b: np.ndarray) -> float:
    """Bottleneck distance by trying every partial bijection (<= 6 points)."""
    a = [tuple(p) for p in np.asarray(a, dtype=float).reshape(-1, 2)]
    b = [tuple(p) for p in np.asarray(b, dtype=float).reshape(-1, 2)]

    def diag(p):
        return (p[1] - p[0]) / 2.0

    def dinf(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    na, nb = len(a), len(b)
    best = math.inf
    for k in range(min(na, nb) + 1):
        for sa in itertools.combinations(range(na), k):
            rest_a = max((diag(a[i]) for i in range(na) if i not in sa),
                         default=0.0)
            for sb in itertools.combinations(range(nb), k):
                rest_b = max((diag(b[j]) for j in range(nb) if j not in sb),
                             default=0.0)
                base = max(rest_a, rest_b)
                if base >= best:
                    continue
                for perm in itertools.permutations(sb):
                    cost = base
                    for i, j in zip(sa, perm):
                        cost = max(cost, dinf(a[i], b[j]))
                        if cost >= best:
                            break
                    if cost < best:
                        best = cost
    return best


def density_mass_loop(point_sets, box_side: float, partition: int):
    """Cell masses of the empirical density, binned set by set."""
    w = box_side / partition
    counts = np.zeros((partition, partition))
    total = 0
    for pts in point_sets:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            continue
        assert np.all((pts >= 0) & (pts <= box_side))
        bins = np.minimum(np.floor(pts / w).astype(int), partition - 1)
        np.add.at(counts, (bins[:, 0], bins[:, 1]), 1)
        total += len(pts)
    return counts / total


def rasterize_loop(points, box_side: float, partition: int):
    """Binary occupancy raster, flattened x-bin major."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out = np.zeros(partition * partition)
    if len(pts) == 0:
        return out
    assert np.all((pts >= 0) & (pts <= box_side))
    w = box_side / partition
    bins = np.minimum(np.floor(pts / w).astype(int), partition - 1)
    out[bins[:, 0] * partition + bins[:, 1]] = 1.0
    return out


def bottleneck_style_distortion_loop(point_sets, grid: QuantizerGrid) -> float:
    """Mean over objects of the worst per-point ∞-norm quantization shift."""
    worst = []
    for pts in point_sets:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        centers = grid.centers_of(grid.quantize_points(pts))
        worst.append(float(np.max(np.abs(pts - centers), initial=0.0)))
    if not worst:
        raise EmptyDensity("no objects given")
    return float(np.mean(worst))


def forward_allocating(net: Classifier, X: np.ndarray):
    """-> (probabilities, per-layer activations for backprop)."""
    X = np.asarray(X, dtype=float)
    activations = [X]
    h = X
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ W + b
        h = z if i == len(net.weights) - 1 else np.maximum(z, 0.0)
        activations.append(h)
    logits = activations[-1]
    logits = logits - np.max(logits, axis=1, keepdims=True)
    expz = np.exp(logits)
    probs = expz / np.sum(expz, axis=1, keepdims=True)
    return probs, activations


def loss_and_gradients_allocating(net: Classifier, X: np.ndarray,
                                  y_index: np.ndarray):
    """Mean cross-entropy and each layer's weight and bias gradients."""
    probs, acts = forward_allocating(net, X)
    n = len(X)
    eps = 1e-12
    loss = float(-np.mean(np.log(probs[np.arange(n), y_index] + eps)))
    delta = probs
    delta[np.arange(n), y_index] -= 1.0
    delta /= n
    grads_w, grads_b = [], []
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w.insert(0, acts[i].T @ delta)
        grads_b.insert(0, np.sum(delta, axis=0))
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0)
    return loss, grads_w, grads_b


def train_classifier_all_columns(features: np.ndarray, labels: np.ndarray,
                                 hidden_sizes=(64, 32), epochs: int = 300,
                                 seed: int = 0) -> Classifier:
    """Full-batch ADAM on categorical cross-entropy for a fixed budget."""
    X = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int).ravel()
    if X.ndim != 2 or len(X) != len(labels):
        raise ShapeError("features must be (N, d) aligned with labels")
    present = np.unique(labels)
    for c in range(1, N_CLASSES + 1):
        if c not in present:
            raise ValueError(f"training fold has no example of class {c}")
    y_index = labels - 1

    net = Classifier((X.shape[1], *hidden_sizes, N_CLASSES), seed=seed)
    # weights then biases; parameters, moments and the bias-corrected
    # moments are updated in place, so the update allocates no arrays
    params = net.weights + net.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    m_hat = [np.empty_like(p) for p in params]
    v_hat = [np.empty_like(p) for p in params]
    for epoch in range(epochs):
        loss, gw, gb = loss_and_gradients_allocating(net, X, y_index)
        if not np.isfinite(loss):
            raise TrainingDiverged("loss is not finite", step=epoch)
        net.loss_history.append(loss)
        t = epoch + 1
        for p, g, mi, vi, mh, vh in zip(params, gw + gb, m, v, m_hat, v_hat):
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, with the
            # hat arrays as scratch; then p -= lr m_hat / (sqrt(v_hat) + eps)
            mi *= BETA1
            mi += np.multiply(g, 1 - BETA1, out=mh)
            vi *= BETA2
            vi += np.multiply(np.square(g, out=vh), 1 - BETA2, out=vh)
            np.divide(mi, 1 - BETA1 ** t, out=mh)
            np.divide(vi, 1 - BETA2 ** t, out=vh)
            mh *= LEARNING_RATE
            np.sqrt(vh, out=vh)
            vh += ADAM_EPS
            mh /= vh
            p -= mh
    return net


def train_classifier_per_array(features: np.ndarray, labels: np.ndarray,
                               hidden_sizes, epochs: int,
                               seed: int) -> Classifier:
    """Full-batch ADAM on categorical cross-entropy for a fixed budget.

    Columns that are zero in every training row keep their initial weights:
    the network is drawn at full width, fitted on the other columns, and
    their trained rows of the first weight matrix are scattered back.
    """
    X = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int).ravel()
    if X.ndim != 2 or len(X) != len(labels):
        raise ShapeError("features must be (N, d) aligned with labels")
    present = np.unique(labels)
    for c in range(1, N_CLASSES + 1):
        if c not in present:
            raise ValueError(f"training fold has no example of class {c}")
    y_index = labels - 1

    net = Classifier((X.shape[1], *hidden_sizes, N_CLASSES), seed=seed)
    # drawn at full width, so the kept columns do not change the draw; the
    # fit then runs on a network narrowed to the kept columns
    keep = np.flatnonzero(np.any(X != 0, axis=0))
    W0 = net.weights[0]
    net.weights[0] = W0[keep]
    X = X[:, keep]
    # weights then biases; parameters, moments and the bias-corrected
    # moments are updated in place, so the update allocates no arrays
    params = net.weights + net.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    m_hat = [np.empty_like(p) for p in params]
    v_hat = [np.empty_like(p) for p in params]
    for epoch in range(epochs):
        loss, gw, gb = loss_and_gradients_allocating(net, X, y_index)
        if not np.isfinite(loss):
            raise TrainingDiverged("loss is not finite", step=epoch)
        net.loss_history.append(loss)
        t = epoch + 1
        for p, g, mi, vi, mh, vh in zip(params, gw + gb, m, v, m_hat, v_hat):
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, with the
            # hat arrays as scratch; then p -= lr m_hat / (sqrt(v_hat) + eps)
            mi *= BETA1
            mi += np.multiply(g, 1 - BETA1, out=mh)
            vi *= BETA2
            vi += np.multiply(np.square(g, out=vh), 1 - BETA2, out=vh)
            np.divide(mi, 1 - BETA1 ** t, out=mh)
            np.divide(vi, 1 - BETA2 ** t, out=vh)
            mh *= LEARNING_RATE
            np.sqrt(vh, out=vh)
            vh += ADAM_EPS
            mh /= vh
            p -= mh
    # a saturated fit (g**2 overflows) leaves v infinite and every later
    # step zero at a finite loss; it has learned nothing
    if not all(np.all(np.isfinite(vi)) for vi in v):
        raise TrainingDiverged("ADAM second moment is not finite",
                               step=epochs)
    W0[keep] = net.weights[0]
    net.weights[0] = W0
    return net


def berlekamp_massey_general(code, s: np.ndarray) -> np.ndarray:
    """Error locator polynomial from syndromes s[1..2t] (index = degree)."""
    field = code.field
    n = code.n
    # beyond-capability patterns can push L up to 2t before the degree
    # check rejects them, so the register must hold that many coefficients
    C = np.zeros(2 * code.t + 1, dtype=np.int64)
    B = np.zeros(2 * code.t + 1, dtype=np.int64)
    C[0] = B[0] = 1
    L, shift, b = 0, 1, 1
    for r in range(1, 2 * code.t + 1):
        d = int(s[r])
        if L:
            cj = C[1:L + 1]
            sj = s[r - 1:r - L - 1:-1] if r - L - 1 >= 0 else s[r - 1::-1]
            nz = (cj != 0) & (sj != 0)
            if np.any(nz):
                prods = field.exp[(field.log[cj[nz]] + field.log[sj[nz]]) % n]
                d ^= int(np.bitwise_xor.reduce(prods))
        if d == 0:
            shift += 1
            continue
        # d / b, both nonzero
        coef = int(field.exp[(field.log[d] - field.log[b]) % n])
        log_coef = field.log[coef]
        scaled = np.zeros_like(C)
        nz = np.nonzero(B)[0]
        nz = nz[nz + shift < len(scaled)]
        scaled[nz + shift] = field.exp[(field.log[B[nz]] + log_coef) % n]
        if 2 * L <= r - 1:
            T = C.copy()
            C = C ^ scaled
            L = r - L
            B = T
            b = d
            shift = 1
        else:
            C = C ^ scaled
            shift += 1
    return C[:L + 1]


def berlekamp_massey_lists(code: BchCode, s: np.ndarray) -> np.ndarray:
    """Error locator polynomial from syndromes s[1..2t] (index = degree), as
    L + 1 coefficients for linear complexity L. Binary form: s_2i = s_i^2
    zeroes every even-step discrepancy, so only the odd steps r = 1, 3, ...,
    2t - 1 run and the correction term gains x^2 per step (Lin & Costello,
    binary BCH chapter)."""
    n = code.n
    # exp2[a + b] for logs a, b < n; log is read at nonzero elements only
    exp2 = code.field.exp[:n].tolist() * 2
    log = code.field.log.tolist()
    syn = s.tolist()
    # C, the locator, always holds L + 1 coefficients (the top one may be
    # 0); B is its value before L last grew
    C, B = [1], [1]
    L, shift, log_b = 0, 1, 0
    for r in range(1, 2 * code.t, 2):
        d = syn[r]
        for c, sj in zip(C[1:], reversed(syn[r - L:r])):
            if c != 0 and sj != 0:
                d ^= exp2[log[c] + log[sj]]
        if d:
            log_coef = (log[d] - log_b) % n
            term = [0] * shift + [exp2[log[x] + log_coef] if x else 0
                                  for x in B]
            C, prev = [a ^ b for a, b in zip_longest(C, term, fillvalue=0)], C
            if 2 * L <= r - 1:
                B, L, log_b, shift = prev, r - L, log[d], 0
        shift += 2
    return np.array(C, dtype=np.int64)


def syndromes_by_products(code, positions: np.ndarray) -> np.ndarray:
    """s_i = r(alpha^i) for i = 1..2t; even i via Frobenius squaring."""
    field = code.field
    n = code.n
    s = np.zeros(2 * code.t + 1, dtype=np.int64)
    odd = np.arange(1, 2 * code.t + 1, 2)
    if len(positions):
        exps = (odd[:, None] * positions[None, :]) % n
        s[odd] = np.bitwise_xor.reduce(field.exp[exps], axis=1)
    for i in range(2, 2 * code.t + 1, 2):
        v = s[i // 2]
        s[i] = field.exp[(2 * field.log[v]) % n] if v else 0
    return s


def chien_roots_by_products(code, locator: np.ndarray) -> np.ndarray:
    """The i in 0..n-1 with locator(alpha^i) = 0, ascending."""
    field = code.field
    n = code.n
    js = np.nonzero(locator)[0]
    logs = field.log[locator[js]]
    evals = (np.arange(n, dtype=np.int64)[:, None] * js[None, :] + logs[None, :]) % n
    values = np.bitwise_xor.reduce(field.exp[evals], axis=1)
    return np.nonzero(values == 0)[0]


def bch_decode_by_products(code, received: np.ndarray):
    """-> (message bits, corrected error count); DecodeFailure when the
    error pattern is beyond the code's reach."""
    r = np.asarray(received, dtype=np.uint8).ravel().copy()
    if len(r) != code.n:
        raise ShapeError(f"received word must have {code.n} bits, got {len(r)}")
    positions = np.nonzero(r)[0].astype(np.int64)
    s = syndromes_by_products(code, positions)
    if not np.any(s[1:]):
        return r[code.n - code.k:], 0
    locator = berlekamp_massey_general(code, s)
    deg = len(locator) - 1
    if deg > code.t:
        raise DecodeFailure(
            f"locator degree {deg} exceeds capability t={code.t}"
        )
    n = code.n
    roots = chien_roots_by_products(code, locator)
    if len(roots) != deg:
        raise DecodeFailure(
            f"locator degree {deg} but {len(roots)} roots found"
        )
    error_positions = (n - roots) % n
    r[error_positions] ^= 1
    return r[code.n - code.k:], int(deg)


def bch_encode_by_poly_mod(code: BchCode, message: np.ndarray) -> np.ndarray:
    """Systematic codeword: message in the top k coefficients, parity below."""
    message = as_bits(message, "message")
    if len(message) != code.k:
        raise ShapeError(f"message must have {code.k} bits, got {len(message)}")
    shifted = bits_to_int(message) << (code.n - code.k)
    parity = _gf2_poly_mod(shifted, code.generator)
    return int_to_bits(shifted | parity, code.n)


def bits_to_int_reversed(bits: np.ndarray) -> int:
    """Pack a coefficient array (index = degree) into a Python int."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if len(bits) == 0:
        return 0
    rev = bits[::-1]
    pad = (-len(rev)) % 8
    if pad:
        rev = np.concatenate([np.zeros(pad, dtype=np.uint8), rev])
    return int.from_bytes(np.packbits(rev).tobytes(), "big")


def int_to_bits_reversed(x: int, width: int) -> np.ndarray:
    """Inverse of bits_to_int, producing exactly `width` coefficients."""
    raw = x.to_bytes((width + 7) // 8, "big")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    return arr[len(arr) - width:][::-1].copy()


def bch_encode_blocks(code, bits: np.ndarray) -> np.ndarray:
    """`bits` zero-padded to whole k-bit blocks, encoded block by block."""
    if len(bits) % code.k:
        pad = code.k - len(bits) % code.k
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    words = [bch_encode(code, bits[i:i + code.k])
             for i in range(0, len(bits), code.k)]
    return np.array(words, dtype=np.uint8).ravel()


def bch_decode_blocks(code, bits: np.ndarray):
    """-> (messages of whole n-bit blocks, failed block count)."""
    out, failures = [], 0
    for i in range(0, len(bits), code.n):
        msg, _, failed = decode_or_passthrough(code, bits[i:i + code.n])
        failures += int(failed)
        out.append(msg)
    return np.array(out, dtype=np.uint8).ravel(), failures


def canonical_codewords(symbols: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
    """Codeword values aligned with `symbols`: consecutive integers in
    (length, symbol) order, shifted left at each length step."""
    sym = np.asarray(symbols, dtype=int)
    lengths = np.asarray(lengths, dtype=int)
    # canonical reassignment: consecutive codewords in (length, symbol) order
    rank = np.lexsort((sym, lengths))
    codewords = np.zeros(len(sym), dtype=object)
    code = 0
    prev_len = int(lengths[rank[0]])
    for pos, idx in enumerate(rank):
        if pos:
            code = (code + 1) << (int(lengths[idx]) - prev_len)
            prev_len = int(lengths[idx])
        codewords[idx] = code
    return codewords


def huffman_decode_bitwalk(code, bits: np.ndarray,
                           max_symbols: int) -> np.ndarray:
    """Greedy prefix walk over a bit array, looking each prefix up in a
    (length -> codeword -> symbol) table; stops after `max_symbols`
    symbols, at a prefix longer than any codeword, or at the end of the
    bits, dropping a truncated final codeword."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    by_length: dict[int, dict[int, int]] = {}
    for s, l, c in zip(code.symbols, code.lengths,
                       canonical_codewords(code.symbols, code.lengths)):
        by_length.setdefault(int(l), {})[int(c)] = int(s)
    max_len = int(np.max(code.lengths))
    out = []
    i = 0
    acc = 0
    length = 0
    n = len(bits)
    while i < n and len(out) < max_symbols:
        acc = (acc << 1) | int(bits[i])
        length += 1
        i += 1
        hit = by_length.get(length, {}).get(acc)
        if hit is not None:
            out.append(hit)
            acc = 0
            length = 0
        elif length > max_len:
            break
    return np.array(out, dtype=int)


def first_codes(lengths: np.ndarray) -> list:
    """first[l], the value of the first codeword of length l, by the
    first-code rule: first[l] = (first[l - 1] + count[l - 1]) << 1, with
    count[l] codewords of length l."""
    count = np.bincount(np.asarray(lengths, dtype=int)).tolist()
    first = [0] * len(count)
    for l in range(1, len(count)):
        first[l] = (first[l - 1] + count[l - 1]) << 1
    return first


def huffman_decode_per_bit(code, bits: np.ndarray,
                           max_symbols: int) -> np.ndarray:
    """Greedy prefix walk over a bit array, one bit per step, that stops
    after `max_symbols` symbols and ignores the surplus bits.

    The codewords come from `code.symbols` and `code.lengths` alone: in
    (length, symbol) order, those of length l are first[l], first[l] + 1,
    and so on (`first_codes`). The walk looks each (length, prefix) up in
    that map; it tolerates bits damaged by a noisy channel: it stops at a
    prefix longer than any codeword and drops a truncated final codeword.
    """
    first = first_codes(code.lengths)
    by_prefix, rank = {}, {}
    for l, s in sorted(zip(np.asarray(code.lengths).tolist(),
                           np.asarray(code.symbols).tolist())):
        by_prefix[l, first[l] + rank.get(l, 0)] = s
        rank[l] = rank.get(l, 0) + 1
    out = []
    acc = length = 0
    for bit in np.asarray(bits, dtype=np.uint8).ravel().tolist():
        if len(out) >= max_symbols:
            break
        acc = (acc << 1) | bit
        length += 1
        if length == len(first):  # longer than the longest codeword
            break
        if (length, acc) in by_prefix:
            out.append(by_prefix[length, acc])
            acc = length = 0
    return np.array(out, dtype=int)


def codeword_lengths_leaf_lists(p: np.ndarray) -> np.ndarray:
    """Huffman merge with deterministic tie-breaking, returning bit lengths."""
    n = len(p)
    if n == 1:
        return np.array([1])
    # heap entries are (probability, node id); ties go to the older node
    heap = [(float(p[i]), i) for i in range(n)]
    heapq.heapify(heap)
    leaves = [[i] for i in range(n)]  # node id -> the symbols below it
    lengths = np.zeros(n, dtype=int)
    while len(heap) > 1:
        pa, a = heapq.heappop(heap)
        pb, b = heapq.heappop(heap)
        merged = leaves[a] + leaves[b]
        lengths[merged] += 1
        heapq.heappush(heap, (pa + pb, len(leaves)))
        leaves.append(merged)
    return lengths


def channel_features(points: np.ndarray, box_side: float) -> np.ndarray:
    """Top-k reduction of weighted tent evaluations for one channel.

    Each tent evaluates max(0, BANDWIDTH - ||(b, d - b) - center||_inf) and
    is scaled by persistence^WEIGHT_EXPONENT; a channel with fewer than
    TOP_K points is padded with zeros.
    """
    n = N_BIRTH * N_PERS
    if len(points) == 0:
        return np.zeros(TOP_K * n)
    birth = points[:, 0]
    pers = points[:, 1] - points[:, 0]
    # tent centers in (birth, persistence), birth-major
    b = (np.arange(N_BIRTH) + 0.5) * (box_side / N_BIRTH)
    p = (np.arange(N_PERS) + 0.5) * (box_side / N_PERS)
    bb, pp = np.meshgrid(b, p, indexing="ij")
    centers = np.column_stack([bb.ravel(), pp.ravel()])
    d_inf = np.maximum(
        np.abs(birth[:, None] - centers[None, :, 0]),
        np.abs(pers[:, None] - centers[None, :, 1]),
    )
    tents = np.maximum(0.0, BANDWIDTH - d_inf)
    weighted = (pers ** WEIGHT_EXPONENT)[:, None] * tents
    if len(points) < TOP_K:
        weighted = np.vstack([weighted, np.zeros((TOP_K - len(points), n))])
    # descending sort per tent, keep the k largest
    top = -np.sort(-weighted, axis=0)[:TOP_K]
    return top.reshape(-1)


def perslay_vectorize_per_degree(diagram: PersistenceDiagram,
                                 box_side: float) -> np.ndarray:
    """Permutation-invariant feature vector, degree 0 then degree 1; empty
    channels map to zeros."""
    return np.concatenate([
        channel_features(diagram.points(0), box_side),
        channel_features(diagram.points(1), box_side),
    ])


def _cells(grid: QuantizerGrid, points, collapse_duplicates: bool):
    idx = grid.quantize_points(points)
    return np.unique(idx) if collapse_duplicates else idx


def quantize_diagram_per_degree(grid: QuantizerGrid,
                                diagram: PersistenceDiagram, *,
                                collapse_duplicates: bool = False
                                ) -> QuantizedPointSet:
    """Quantize a diagram's (birth, death) points, degree 0 then degree 1."""
    parts = [_cells(grid, diagram.points(dim), collapse_duplicates)
             for dim in (0, 1)]
    return QuantizedPointSet(indices=np.concatenate(parts),
                             channel_counts=tuple(len(p) for p in parts))


def diagram_from_symbols_via_centers(grid: QuantizerGrid, indices: np.ndarray,
                                     channel_counts: tuple
                                     ) -> PersistenceDiagram:
    """Rebuild a (possibly corrupted) diagram from decoded cell indices.

    Decoded cell centers can land below the diagonal; no class is flagged
    essential.
    """
    idx = np.asarray(indices, dtype=int).ravel()
    if sum(channel_counts) != len(idx):
        raise ShapeError(
            f"channel counts {channel_counts} do not partition {len(idx)} symbols"
        )
    centers = grid.centers_of(idx)
    dims = np.repeat(np.arange(len(channel_counts)),
                     np.array(channel_counts, dtype=int))
    return PersistenceDiagram(births=centers[:, 0], deaths=centers[:, 1],
                              dims=dims,
                              essential=np.zeros(len(idx), dtype=bool))
