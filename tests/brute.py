"""Small brute-force oracles shared between unit and acceptance tests.

Everything here is the slow-but-obviously-correct version of something the
package computes cleverly: GF(2) Betti numbers straight from boundary-matrix
ranks, the persistence diagram of a filtration by reducing every triangle
column against edge rows (homology, where the package reduces edge
coboundaries), bottleneck distance by enumerating every partial matching (or
every bijection, for the strict mode), the density histogram and
occupancy raster by their own floor-and-clamp binning rather than through
the quantizer grid, and the BCH error locator by the general 2t-step
Berlekamp-Massey (the package runs the t-step binary form). That last one
is the package's former `_berlekamp_massey`, moved here verbatim except
that the field inverse of b is inlined as exp[(n - log[b]) % n]. The BCH
syndromes and Chien search by multiplying exponents and reducing them mod n
on every call (the package gathers from tables built once per code) are the
package's former `_syndromes` body and Chien evaluation, moved here
verbatim, and `bch_decode_by_products` is the package's former
`bch_decode` built from them and the general Berlekamp-Massey.

The canonical Huffman codewords by walking the symbols in (length, symbol)
order and the Huffman decoder that walks the bits against a table of every
codeword (the package derives both from first-code tables) are the
package's former `build_huffman` reassignment loop and `huffman_decode`,
moved here verbatim.

The Vietoris-Rips filtration that sorts edges and triangles by
(diameter, vertex tuple) with `np.lexsort` and counts triangles for the
budget with an adjacency matrix product (the package enumerates in
lexicographic order, sorts once by diameter with a stable sort, and counts
while enumerating) is the package's former `build_vr_filtration`, moved
here verbatim as `filtration_by_lexsort`.
"""

import itertools
import math

import numpy as np

from pdsemcom.errors import (BudgetExceeded, DecodeError, DecodeFailure,
                             ShapeError)
from pdsemcom.homology import (DEFAULT_GAMMA_MAX, DEFAULT_SIMPLEX_BUDGET,
                               Filtration, PersistenceDiagram)


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


def filtration_by_lexsort(points: np.ndarray, gamma_max: float = DEFAULT_GAMMA_MAX,
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

    return Filtration(n_vertices=n, edges=edges, edge_values=edge_values,
                      triangles=tri, triangle_values=tri_values,
                      gamma_max=float(gamma_max))


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
    if len(filtration.triangles):
        edge_pos = {}
        for pos, (a, b) in enumerate(edges):
            edge_pos[(int(a), int(b))] = pos
        pivots: dict[int, int] = {}
        tvals = filtration.triangle_values
        for t in range(len(filtration.triangles)):
            i, j, k = (int(v) for v in filtration.triangles[t])
            col = ((1 << edge_pos[(i, j)]) | (1 << edge_pos[(i, k)])
                   | (1 << edge_pos[(j, k)]))
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    paired[low] = True
                    if evals[low] < tvals[t]:
                        births.append(float(evals[low]))
                        deaths.append(float(tvals[t]))
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
                              essential=es[order], gamma_max=gmax)


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


def bottleneck_strict_permutations(a: np.ndarray, b: np.ndarray) -> float:
    """Point-to-point bottleneck distance: the best of every bijection
    between two equal-size diagrams (<= 6 points)."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    assert len(a) == len(b)
    return min((max((float(np.max(np.abs(a[i] - b[j])))
                     for i, j in enumerate(perm)), default=0.0)
                for perm in itertools.permutations(range(len(b)))))


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
        coef = field.mult(d, int(field.exp[(n - field.log[b]) % n]))
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
                           max_symbols: int | None = None,
                           strict: bool = True) -> np.ndarray:
    """Greedy prefix walk over a bit array, looking each prefix up in a
    (length -> codeword -> symbol) table."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    by_length: dict[int, dict[int, int]] = {}
    for s, l, c in zip(code.symbols, code.lengths, code.codewords):
        by_length.setdefault(int(l), {})[int(c)] = int(s)
    max_len = int(np.max(code.lengths))
    out = []
    i = 0
    start = 0
    acc = 0
    length = 0
    n = len(bits)
    while i < n:
        if max_symbols is not None and len(out) >= max_symbols:
            break
        acc = (acc << 1) | int(bits[i])
        length += 1
        i += 1
        hit = by_length.get(length, {}).get(acc)
        if hit is not None:
            out.append(hit)
            acc = 0
            length = 0
            start = i
        elif length > max_len:
            if strict:
                raise DecodeError("no codeword matches", bit_offset=start)
            return np.array(out, dtype=int)
    if length and strict and (max_symbols is None or len(out) < max_symbols):
        raise DecodeError("stream ends mid-codeword", bit_offset=start)
    return np.array(out, dtype=int)
