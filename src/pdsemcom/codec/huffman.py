"""Canonical Huffman coding over quantizer cell indices.

Codeword lengths come from the usual two-smallest merge, and they fix the
canonical code: in (length, symbol) order the codewords are consecutive
integers, and with count[l] codewords of length l the first of length l is
first[l] = (first[l-1] + count[l-1]) << 1 (Moffat & Turpin, 1997). So
encoder and decoder rebuild the identical code from the probability vector
alone. A single-symbol alphabet gets the codeword 0.

The decoder reads one codeword per step, not one bit. Left-justified to the
longest length lmax, the codewords of length l fill the interval
[limit[l-1], limit[l]) with limit[l] = (first[l] + count[l]) << (lmax - l),
so the length of the codeword at the head of the bits is the smallest l
whose limit exceeds the next lmax bits. A first-level table over the next
min(lmax, 10) bits gives the symbol and length of every codeword that
short; a longer one is found by bisecting the limits.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError, probability_vector

# bits indexed by the decoder's first-level table
TABLE_BITS = 10


@dataclass(frozen=True, eq=False)
class HuffmanCode:
    """Canonical prefix code given by its symbols and codeword lengths.

    Derived once per code by the first-code rule: `words` (symbol -> bit
    string) and the decoder's tables: `ordered`, the symbols in (length,
    symbol) order; `base[l]` = start[l] - first[l] by length l, where the
    symbols of length l begin at start[l] in `ordered`, so the l-bit
    codeword c is the symbol ordered[base[l] + c]; `limits`, the
    left-justified limits of lengths 1..lmax; and the first-level table
    `lookup`, which maps the next `table_bits` bits to (length, symbol) of
    the codeword they start, or to (0, 0) when that codeword is longer or
    there is none.
    Two codes are equal when their symbols and lengths are, since those
    fix everything else.
    """

    symbols: np.ndarray    # sorted ascending
    lengths: np.ndarray
    base: list = field(init=False, repr=False)
    ordered: list = field(init=False, repr=False)
    limits: list = field(init=False, repr=False)
    table_bits: int = field(init=False, repr=False)
    lookup: list = field(init=False, repr=False)
    words: dict = field(init=False, repr=False)

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=int).ravel()
        lens = np.asarray(self.lengths, dtype=int).ravel()
        if len(sym) != len(lens):
            raise ShapeError("symbol and length arrays differ in length")
        if len(sym) == 0:
            raise ValueError("alphabet is empty")
        if np.any(lens < 1):
            raise ValueError("codeword lengths must be at least 1")
        kraft = float(np.sum(2.0 ** (-lens)))
        if len(sym) > 1 and abs(kraft - 1.0) > 1e-12:
            raise ValueError(f"Kraft sum is {kraft}, expected 1")
        count = np.bincount(lens).tolist()
        first, start = [0] * len(count), [0] * len(count)
        for l in range(1, len(count)):
            first[l] = (first[l - 1] + count[l - 1]) << 1
            start[l] = start[l - 1] + count[l - 1]
        base = [s - f for s, f in zip(start, first)]
        order = np.lexsort((sym, lens))
        ordered = sym[order]
        cw = np.empty(len(sym), dtype=object)
        cw[order] = [rank - base[l]
                     for rank, l in enumerate(lens[order].tolist())]
        lmax = len(count) - 1
        k = min(lmax, TABLE_BITS)
        # each k-bit prefix's codeword length is the smallest l <= k whose
        # limit, cut to k bits, exceeds the prefix; 0 marks a longer one
        prefix = np.arange(1 << k)
        cut = [(first[l] + count[l]) << (k - l) for l in range(1, k + 1)]
        plen = np.searchsorted(cut, prefix, side="right") + 1
        plen[plen > k] = 0
        short = np.flatnonzero(plen)
        ls = plen[short]
        symbol = np.zeros(1 << k, dtype=int)
        symbol[short] = ordered[np.array(base)[ls] + (short >> (k - ls))]
        for arr in (sym, lens):
            arr.setflags(write=False)
        derived = dict(symbols=sym, lengths=lens, base=base,
                       ordered=ordered.tolist(),
                       limits=[(first[l] + count[l]) << (lmax - l)
                               for l in range(1, lmax + 1)],
                       table_bits=k,
                       lookup=list(zip(plen.tolist(), symbol.tolist())),
                       words={s: format(c, f"0{l}b") for s, c, l
                              in zip(sym.tolist(), cw, lens.tolist())})
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, HuffmanCode):
            return NotImplemented
        return (np.array_equal(self.symbols, other.symbols)
                and np.array_equal(self.lengths, other.lengths))

    def __hash__(self):
        return hash((self.symbols.tobytes(), self.lengths.tobytes()))

    def expected_length(self, p: np.ndarray) -> float:
        """Mean codeword length under the full probability vector the code
        was built from: symbol s has probability p[s - 1]."""
        p = np.asarray(p, dtype=float).ravel()
        if len(p) < self.symbols[-1]:
            raise ShapeError(f"probability vector has {len(p)} entries; "
                             f"symbol {self.symbols[-1]} needs more")
        return float(np.sum(p[self.symbols - 1] * self.lengths))

    def table(self) -> dict:
        """symbol -> codeword bit string, for display and tests."""
        return dict(self.words)


def _codeword_lengths(p: np.ndarray) -> np.ndarray:
    """Huffman merge with deterministic tie-breaking, returning bit lengths.

    Merge j makes node n + j, the parent of the two nodes it merges; a
    parent's id exceeds its children's, so one pass down from the root
    gives every depth.
    """
    n = len(p)
    if n == 1:
        return np.array([1])
    # heap entries are (probability, node id); ties go to the older node
    heap = list(zip(p.tolist(), range(n)))
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        pa, a = heapq.heappop(heap)
        pb, b = heap[0]
        heapq.heapreplace(heap, (pa + pb, node))
        parent[a] = parent[b] = node
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return np.array(depth[:n])


def build_huffman(p: np.ndarray) -> HuffmanCode:
    """Optimal canonical prefix code over the positive-probability alphabet.

    Symbols are 1-based positions in `p` (matching quantizer cell indices
    when `p` is a full cell-probability vector).
    """
    p = probability_vector(p)  # so at least one entry is positive
    keep = p > 0
    return HuffmanCode(symbols=np.nonzero(keep)[0] + 1,
                       lengths=_codeword_lengths(p[keep]))


def huffman_encode(code: HuffmanCode, symbols: np.ndarray) -> np.ndarray:
    """Concatenated codeword bits (uint8 array) for a symbol sequence."""
    symbols = np.asarray(symbols, dtype=int).ravel().tolist()
    try:
        text = "".join([code.words[s] for s in symbols])
    except KeyError as exc:
        raise ValueError(
            f"symbol {exc.args[0]} is not in the alphabet") from None
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def huffman_decode(code: HuffmanCode, bits: np.ndarray,
                   max_symbols: int) -> np.ndarray:
    """Greedy prefix decode over a bit array, one codeword per step, that
    stops after `max_symbols` symbols and ignores the surplus bits.

    Each step reads the next lmax bits v, zero-padded past the end: the
    first-level table gives the codeword's length l and symbol when l is
    at most `table_bits`, and otherwise l is the smallest length with
    v < limits[l - 1] and the symbol is ordered[base[l] + (v >> (lmax - l))].
    The decode tolerates bits damaged by a noisy channel: it stops at a
    prefix longer than any codeword (no limit exceeds v) and drops a
    truncated final codeword (one that reaches into the padding).
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    n = len(bits)
    lmax = len(code.limits)
    # the bits as one integer, padded to whole bytes and then by lmax zeros;
    # bit `pos` starts the window (word >> (top - pos)) & mask
    top = -(-n // 8) * 8
    word = int.from_bytes(np.packbits(bits).tobytes(), "big") << lmax
    mask = (1 << lmax) - 1
    head = top + lmax - code.table_bits
    head_mask = (1 << code.table_bits) - 1
    lookup, limits = code.lookup, code.limits
    out = []
    pos = 0
    # at pos == n the window is all padding, which starts the all-zero
    # codeword, so the truncation test below also ends the bits
    for _ in range(max_symbols):
        length, symbol = lookup[(word >> (head - pos)) & head_mask]
        if not length:
            v = (word >> (top - pos)) & mask
            length = bisect_right(limits, v) + 1
            if length > lmax:  # longer than the longest codeword
                break
            symbol = code.ordered[code.base[length] + (v >> (lmax - length))]
        pos += length
        if pos > n:
            break
        out.append(symbol)
    return np.array(out, dtype=int)
