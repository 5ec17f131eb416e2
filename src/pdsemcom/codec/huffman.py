"""Canonical Huffman coding over quantizer cell indices.

Codeword lengths come from the usual two-smallest merge, and they fix the
canonical code: in (length, symbol) order the codewords are consecutive
integers, and with count[l] codewords of length l the first of length l is
first[l] = (first[l-1] + count[l-1]) << 1 (Moffat & Turpin, 1997). So
encoder and decoder rebuild the identical code from the probability vector
alone. A single-symbol alphabet gets the codeword 0.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError, probability_vector


@dataclass(frozen=True, eq=False)
class HuffmanCode:
    """Canonical prefix code given by its symbols and codeword lengths.

    Derived once per code by the first-code rule: `words` (symbol -> bit
    string) and the decoder's tables by length l: `first[l]`, `count[l]`
    and `start[l]`, where the symbols of length l begin in `ordered`, the
    symbols in (length, symbol) order.
    Two codes are equal when their symbols and lengths are, since those
    fix everything else.
    """

    symbols: np.ndarray    # sorted ascending
    lengths: np.ndarray
    first: list = field(init=False, repr=False)
    count: list = field(init=False, repr=False)
    start: list = field(init=False, repr=False)
    ordered: list = field(init=False, repr=False)
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
        order = np.lexsort((sym, lens))
        cw = np.empty(len(sym), dtype=object)
        cw[order] = [first[l] + rank - start[l]
                     for rank, l in enumerate(lens[order].tolist())]
        for arr in (sym, lens):
            arr.setflags(write=False)
        derived = dict(symbols=sym, lengths=lens, first=first,
                       count=count, start=start, ordered=sym[order].tolist(),
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
    """Greedy prefix walk over a bit array, one bit per step, that stops
    after `max_symbols` symbols and ignores the surplus bits.

    The l-bit prefix v is the codeword of ordered[start[l] + v - first[l]]
    when v - first[l] < count[l]; a prefix that is no codeword is at least
    first[l] + count[l], so v - first[l] is never negative. The walk
    tolerates bits damaged by a noisy channel: it stops at a prefix longer
    than any codeword and drops a truncated final codeword.
    """
    first, count, start_of = code.first, code.count, code.start
    out = []
    acc = length = 0
    for bit in np.asarray(bits, dtype=np.uint8).ravel().tolist():
        if len(out) >= max_symbols:
            break
        acc = (acc << 1) | bit
        length += 1
        if length == len(count):  # longer than the longest codeword
            break
        offset = acc - first[length]
        if offset < count[length]:
            out.append(code.ordered[start_of[length] + offset])
            acc = length = 0
    return np.array(out, dtype=int)
