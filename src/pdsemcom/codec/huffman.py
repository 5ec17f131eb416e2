"""Canonical Huffman coding over quantizer cell indices.

Codeword lengths come from the usual two-smallest merge; codewords are then
reassigned canonically (sorted by length, then symbol) so that encoder and
decoder rebuild the identical code from the probability vector alone. A
single-symbol alphabet gets the 1-bit codeword 0.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import DecodeError, ShapeError


@dataclass(frozen=True)
class HuffmanCode:
    """Canonical prefix code: parallel arrays of symbols, lengths, codewords."""

    symbols: np.ndarray    # sorted ascending
    lengths: np.ndarray
    codewords: np.ndarray  # codeword value, MSB-first within its length

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=int).ravel()
        lens = np.asarray(self.lengths, dtype=int).ravel()
        cw = np.asarray(self.codewords, dtype=object).ravel()
        if not (len(sym) == len(lens) == len(cw)):
            raise ShapeError("symbol/length/codeword arrays differ in length")
        if len(sym) == 0:
            raise ValueError("alphabet is empty")
        kraft = float(np.sum(2.0 ** (-lens)))
        if len(sym) > 1 and abs(kraft - 1.0) > 1e-12:
            raise ValueError(f"Kraft sum is {kraft}, expected 1")
        for name, arr in (("symbols", sym), ("lengths", lens),
                          ("codewords", cw)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def expected_length(self, p: np.ndarray) -> float:
        """Mean codeword length under probabilities aligned with `symbols`."""
        p = np.asarray(p, dtype=float).ravel()
        if len(p) != len(self.symbols):
            raise ShapeError("probability vector does not match alphabet")
        return float(np.sum(p * self.lengths))

    def table(self) -> dict:
        """symbol -> codeword bit string, for display and tests."""
        return {
            int(s): format(int(c), f"0{int(l)}b")
            for s, l, c in zip(self.symbols, self.lengths, self.codewords)
        }


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
    p = np.asarray(p, dtype=float).ravel()
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {np.sum(p)}, expected 1")
    keep = p > 0
    if not np.any(keep):
        raise ValueError("no symbol has positive probability")
    sym = np.nonzero(keep)[0] + 1
    lengths = _codeword_lengths(p[keep])

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
    return HuffmanCode(symbols=sym, lengths=lengths, codewords=codewords)


def huffman_encode(code: HuffmanCode, symbols: np.ndarray) -> np.ndarray:
    """Concatenated codeword bits (uint8 array) for a symbol sequence."""
    symbols = np.asarray(symbols, dtype=int).ravel()
    if len(symbols) == 0:
        return np.empty(0, dtype=np.uint8)
    pos = np.searchsorted(code.symbols, symbols)
    bad = (pos >= len(code.symbols)) | (code.symbols[np.minimum(pos, len(code.symbols) - 1)] != symbols)
    if np.any(bad):
        raise ValueError(f"symbol {symbols[bad][0]} is not in the alphabet")
    out = []
    for i in pos:
        length = int(code.lengths[i])
        cw = int(code.codewords[i])
        out.append(np.array([(cw >> (length - 1 - b)) & 1 for b in range(length)],
                            dtype=np.uint8))
    return np.concatenate(out)


def huffman_decode(code: HuffmanCode, bits: np.ndarray,
                   max_symbols: int | None = None,
                   strict: bool = True) -> np.ndarray:
    """Greedy prefix walk over a bit array.

    Strict mode raises DecodeError (with the bit offset) on an impossible
    prefix or a truncated final codeword. Tolerant mode, used after noisy
    channels, drops the partial tail instead. `max_symbols` stops the walk
    early and ignores surplus bits.
    """
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
