"""Binary BCH codes: generator construction, systematic encode, and
syndrome decoding (the t-step binary Berlekamp-Massey plus Chien search).

Bit arrays are uint8 with index i holding the coefficient of x^i, so the
systematic message occupies the top k positions of a codeword. Decoding
corrects up to the designed capability t; when the error locator's degree
disagrees with its root count the decoder raises DecodeFailure and the
caller decides whether to pass the systematic bits through.

Decoding reads tables built once per code, so a block costs gathers and
XOR-reductions with no multiply or modulo per element: the odd syndromes
are one gather of `powers` rows at the received word's 1-positions, the
Chien search adds the log of each locator coefficient lambda_j to row j of
`ij` (i * j mod n) and looks the sums up in `exp2`, the exp table doubled
to length 2n, and Berlekamp-Massey forms every product as
exp2[log a + log b] too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from itertools import zip_longest

import numpy as np

from ..errors import CapacityExceeded, DecodeFailure, ShapeError, read_table
from .galois import GaloisField

CODE_TABLE_RESOURCE = "bch_1023_codes.csv"


def bits_to_int(bits: np.ndarray) -> int:
    """Pack a coefficient array (index = degree) into a Python int."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if len(bits) == 0:
        return 0
    rev = bits[::-1]
    pad = (-len(rev)) % 8
    if pad:
        rev = np.concatenate([np.zeros(pad, dtype=np.uint8), rev])
    return int.from_bytes(np.packbits(rev).tobytes(), "big")


def int_to_bits(x: int, width: int) -> np.ndarray:
    """Inverse of bits_to_int, producing exactly `width` coefficients."""
    raw = x.to_bytes((width + 7) // 8, "big")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    return arr[len(arr) - width:][::-1].copy()


def _gf2_poly_mod(a: int, g: int) -> int:
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def _gf2_poly_mult(a: int, b: int) -> int:
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _cyclotomic_coset(i: int, n: int) -> frozenset:
    coset = set()
    x = i % n
    while x not in coset:
        coset.add(x)
        x = (2 * x) % n
    return frozenset(coset)


def _minimal_poly(field: GaloisField, coset) -> int:
    """Minimal polynomial of alpha^i over GF(2), as a bit mask."""
    poly = [1]
    for j in sorted(coset):
        root = field.pow_alpha(j)
        nxt = [0] * (len(poly) + 1)
        for deg, c in enumerate(poly):
            if c:
                nxt[deg + 1] ^= c
                nxt[deg] ^= field.mult(c, root)
        poly = nxt
    if any(c not in (0, 1) for c in poly):
        raise AssertionError("minimal polynomial has coefficients outside GF(2)")
    mask = 0
    for deg, c in enumerate(poly):
        mask |= c << deg
    return mask


@dataclass(frozen=True)
class BchCode:
    """An (n, k, t) binary BCH code over GF(2^m) with n = 2^m - 1.

    Derived once per code, as read-only int16 arrays left out of the
    constructor, repr, equality and hash, for the decoder:
    `powers[p, j]` = alpha^((2j + 1) p), shape n x t, the contribution of
    a 1 at position p to the odd syndrome s_(2j+1); `ij[j, i]` = i j mod n,
    shape (t + 1) x n, the log of (alpha^i)^j for the Chien search, one
    contiguous row per locator term; and `exp2`, the field's exp table
    repeated to length 2n, so that a sum of two logs needs no modulo.
    """

    field: GaloisField
    n: int
    k: int
    t: int
    generator: int
    powers: np.ndarray = dataclass_field(init=False, repr=False, compare=False)
    ij: np.ndarray = dataclass_field(init=False, repr=False, compare=False)
    exp2: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n != self.field.order:
            raise ValueError(f"length {self.n} must equal 2^m - 1 = {self.field.order}")
        if self.generator.bit_length() - 1 != self.n - self.k:
            raise ValueError("generator degree must be n - k")
        if _gf2_poly_mod((1 << self.n) | 1, self.generator) != 0:
            raise ValueError("generator must divide x^n + 1")
        i = np.arange(self.n, dtype=np.int32)
        odd = np.arange(1, 2 * self.t, 2, dtype=np.int32)
        exp2 = np.tile(self.field.exp.astype(np.int16), 2)
        tables = dict(powers=exp2[np.outer(i, odd) % self.n],
                      ij=(np.outer(np.arange(self.t + 1, dtype=np.int32), i)
                          % self.n).astype(np.int16),
                      exp2=exp2)
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)


def bch_generator(m_gf: int, t: int) -> BchCode:
    """Designed-distance construction: g = lcm of the minimal polynomials
    of alpha, alpha^2, ..., alpha^2t."""
    field = GaloisField(m_gf)
    if t < 1:
        raise ValueError(f"capability must be at least 1, got {t}")
    n = field.order
    cosets = []
    seen = set()
    for i in range(1, 2 * t + 1):
        c = _cyclotomic_coset(i, n)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    g = 1
    for c in cosets:
        g = _gf2_poly_mult(g, _minimal_poly(field, c))
    k = n - (g.bit_length() - 1)
    if k <= 0:
        raise CapacityExceeded(
            f"capability {t} leaves no message bits (degree {g.bit_length() - 1} >= {n})"
        )
    code = BchCode(field=field, n=n, k=k, t=t, generator=g)
    # every power alpha^1..alpha^2t must be a root of g: g's syndromes vanish
    s = _syndromes(code, np.nonzero(int_to_bits(g, g.bit_length()))[0])
    not_roots = np.nonzero(s[1:])[0]
    if len(not_roots):
        raise AssertionError(
            f"alpha^{not_roots[0] + 1} is not a root of the generator")
    return code


def _bits(word, what: str) -> np.ndarray:
    """`word` flattened to a fresh uint8 array; ShapeError if any entry is
    not 0 or 1 (checked before the cast, which would wrap 256 to 0 and
    truncate 0.5 to 0)."""
    word = np.asarray(word).ravel()
    if np.any((word != 0) & (word != 1)):
        raise ShapeError(f"{what} must hold only 0s and 1s")
    return word.astype(np.uint8)


def bch_encode(code: BchCode, message: np.ndarray) -> np.ndarray:
    """Systematic codeword: message in the top k coefficients, parity below."""
    message = _bits(message, "message")
    if len(message) != code.k:
        raise ShapeError(f"message must have {code.k} bits, got {len(message)}")
    shifted = bits_to_int(message) << (code.n - code.k)
    parity = _gf2_poly_mod(shifted, code.generator)
    return int_to_bits(shifted | parity, code.n)


def _syndromes(code: BchCode, positions: np.ndarray) -> np.ndarray:
    """s_i = r(alpha^i) for i = 1..2t: odd i by one gather of `powers`
    rows, even i via Frobenius squaring s_2i = s_i^2, one slice per power
    of two (s_2, s_6, s_10, ... from s_1, s_3, s_5, ..., then s_4, s_12,
    ... from s_2, s_6, ...)."""
    log = code.field.log  # log[0] = -1 picks a junk entry, masked below
    s = np.zeros(2 * code.t + 1, dtype=np.int64)
    s[1::2] = np.bitwise_xor.reduce(code.powers[positions], axis=0)
    h = 1
    while h <= code.t:
        v = s[h::2 * h][:len(s[2 * h::4 * h])]
        s[2 * h::4 * h] = np.where(v, code.exp2[2 * log[v]], 0)
        h *= 2
    return s


def _berlekamp_massey(code: BchCode, s: np.ndarray) -> np.ndarray:
    """Error locator polynomial from syndromes s[1..2t] (index = degree), as
    L + 1 coefficients for linear complexity L. Binary form: s_2i = s_i^2
    zeroes every even-step discrepancy, so only the odd steps r = 1, 3, ...,
    2t - 1 run and the correction term gains x^2 per step (Lin & Costello,
    binary BCH chapter)."""
    n = code.n
    exp2 = code.exp2.tolist()  # exp2[a + b] for logs a, b < n
    log = code.field.log.tolist()  # log[0] = -1
    log_s = code.field.log[s].tolist()
    # C, the locator, always holds L + 1 coefficients (the top one may be
    # 0); B is its value before L last grew
    C, B = [1], [1]
    L, shift, log_b = 0, 1, 0
    for r in range(1, 2 * code.t, 2):
        d = int(s[r])
        for c, e in zip(C[1:], reversed(log_s[r - L:r])):
            if c and e >= 0:
                d ^= exp2[log[c] + e]
        if d:
            log_coef = (log[d] - log_b) % n
            term = [0] * shift + [exp2[log[x] + log_coef] if x else 0
                                  for x in B]
            C, prev = [a ^ b for a, b in zip_longest(C, term, fillvalue=0)], C
            if 2 * L <= r - 1:
                B, L, log_b, shift = prev, r - L, log[d], 0
        shift += 2
    return np.array(C, dtype=np.int64)


def _chien_roots(code: BchCode, locator: np.ndarray) -> np.ndarray:
    """The i in 0..n-1 with locator(alpha^i) = 0, ascending: the term
    lambda_j x^j at alpha^i is exp2[ij[j, i] + log lambda_j]."""
    js = np.nonzero(locator)[0]
    logs = code.field.log[locator[js], None]
    values = np.bitwise_xor.reduce(code.exp2[code.ij[js] + logs], axis=0)
    return np.nonzero(values == 0)[0]


def bch_decode(code: BchCode, received: np.ndarray):
    """-> (message bits, corrected error count); DecodeFailure when the
    error pattern is beyond the code's reach."""
    r = _bits(received, "received word")
    if len(r) != code.n:
        raise ShapeError(f"received word must have {code.n} bits, got {len(r)}")
    positions = np.nonzero(r)[0].astype(np.int64)
    s = _syndromes(code, positions)
    if not np.any(s[1:]):
        return r[code.n - code.k:], 0
    locator = _berlekamp_massey(code, s)
    deg = len(locator) - 1
    if deg > code.t:
        raise DecodeFailure(
            f"locator degree {deg} exceeds capability t={code.t}"
        )
    roots = _chien_roots(code, locator)
    if len(roots) != deg:
        raise DecodeFailure(
            f"locator degree {deg} but {len(roots)} roots found"
        )
    error_positions = (code.n - roots) % code.n
    r[error_positions] ^= 1
    return r[code.n - code.k:], int(deg)


def decode_or_passthrough(code: BchCode, received: np.ndarray):
    """-> (message bits, corrected count, failed flag); on failure the
    systematic bits are returned uncorrected."""
    try:
        message, corrected = bch_decode(code, received)
        return message, corrected, False
    except DecodeFailure:
        r = np.asarray(received, dtype=np.uint8).ravel()
        return r[code.n - code.k:].copy(), 0, True


def load_code_table() -> list:
    """The packaged (1023, k, t) rows usable by the sweep."""
    text = resources.files("pdsemcom.data").joinpath(CODE_TABLE_RESOURCE).read_text()
    return [row for _, row in read_table(text.strip().splitlines(),
                                         ("n", "k", "t"), (int, int, int))]


def select_compatible_codes(r_source: float, r_budget: float,
                            n: int = 1023) -> list:
    """Table codes with enough message bits: k >= n * r_source / r_budget."""
    if r_source <= 0 or r_budget <= 0:
        raise ValueError("rates must be positive")
    threshold = n * r_source / r_budget
    return [(k, t) for (tn, k, t) in load_code_table()
            if tn == n and k >= threshold]


def coded_rate(info_bits: float, n: int, k: int) -> float:
    """Transmitted bits per object under an (n, k) block code, averaged over
    fractional blocks: info_bits * n / k."""
    if info_bits < 0:
        raise ValueError("information bits must be nonnegative")
    return info_bits * n / k
