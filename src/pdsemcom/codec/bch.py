"""Binary BCH codes: generator construction, systematic encode, and
syndrome decoding (the t-step binary Berlekamp-Massey plus Chien search).

Bit arrays are uint8 with index i holding the coefficient of x^i, so the
systematic message occupies the top k positions of a codeword. Decoding
corrects up to the designed capability t; when the error locator's degree
disagrees with its root count the decoder raises DecodeFailure and the
caller decides whether to pass the systematic bits through.

Encoding and the decoder's first step share one parity walk (Sarwate's
table-driven remainder): `parity_table` holds (v(x) x^(n-k)) mod g for each
byte v, built once per code, and `_parity` reads a message a byte per step,
one shift, mask and table XOR each. The encoder appends that parity to the
message. The decoder first tests whether the received word is a codeword,
its parity bits equal to its message bits' parity, which holds exactly when
g divides r(x), so exactly when all 2t syndromes vanish; such a word is
returned as received, and only other words reach the syndromes,
Berlekamp-Massey and the Chien search.

Decoding any other word reads tables built once per code, so a block
costs gathers and XOR-reductions with no multiply or modulo per element.
Every stage reads the field's zero-sentinel tables (galois.py), so a product
exp[log[a] + log[b]] needs no modulo and is 0 whenever a or b is, with no
branch. The odd syndromes are one gather of `powers` rows at the received
word's 1-positions, and the even ones square through `exp[2 log[s]]`. Each
of Berlekamp-Massey's t odd steps is a few array operations on
fixed-width int64 registers: the discrepancy is one gather of the
locator's logs plus a slice of the reversed syndrome logs, looked up in
`exp` and XOR-reduced, and the update is one gather-add of the scaled
correction polynomial XORed into a slice of the locator. The Chien search
adds the log of each locator coefficient lambda_j to row j of `ij`
(i * j mod n) and looks the sums up in `exp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from importlib import resources

import numpy as np

from ..errors import CapacityExceeded, DecodeFailure, ShapeError, read_table
from .bitstream import as_bits
from .galois import GaloisField

CODE_TABLE_RESOURCE = "bch_1023_codes.csv"


def bits_to_int(bits: np.ndarray) -> int:
    """Pack a coefficient array (index = degree) into a Python int."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


def int_to_bits(x: int, width: int) -> np.ndarray:
    """Inverse of bits_to_int, producing exactly `width` coefficients."""
    raw = np.frombuffer(x.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little")


def _gf2_poly_mod(a: int, g: int) -> int:
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def _gf2_poly_mult(a: int, b: int) -> int:
    # one shifted XOR per set bit of the shorter operand
    if a.bit_length() > b.bit_length():
        a, b = b, a
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


def _minimal_poly(exp: list, log: list, coset) -> int:
    """Minimal polynomial of alpha^i over GF(2), as a bit mask, from the
    field's zero-sentinel `exp` and `log` tables as Python lists."""
    poly = [1]
    for j in sorted(coset):
        # the root is alpha^j, so its log is j
        nxt = [0] * (len(poly) + 1)
        for deg, c in enumerate(poly):
            if c:
                nxt[deg + 1] ^= c
                nxt[deg] ^= exp[log[c] + j]
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

    Derived once per code, as read-only arrays left out of the
    constructor, repr, equality and hash, for the decoder:
    `powers[p, j]` = alpha^((2j + 1) p), shape n x t, the contribution of
    a 1 at position p to the odd syndrome s_(2j+1); `ij[j, i]` = i j mod n,
    shape (t + 1) x n, the log of (alpha^i)^j for the Chien search, one
    contiguous row per locator term (both int16). For the encoder and the
    codeword test: `parity_table[v]` = (v(x) x^(n-k)) mod g for each byte
    v = 0..255, a tuple of Python ints.
    """

    field: GaloisField
    n: int
    k: int
    t: int
    generator: int
    powers: np.ndarray = dataclass_field(init=False, repr=False, compare=False)
    ij: np.ndarray = dataclass_field(init=False, repr=False, compare=False)
    parity_table: tuple = dataclass_field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.n != self.field.order:
            raise ValueError(f"length {self.n} must equal 2^m - 1 = {self.field.order}")
        if self.generator.bit_length() - 1 != self.n - self.k:
            raise ValueError("generator degree must be n - k")
        if _gf2_poly_mod((1 << self.n) | 1, self.generator) != 0:
            raise ValueError("generator must divide x^n + 1")
        i = np.arange(self.n, dtype=np.int32)
        odd = np.arange(1, 2 * self.t, 2, dtype=np.int32)
        tables = dict(powers=self.field.exp[np.outer(i, odd) % self.n],
                      ij=(np.outer(np.arange(self.t + 1, dtype=np.int32), i)
                          % self.n).astype(np.int16))
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        d = self.n - self.k
        object.__setattr__(self, "parity_table", tuple(
            _gf2_poly_mod(v << d, self.generator) for v in range(256)))


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
    exp, log = field.exp.tolist(), field.log.tolist()
    g = 1
    for c in cosets:
        g = _gf2_poly_mult(g, _minimal_poly(exp, log, c))
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


def _parity(code: BchCode, message: int) -> int:
    """(m(x) x^(n-k)) mod g for the k-bit message m, read a byte per step
    from the top (Sarwate's table-driven remainder): with rem the parity of
    the bytes read so far, x = rem x^8 + byte x^(n-k) has degree below
    n - k + 8, and x mod g is its low n - k bits XOR the table entry of its
    top 8, so the walk holds for every n - k >= 1."""
    d = code.n - code.k
    mask = (1 << d) - 1
    table = code.parity_table
    rem = 0
    for byte in message.to_bytes((code.k + 7) // 8, "big"):
        x = (rem << 8) ^ (byte << d)
        rem = (x & mask) ^ table[x >> d]
    return rem


def bch_encode(code: BchCode, message: np.ndarray) -> np.ndarray:
    """Systematic codeword: message in the top k coefficients, parity below."""
    message = as_bits(message, "message")
    if len(message) != code.k:
        raise ShapeError(f"message must have {code.k} bits, got {len(message)}")
    m = bits_to_int(message)
    return int_to_bits((m << (code.n - code.k)) | _parity(code, m), code.n)


def _syndromes(code: BchCode, positions: np.ndarray) -> np.ndarray:
    """s_i = r(alpha^i) for i = 1..2t: odd i by one gather of `powers`
    rows, even i via Frobenius squaring s_2i = s_i^2, one slice per power
    of two (s_2, s_6, s_10, ... from s_1, s_3, s_5, ..., then s_4, s_12,
    ... from s_2, s_6, ...); a zero s_i squares to exp[4n] = 0."""
    s = np.zeros(2 * code.t + 1, dtype=np.int64)
    s[1::2] = np.bitwise_xor.reduce(code.powers[positions], axis=0)
    h = 1
    while h <= code.t:
        v = s[h::2 * h][:len(s[2 * h::4 * h])]
        s[2 * h::4 * h] = code.field.exp[2 * code.field.log[v]]
        h *= 2
    return s


def _berlekamp_massey(code: BchCode, s: np.ndarray) -> np.ndarray:
    """Error locator polynomial from syndromes s[1..2t] (index = degree), as
    L + 1 coefficients for linear complexity L. Binary form: s_2i = s_i^2
    zeroes every even-step discrepancy, so only the odd steps r = 1, 3, ...,
    2t - 1 run and the correction term gains x^2 per step (Lin & Costello,
    binary BCH chapter). Each step is a few gathers from the field's `log`
    and `exp` on registers of 2t + 1 coefficients."""
    # widened once per call, as an int16 operand costs a cast per update
    n, log, exp = code.n, code.field.log, code.field.exp.astype(np.int64)
    top = 2 * code.t
    # rev[top - i] = log s_i, so s_(r-1), s_(r-2), ... is a forward slice
    rev = log[s[::-1]]
    # C, the locator, holds L + 1 coefficients (the top one may be 0) and
    # zeros above; log_B holds the logs of B, C's value before L last grew.
    # C x^shift B reaches degree r - L, so C keeps max(len C, shift + len B)
    # = L + 1 coefficients after each step
    C = np.zeros(top + 1, dtype=np.int64)
    C[0] = 1
    log_B = np.zeros(1, dtype=np.int64)
    L, shift, log_b = 0, 1, 0
    for r in range(1, top, 2):
        log_C = log[C[:L + 1]]
        d = int(s[r]) ^ int(np.bitwise_xor.reduce(
            exp[log_C[1:] + rev[top - r + 1:top - r + 1 + L]]))
        if d:
            log_d = int(log[d])
            C[shift:shift + len(log_B)] ^= exp[log_B + (log_d - log_b) % n]
            if 2 * L <= r - 1:
                log_B, L, log_b, shift = log_C, r - L, log_d, 0
        shift += 2
    return C[:L + 1]


def _chien_roots(code: BchCode, locator: np.ndarray) -> np.ndarray:
    """The i in 0..n-1 with locator(alpha^i) = 0, ascending: the term
    lambda_j x^j at alpha^i is exp[ij[j, i] + log lambda_j], over the
    nonzero lambda_j only."""
    js = np.nonzero(locator)[0]
    logs = code.field.log[locator[js], None]
    values = np.bitwise_xor.reduce(code.field.exp[code.ij[js] + logs], axis=0)
    return np.nonzero(values == 0)[0]


def bch_decode(code: BchCode, received: np.ndarray):
    """-> (message bits, corrected error count); DecodeFailure when the
    error pattern is beyond the code's reach."""
    r = as_bits(received, "received word")
    if len(r) != code.n:
        raise ShapeError(f"received word must have {code.n} bits, got {len(r)}")
    # a systematic word is a codeword, so every syndrome vanishes, exactly
    # when its parity bits are its message bits' parity
    d = code.n - code.k
    word = bits_to_int(r)
    if _parity(code, word >> d) == word & ((1 << d) - 1):
        return r[d:], 0
    s = _syndromes(code, np.nonzero(r)[0].astype(np.int64))
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
