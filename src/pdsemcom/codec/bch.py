"""Binary BCH codes: generator construction, systematic encode, and
syndrome decoding (Berlekamp-Massey plus Chien search).

Bit arrays are uint8 with index i holding the coefficient of x^i, so the
systematic message occupies the top k positions of a codeword. Decoding
corrects up to the designed capability t; when the error locator's degree
disagrees with its root count the decoder raises DecodeFailure and the
caller decides whether to pass the systematic bits through.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

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
    """An (n, k, t) binary BCH code over GF(2^m) with n = 2^m - 1."""

    field: GaloisField
    n: int
    k: int
    t: int
    generator: int

    def __post_init__(self):
        if self.n != self.field.order:
            raise ValueError(f"length {self.n} must equal 2^m - 1 = {self.field.order}")
        if self.generator.bit_length() - 1 != self.n - self.k:
            raise ValueError("generator degree must be n - k")
        if _gf2_poly_mod((1 << self.n) | 1, self.generator) != 0:
            raise ValueError("generator must divide x^n + 1")


def bch_generator(m_gf: int, t: int) -> BchCode:
    """Designed-distance construction: g = lcm of the minimal polynomials
    of alpha, alpha^2, ..., alpha^2t."""
    if not 2 <= m_gf <= 10:
        raise ValueError(f"extension degree must be in 2..10, got {m_gf}")
    if t < 1:
        raise ValueError(f"capability must be at least 1, got {t}")
    field = GaloisField(m_gf)
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


def bch_encode(code: BchCode, message: np.ndarray) -> np.ndarray:
    """Systematic codeword: message in the top k coefficients, parity below."""
    message = np.asarray(message, dtype=np.uint8).ravel()
    if len(message) != code.k:
        raise ShapeError(f"message must have {code.k} bits, got {len(message)}")
    shifted = bits_to_int(message) << (code.n - code.k)
    parity = _gf2_poly_mod(shifted, code.generator)
    return int_to_bits(shifted | parity, code.n)


def _syndromes(code: BchCode, positions: np.ndarray) -> np.ndarray:
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


def _berlekamp_massey(code: BchCode, s: np.ndarray) -> np.ndarray:
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
        coef = field.mult(d, field.inv(b))
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


def bch_decode(code: BchCode, received: np.ndarray):
    """-> (message bits, corrected error count); DecodeFailure when the
    error pattern is beyond the code's reach."""
    r = np.asarray(received, dtype=np.uint8).ravel().copy()
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
    field = code.field
    n = code.n
    js = np.nonzero(locator)[0]
    logs = field.log[locator[js]]
    evals = (np.arange(n, dtype=np.int64)[:, None] * js[None, :] + logs[None, :]) % n
    values = np.bitwise_xor.reduce(field.exp[evals], axis=1)
    roots = np.nonzero(values == 0)[0]
    if len(roots) != deg:
        raise DecodeFailure(
            f"locator degree {deg} but {len(roots)} roots found"
        )
    error_positions = (n - roots) % n
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


def coded_rate(info_bits: float, n: int, k: int, exact: bool = False) -> float:
    """Transmitted bits per object under an (n, k) block code.

    Default is fractional-block averaging info_bits * n / k; `exact` pads
    the last block with zeros and counts whole codewords.
    """
    if info_bits < 0:
        raise ValueError("information bits must be nonnegative")
    if exact:
        blocks = int(np.ceil(info_bits / k))
        return float(blocks * n)
    return info_bits * n / k
