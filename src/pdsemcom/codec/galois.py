"""GF(2^m) arithmetic through log/antilog tables.

Field elements are ints in 0..2^m-1 (polynomial bit representation, LSB =
constant term). The generator alpha is the residue of x, so primitivity of
the defining polynomial makes consecutive powers of alpha enumerate every
nonzero element.

Both tables carry a zero sentinel (n = 2^m - 1): `log` maps 0 to 2n, and
`exp` holds the powers of alpha twice, then 2n + 1 zeros, so that
exp[log[a] + log[b]] = a b for all a and b, zero included, with no modulo
and no branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# one standard primitive polynomial per extension degree; the degree-10
# entry is x^10 + x^3 + 1
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


@dataclass(frozen=True)
class GaloisField:
    """GF(2^m) over PRIMITIVE_POLYS[m], with the zero-sentinel tables `log`
    (int64, length n + 1) and `exp` (int16, length 4n + 1); raises if that
    polynomial is not primitive."""

    m: int

    def __post_init__(self):
        if not 2 <= self.m <= 10:
            raise ValueError(f"extension degree must be in 2..10, got {self.m}")
        poly = PRIMITIVE_POLYS[self.m]
        size = (1 << self.m) - 1
        exp = np.zeros(4 * size + 1, dtype=np.int16)
        log = np.full(size + 1, 2 * size, dtype=np.int64)
        x = 1
        for i in range(size):
            if log[x] != 2 * size:
                raise ValueError(
                    f"polynomial {poly:#b} is not primitive over GF(2)"
                )
            exp[i] = exp[i + size] = x
            log[x] = i
            x <<= 1
            if x & (1 << self.m):
                x ^= poly
        if x != 1:
            raise ValueError(f"polynomial {poly:#b} is not primitive over GF(2)")
        exp.setflags(write=False)
        log.setflags(write=False)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "log", log)

    @property
    def order(self) -> int:
        """Multiplicative group order 2^m - 1."""
        return (1 << self.m) - 1
