"""Binary symmetric channel simulation over framed bit streams.

Flips are drawn from a counter-based generator with a per-object substream
(seed plus the object id as spawn key), so any subset of a sweep reproduces
the same noise regardless of iteration order or parallelism. Frame metadata
passes through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec.bitstream import BitStream, as_bits
from .errors import substream


@dataclass(frozen=True)
class BscChannel:
    """Memoryless bit-flipping channel with crossover probability alpha."""

    alpha: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError(
                f"crossover probability must lie in [0, 0.5), got {self.alpha}"
            )


def flip_mask(channel: BscChannel, n_bits: int, key: tuple = ()) -> np.ndarray:
    """Deterministic Bernoulli(alpha) mask for the given substream key."""
    if channel.alpha == 0.0:
        return np.zeros(n_bits, dtype=np.uint8)
    rng = substream(channel.seed, *key)
    return (rng.random(n_bits) < channel.alpha).astype(np.uint8)


def transmit_bits(channel: BscChannel, bits: np.ndarray,
                  key: tuple = ()) -> np.ndarray:
    """`bits` with the flips of the substream `key`; ShapeError unless
    every entry is 0 or 1."""
    bits = as_bits(bits, "bits")
    return bits ^ flip_mask(channel, len(bits), key)


def transmit(channel: BscChannel, stream: BitStream) -> BitStream:
    """Corrupt each object's payload under its own substream; a stream's
    bits are checked when it is built, so they are flipped as they are."""
    out = [payload ^ flip_mask(channel, len(payload), (frame.object_id,))
           for frame, payload in stream.payloads()]
    corrupted = np.concatenate(out) if out else np.empty(0, dtype=np.uint8)
    return BitStream(bits=corrupted, frames=stream.frames)
