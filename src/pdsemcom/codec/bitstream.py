"""Per-object framing of encoded payload bits.

A stream is the concatenation of per-object payloads plus out-of-band frame
metadata: each frame records its object id, payload bit length, and the
symbol count per channel (for diagrams: degree-0 count, degree-1 count).
Frame fields are charged to the wire rate at a fixed width each, and are
exempt from channel corruption: the experiments perturb payload semantics,
not synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CapacityExceeded, ShapeError

FRAME_FIELD_BITS = 16


@dataclass(frozen=True)
class Frame:
    object_id: int
    n_bits: int
    channel_counts: tuple

    def __post_init__(self):
        limit = 1 << FRAME_FIELD_BITS
        if not 0 <= self.n_bits < limit:
            raise CapacityExceeded(
                f"payload of {self.n_bits} bits exceeds the "
                f"{FRAME_FIELD_BITS}-bit frame field"
            )
        for c in self.channel_counts:
            if not 0 <= c < limit:
                raise CapacityExceeded(
                    f"symbol count {c} exceeds the "
                    f"{FRAME_FIELD_BITS}-bit frame field"
                )

    @property
    def overhead_bits(self) -> int:
        return FRAME_FIELD_BITS * (1 + len(self.channel_counts))


@dataclass(frozen=True)
class BitStream:
    """Payload bits (uint8 0/1) partitioned by a tuple of frames."""

    bits: np.ndarray
    frames: tuple

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8).ravel()
        if np.any(bits > 1):
            raise ValueError("payload must be 0/1 valued")
        total = sum(f.n_bits for f in self.frames)
        if total != len(bits):
            raise ShapeError(
                f"frames cover {total} bits but payload has {len(bits)}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "frames", tuple(self.frames))

    def __len__(self):
        return len(self.bits)

    def payloads(self):
        """Yield (frame, payload bits) in stream order."""
        start = 0
        for f in self.frames:
            yield f, self.bits[start:start + f.n_bits]
            start += f.n_bits


def pack_objects(encoded) -> BitStream:
    """Assemble (object_id, payload bits, channel_counts) triples into a stream."""
    frames = []
    chunks = []
    for object_id, bits, channel_counts in encoded:
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        frames.append(Frame(object_id=object_id, n_bits=len(bits),
                            channel_counts=tuple(int(c) for c in channel_counts)))
        chunks.append(bits)
    payload = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint8)
    return BitStream(bits=payload, frames=tuple(frames))
