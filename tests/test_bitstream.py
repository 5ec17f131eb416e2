import numpy as np
import pytest

from pdsemcom.codec.bitstream import (FRAME_FIELD_BITS, BitStream, Frame,
                                      pack_objects)
from pdsemcom.errors import CapacityExceeded, ShapeError


def test_frame_overhead():
    f = Frame(object_id=3, n_bits=120, channel_counts=(4, 2))
    assert f.overhead_bits == FRAME_FIELD_BITS * 3
    assert Frame(1, 0, ()).overhead_bits == FRAME_FIELD_BITS


def test_frame_field_limits():
    with pytest.raises(CapacityExceeded):
        Frame(object_id=1, n_bits=1 << FRAME_FIELD_BITS, channel_counts=())
    with pytest.raises(CapacityExceeded):
        Frame(object_id=1, n_bits=5, channel_counts=(1 << FRAME_FIELD_BITS,))


def test_pack_and_slice():
    rng = np.random.default_rng(0)
    triples = []
    for oid in (4, 9, 2):
        bits = rng.integers(0, 2, size=int(rng.integers(0, 40))).astype(np.uint8)
        triples.append((oid, bits, (len(bits),)))
    stream = pack_objects(triples)
    assert len(stream) == sum(len(b) for _, b, _ in triples)
    assert [f.overhead_bits for f in stream.frames] == [
        2 * FRAME_FIELD_BITS] * 3
    for (oid, bits, _), (frame, payload) in zip(triples, stream.payloads()):
        assert frame.object_id == oid
        assert np.array_equal(payload, bits)


def test_payload_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        BitStream(bits=np.zeros(3, dtype=np.uint8),
                  frames=(Frame(1, 2, (1,)),))
    with pytest.raises(ValueError):
        BitStream(bits=np.array([0, 2], dtype=np.uint8),
                  frames=(Frame(1, 2, (1,)),))


def test_empty_stream():
    stream = pack_objects([])
    assert len(stream) == 0
    assert stream.frames == ()
    assert list(stream.payloads()) == []
