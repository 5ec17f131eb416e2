import hashlib
import itertools

import numpy as np
import pytest

from pdsemcom.channel import BscChannel, transmit_bits
from pdsemcom.codec import (BitStream, Frame, bch_decode, bch_encode,
                            bch_generator, bits_to_int, coded_rate,
                            decode_or_passthrough, int_to_bits,
                            load_code_table, pack_objects,
                            select_compatible_codes)
from pdsemcom.codec.bch import _berlekamp_massey, _syndromes
from pdsemcom.codec.galois import PRIMITIVE_POLYS, GaloisField
from pdsemcom.errors import DecodeFailure, ShapeError
from pdsemcom.harness import decode_payload, encode_payload


def test_field_tables_are_consistent():
    gf = GaloisField(4)
    # exp enumerates every nonzero element exactly once
    assert sorted(gf.exp) == list(range(1, 16))
    for a in range(1, 16):
        assert gf.exp[gf.log[a]] == a
        assert gf.mult(a, gf.pow_alpha(-int(gf.log[a]))) == 1
    assert gf.mult(0, 7) == 0


def test_non_primitive_polynomial_rejected(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15
    monkeypatch.setitem(PRIMITIVE_POLYS, 4, 0b11111)
    with pytest.raises(ValueError):
        GaloisField(4)


def test_bit_packing_round_trip():
    rng = np.random.default_rng(2)
    for width in (1, 7, 8, 64, 123, 1023):
        bits = rng.integers(0, 2, size=width).astype(np.uint8)
        assert np.array_equal(int_to_bits(bits_to_int(bits), width), bits)
    assert bits_to_int(np.empty(0, dtype=np.uint8)) == 0


def test_classic_15_5_generator():
    code = bch_generator(4, 3)
    assert (code.n, code.k, code.t) == (15, 5, 3)
    # x^10 + x^8 + x^5 + x^4 + x^2 + x + 1
    assert code.generator == 0b10100110111


@pytest.mark.parametrize("t, k, digest", [
    (170, 123,
     "f6ee3cac9e80c69a9ec3a2b68ec74f20490c055def4b0e2cee33d6563d475486"),
    (115, 208,
     "dafe1fb0e9b4da60defceaa0f5569504b8972b9b3d0dc1bb0ffeb2086b6c211e"),
])
def test_golden_1023_generators(t, k, digest):
    code = bch_generator(10, t)
    assert code.k == k
    text = str(code.generator).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("t, digest, failures", [
    (170, "6d80e9b140f27db496ec5cd7f9e7de984d423ca97a2337c69d15bf651e7970e8",
     0),
    (115, "8f57bde4d1f3500e09b02612cea4e0a1804e714f6ccc83152e17b0990b04776d",
     156),
])
def test_golden_bch_decodes(t, digest, failures):
    # 200 seeded codewords through a BSC at alpha = 0.12 (about 123 flips
    # per block): every output bit, corrected count and failure flag
    code = bch_generator(10, t)
    rng = np.random.default_rng(t)
    h = hashlib.sha256()
    failed_blocks = 0
    for _ in range(200):
        msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        flips = (rng.random(code.n) < 0.12).astype(np.uint8)
        out, corrected, failed = decode_or_passthrough(
            code, bch_encode(code, msg) ^ flips)
        h.update(out.tobytes())
        h.update(f"{corrected},{failed};".encode())
        failed_blocks += failed
    assert failed_blocks == failures
    assert h.hexdigest() == digest


def test_standard_length_31_dimensions():
    assert bch_generator(5, 1).k == 26
    assert bch_generator(5, 2).k == 21
    assert bch_generator(5, 3).k == 16
    assert bch_generator(5, 7).k == 6


def test_encode_is_systematic():
    code = bch_generator(4, 3)
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 2, size=5).astype(np.uint8)
    word = bch_encode(code, msg)
    assert len(word) == 15
    assert np.array_equal(word[10:], msg)
    # a codeword is a multiple of the generator
    from pdsemcom.codec.bch import _gf2_poly_mod
    assert _gf2_poly_mod(bits_to_int(word), code.generator) == 0


def test_corrects_up_to_capability():
    code = bch_generator(4, 3)
    rng = np.random.default_rng(9)
    msg = rng.integers(0, 2, size=5).astype(np.uint8)
    word = bch_encode(code, msg)
    decoded, n = bch_decode(code, word)
    assert np.array_equal(decoded, msg) and n == 0
    for flips in itertools.chain(
            itertools.combinations(range(15), 1),
            itertools.combinations(range(15), 2)):
        bad = word.copy()
        bad[list(flips)] ^= 1
        decoded, n = bch_decode(code, bad)
        assert np.array_equal(decoded, msg)
        assert n == len(flips)
    for _ in range(60):
        flips = rng.choice(15, size=3, replace=False)
        bad = word.copy()
        bad[flips] ^= 1
        decoded, n = bch_decode(code, bad)
        assert np.array_equal(decoded, msg) and n == 3


def test_decoder_leaves_its_inputs_unchanged():
    # the locator registers are updated in place, so nothing the caller
    # passes may be written through, and no two calls may share a result
    code = bch_generator(10, 170)
    rng = np.random.default_rng(17)
    msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    received = bch_encode(code, msg)
    received[rng.choice(code.n, size=120, replace=False)] ^= 1
    before = received.copy()
    s = _syndromes(code, np.nonzero(received)[0])
    s_before = s.copy()
    first = _berlekamp_massey(code, s)
    second = _berlekamp_massey(code, s)
    assert np.array_equal(s, s_before)
    assert len(first) == 121 and np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    decoded, corrected = bch_decode(code, received)
    assert np.array_equal(decoded, msg) and corrected == 120
    assert np.array_equal(received, before)
    decoded, corrected, failed = decode_or_passthrough(code, received)
    assert np.array_equal(decoded, msg) and (corrected, failed) == (120, False)
    assert np.array_equal(received, before)


def test_beyond_capability_never_returns_the_original():
    # 4 flips inside the 5 systematic positions: restoring the message would
    # need 4 corrections there, but the decoder applies at most t=3 anywhere,
    # so every non-failing decode must yield a different message
    code = bch_generator(4, 3)
    rng = np.random.default_rng(4)
    msg = rng.integers(0, 2, size=5).astype(np.uint8)
    word = bch_encode(code, msg)
    for _ in range(100):
        flips = rng.choice(np.arange(10, 15), size=4, replace=False)
        bad = word.copy()
        bad[flips] ^= 1
        decoded, _, failed = decode_or_passthrough(code, bad)
        if not failed:
            assert not np.array_equal(decoded, msg)
    # unrestricted weight-4 patterns make DecodeFailure itself reachable
    failures = 0
    for _ in range(100):
        flips = rng.choice(15, size=4, replace=False)
        bad = word.copy()
        bad[flips] ^= 1
        failures += int(decode_or_passthrough(code, bad)[2])
    assert failures > 0


def test_decode_failure_passthrough_keeps_systematic_bits():
    code = bch_generator(4, 3)
    msg = np.ones(5, dtype=np.uint8)
    word = bch_encode(code, msg)
    rng = np.random.default_rng(11)
    for _ in range(200):
        flips = rng.choice(15, size=5, replace=False)
        bad = word.copy()
        bad[flips] ^= 1
        try:
            bch_decode(code, bad)
        except DecodeFailure:
            out, n, failed = decode_or_passthrough(code, bad)
            assert failed and n == 0
            assert np.array_equal(out, bad[10:])
            break
    else:
        pytest.fail("no weight-5 pattern triggered a decode failure")


def test_shape_validation():
    code = bch_generator(4, 3)
    with pytest.raises(ShapeError):
        bch_encode(code, np.zeros(6, dtype=np.uint8))
    with pytest.raises(ShapeError):
        bch_decode(code, np.zeros(14, dtype=np.uint8))
    with pytest.raises(ValueError):
        bch_generator(11, 3)
    with pytest.raises(ValueError):
        bch_generator(4, 0)


def test_codes_compare_by_parameters_not_tables():
    code = bch_generator(10, 170)
    again = bch_generator(10, 170)
    assert code == again and hash(code) == hash(again)
    assert code != bch_generator(10, 115)
    assert "powers" not in repr(code)
    assert code.powers.shape == (1023, 170) and code.powers.dtype == np.int16
    assert code.ij.shape == (171, 1023)
    assert code.exp0.shape == (4093,) and code.exp0.dtype == np.int16
    with pytest.raises(ValueError):
        code.powers[0, 0] = 0


@pytest.mark.parametrize("word", [
    np.full(15, 2),  # the 1s of a codeword written as 2s
    np.full(15, 0.5),  # a cast to uint8 would make it all zeros
    np.full(15, 256),  # a cast to uint8 would wrap it to zeros
    np.full(15, -1),
    np.full(15, np.nan),
])
def test_non_binary_words_rejected(word):
    # every place bits enter the wire layer applies the one 0/1 check
    code = bch_generator(4, 3)
    ones = np.ones(3, dtype=np.uint8)
    for reject in (
            lambda: bch_decode(code, word),
            lambda: decode_or_passthrough(code, word),
            lambda: bch_encode(code, word[:code.k]),
            lambda: encode_payload(code, word),
            lambda: decode_payload(code, word),
            lambda: pack_objects([(1, ones, (3,)), (2, word, (15,))]),
            lambda: BitStream(bits=word, frames=(Frame(1, 15, (15,)),)),
            lambda: transmit_bits(BscChannel(alpha=0.0), word),
            lambda: transmit_bits(BscChannel(alpha=0.3), word)):
        with pytest.raises(ShapeError, match="0s and 1s"):
            reject()


def test_binary_words_of_any_dtype_accepted():
    code = bch_generator(4, 3)
    msg = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    word = bch_encode(code, msg)
    for dtype in (bool, np.int64, float):
        assert np.array_equal(bch_encode(code, msg.astype(dtype)), word)
        decoded, corrected = bch_decode(code, word.astype(dtype))
        assert np.array_equal(decoded, msg) and corrected == 0
        assert decoded.dtype == np.uint8


def test_code_table_contents():
    table = load_code_table()
    assert len(table) == 20
    assert all(n == 1023 for n, _, _ in table)
    ks = [k for _, k, _ in table]
    ts = [t for _, _, t in table]
    assert ks == sorted(ks, reverse=True)
    assert ts == sorted(ts)
    assert (1023, 208, 115) in table
    assert (1023, 123, 170) in table


def test_select_compatible_codes():
    # at a budget equal to the (1023, 208) coded rate, only k = 208 fits
    budget = coded_rate(30.58, 1023, 208)
    assert select_compatible_codes(30.58, budget) == [(208, 115)]
    # a generous budget admits the whole table
    assert len(select_compatible_codes(30.58, 6035.20)) == 20
    table = load_code_table()
    picked = select_compatible_codes(100.0, 300.0)
    threshold = 1023 * 100.0 / 300.0
    assert picked == [(k, t) for _, k, t in table if k >= threshold]
    with pytest.raises(ValueError):
        select_compatible_codes(-1.0, 10.0)


def test_coded_rate():
    assert coded_rate(30.58, 1023, 208) == pytest.approx(150.41, abs=0.01)
    assert coded_rate(0.0, 1023, 208) == 0.0
    with pytest.raises(ValueError):
        coded_rate(-1.0, 1023, 208)
