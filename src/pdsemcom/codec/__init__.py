"""Source and channel coding: canonical Huffman, binary BCH, bit framing."""

from .bch import (
    BchCode,
    bch_decode,
    bch_encode,
    bch_generator,
    bits_to_int,
    coded_rate,
    decode_or_passthrough,
    int_to_bits,
    load_code_table,
    select_compatible_codes,
)
from .bitstream import FRAME_FIELD_BITS, BitStream, Frame, as_bits, pack_objects
from .galois import PRIMITIVE_POLYS, GaloisField
from .huffman import HuffmanCode, build_huffman, huffman_decode, huffman_encode

__all__ = [
    "BchCode", "bch_decode", "bch_encode", "bch_generator", "bits_to_int",
    "coded_rate", "decode_or_passthrough", "int_to_bits", "load_code_table",
    "select_compatible_codes",
    "FRAME_FIELD_BITS", "BitStream", "Frame", "as_bits", "pack_objects",
    "PRIMITIVE_POLYS", "GaloisField",
    "HuffmanCode", "build_huffman", "huffman_decode", "huffman_encode",
]
