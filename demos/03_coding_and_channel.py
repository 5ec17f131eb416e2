"""
Source coding, channel coding, and the noisy channel
====================================================

Builds a Huffman code from real diagram statistics, wraps the payload in a
BCH block code, pushes everything through a binary symmetric channel, and
compares what survives with and without channel protection.
"""

import numpy as np

from pdsemcom import (BscChannel, QuantizerGrid, bch_generator,
                      build_huffman, cell_probabilities, coded_rate,
                      estimate_density, huffman_decode, huffman_encode,
                      quantize_diagram, select_compatible_codes,
                      synth_dataset, transmit_bits, vr_diagram)
from pdsemcom.harness import decode_payload, encode_payload, symbol_error_rate

clouds = synth_dataset(per_class=20, n_points=48, noise=0.2, seed=7)
diagrams = [vr_diagram(o.points, gamma_max=16.0) for o in clouds]
pd_points = [d.points() for d in diagrams]

m = 10
grid = QuantizerGrid(box_side=16.0, n_bins=m)
density = estimate_density(pd_points, box_side=16.0)
probs = cell_probabilities(density, grid)
huffman = build_huffman(probs)
avg = huffman.expected_length(probs)
print(f"Huffman over {len(huffman.symbols)} occupied cells: "
      f"avg codeword {avg:.3f} bits")

streams = [quantize_diagram(grid, d).indices for d in diagrams]
payloads = [huffman_encode(huffman, s) for s in streams]
bits_per_object = float(np.mean([len(p) for p in payloads]))
print(f"mean source payload: {bits_per_object:.1f} bits/object")

# lossless round trip on a clean channel
for s, p in zip(streams, payloads):
    back = huffman_decode(huffman, p, max_symbols=len(s))
    assert np.array_equal(back, s)
print("clean-channel Huffman round trip: lossless on all objects")

# pick a channel code: the budget bounds the code rate k/n from below
budget = 6035.20
usable = select_compatible_codes(bits_per_object, budget)
print(f"\nbudget {budget} bits allows {len(usable)} of the packaged "
      f"(1023, k, t) codes; strongest usable: k={usable[-1][0]}, "
      f"t={usable[-1][1]}")

code = bch_generator(10, 170)  # (1023, 123, 170)
print(f"chosen code: ({code.n}, {code.k}, {code.t}), "
      f"coded rate {coded_rate(bits_per_object, code.n, code.k):.1f} "
      f"bits/object (fractional blocks)")

alpha = 0.12
channel = BscChannel(alpha=alpha, seed=5)
sym_err_coded = []
sym_err_plain = []
for oid, (s, p) in enumerate(zip(streams, payloads)):
    # coded path: zero-pad to whole blocks, encode, corrupt, decode
    words = encode_payload(code, p)
    got, _ = decode_payload(code, transmit_bits(channel, words, key=(oid, 0)))
    dec = huffman_decode(huffman, got[:len(p)], max_symbols=len(s))
    sym_err_coded.append(symbol_error_rate(s, dec))

    # uncoded path: corrupt the Huffman payload directly
    noisy = transmit_bits(channel, p, key=(oid, 1))
    dec = huffman_decode(huffman, noisy, max_symbols=len(s))
    sym_err_plain.append(symbol_error_rate(s, dec))

print(f"\nat alpha={alpha}:")
print(f"  coded symbol error rate:   {np.mean(sym_err_coded):.4f}")
print(f"  uncoded symbol error rate: {np.mean(sym_err_plain):.4f}")
print("the block code soaks up the channel noise completely as long as at")
print(f"most t={code.t} of the {code.n} bits flip, which at this alpha is")
print("essentially always")
