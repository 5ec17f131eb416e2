import hashlib

import numpy as np
import pytest

from pdsemcom.codec import (HuffmanCode, build_huffman, huffman_decode,
                            huffman_encode)
from pdsemcom.dataset import synth_dataset
from pdsemcom.errors import ShapeError
from pdsemcom.homology import vr_diagram
from pdsemcom.infotheory import (cell_probabilities, estimate_density,
                                 quantizer_entropy)
from pdsemcom.quantizer import QuantizerGrid


def _random_dist(rng, n):
    p = rng.uniform(0.05, 1.0, size=n)
    return p / p.sum()


def test_dyadic_distribution_gets_exact_lengths():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    code = build_huffman(p)
    assert sorted(code.lengths) == [1, 2, 3, 3]
    assert code.expected_length(p) == pytest.approx(quantizer_entropy(p))


def test_entropy_bound_on_random_distributions():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = _random_dist(rng, int(rng.integers(2, 60)))
        code = build_huffman(p)
        h = quantizer_entropy(p)
        avg = code.expected_length(p)
        assert h - 1e-12 <= avg < h + 1.0
        assert np.sum(2.0 ** (-code.lengths)) == pytest.approx(1.0, abs=1e-12)


def test_canonical_assignment_is_deterministic_and_ordered():
    p = np.array([0.4, 0.2, 0.2, 0.1, 0.1])
    table = build_huffman(p).table()
    assert table == build_huffman(p.copy()).table()
    # in (length, symbol) order the codeword values strictly increase
    vals = [int(w, 2) for _, w in sorted(table.items(),
                                         key=lambda sw: (len(sw[1]), sw[0]))]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)


def test_expected_length_reads_the_full_probability_vector():
    # zero-probability cells in the middle and at the end get no codeword;
    # symbol s has probability p[s - 1]
    p = np.array([0.5, 0.0, 0.25, 0.0, 0.125, 0.125, 0.0, 0.0])
    code = build_huffman(p)
    assert code.symbols.tolist() == [1, 3, 5, 6]
    assert code.expected_length(p) == 1.75
    assert code.expected_length(p[:6]) == 1.75  # trailing zeros are optional
    with pytest.raises(ShapeError):  # symbol 6 has no entry
        code.expected_length(p[:5])
    with pytest.raises(ShapeError):  # the occupied cells alone are too short
        code.expected_length(p[code.symbols - 1])


def test_golden_table_with_ties_and_zeros():
    # equal probabilities merge in node order; zero-probability positions
    # get no codeword
    p = np.array([0.2, 0.0, 0.1, 0.1, 0.2, 0.0, 0.15, 0.15, 0.05, 0.05])
    assert build_huffman(p).table() == {
        1: "010", 3: "011", 4: "100", 5: "00", 7: "101", 8: "110",
        9: "1110", 10: "1111"}


def test_prefix_free():
    rng = np.random.default_rng(17)
    p = _random_dist(rng, 30)
    code = build_huffman(p)
    words = list(code.table().values())
    for i, w in enumerate(words):
        for j, v in enumerate(words):
            if i != j:
                assert not v.startswith(w)


def test_zero_probability_symbols_are_dropped():
    p = np.zeros(10)
    p[[2, 5, 9]] = [0.5, 0.25, 0.25]
    code = build_huffman(p)
    # default alphabet is 1-based positions into p
    assert list(code.symbols) == [3, 6, 10]
    with pytest.raises(ValueError):
        huffman_encode(code, np.array([4]))


def test_round_trip():
    rng = np.random.default_rng(77)
    p = _random_dist(rng, 40)
    code = build_huffman(p)
    syms = rng.integers(1, 41, size=200)
    bits = huffman_encode(code, syms)
    assert np.array_equal(huffman_decode(code, bits, max_symbols=200), syms)
    assert huffman_decode(code, np.empty(0, dtype=np.uint8),
                          max_symbols=10).size == 0


def test_single_symbol_alphabet():
    code = build_huffman(np.array([1.0]))
    assert code.table() == {1: "0"}
    bits = huffman_encode(code, np.array([1, 1, 1]))
    assert np.array_equal(bits, [0, 0, 0])
    assert np.array_equal(huffman_decode(code, bits, max_symbols=3),
                          [1, 1, 1])


def test_codes_compare_by_symbols_and_lengths():
    p = np.array([0.5, 0.25, 0.25])
    code = build_huffman(p)
    assert code == build_huffman(p)
    assert hash(code) == hash(build_huffman(p))
    assert code == HuffmanCode(symbols=[1, 2, 3], lengths=[1, 2, 2])
    assert code != build_huffman(np.array([0.25, 0.5, 0.25]))
    assert code != build_huffman(np.array([0.5, 0.25, 0.125, 0.125]))
    assert code != "not a code"
    assert len({code, build_huffman(p)}) == 1


def test_tolerant_decode_drops_partial_tail():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    code = build_huffman(p)
    bits = huffman_encode(code, np.array([1, 2, 4]))
    out = huffman_decode(code, bits[:-1], max_symbols=3)
    assert np.array_equal(out, [1, 2])


def test_max_symbols_stops_early():
    p = np.array([0.5, 0.5])
    code = build_huffman(p)
    bits = huffman_encode(code, np.array([1, 2, 1, 2]))
    out = huffman_decode(code, bits, max_symbols=2)
    assert np.array_equal(out, [1, 2])
    # surplus bits after the quota are ignored
    out = huffman_decode(code, bits, max_symbols=3)
    assert np.array_equal(out, [1, 2, 1])


def test_validation():
    with pytest.raises(ValueError):
        build_huffman(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        build_huffman(np.array([0.0, 0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            build_huffman(np.array([bad, 1.0]))
    code = build_huffman(np.array([0.5, 0.5]))
    with pytest.raises(ShapeError):
        code.expected_length(np.array([1.0]))
    with pytest.raises(ValueError):  # Kraft sum 3/4
        HuffmanCode(symbols=np.array([1, 2]), lengths=np.array([1, 2]))
    with pytest.raises(ValueError):
        HuffmanCode(symbols=np.array([1]), lengths=np.array([0]))


@pytest.fixture(scope="module")
def synth_point_sets():
    """(point sets, box side) per pipeline, as the sweep builds them."""
    data = synth_dataset(per_class=4, n_points=48, noise=0.2, seed=7)
    raw = [o.points for o in data]
    pd = []
    for pts in raw:
        d = vr_diagram(pts, gamma_max=16.0)
        pd.append(np.vstack([d.points(0), d.points(1)]))
    return {"pd": (pd, 16.0), "raw": (raw, 28.0)}


@pytest.mark.parametrize("kind, digest", [
    ("pd",
     "870bc296673da712eb7284a756a43cc195a82a326949f2dfcaf13e0b49005358"),
    ("raw",
     "c0f4175b6a0d9dd95c98bce54db49cb92890b90e2c056a61bdda842ff94a2442"),
])
def test_golden_codes_on_synth_densities(synth_point_sets, kind, digest):
    # codes from a synth density at m = 10, 18, 27: the encoded bits of every
    # object and of the whole alphabet, and tolerant decodes of those
    # streams with 12 % of their bits flipped
    sets, box = synth_point_sets[kind]
    density = estimate_density(sets, box_side=box, partition=28)
    rng = np.random.default_rng(12)
    h = hashlib.sha256()
    for m in (10, 18, 27):
        grid = QuantizerGrid(box_side=box, n_bins=m)
        code = build_huffman(cell_probabilities(density, grid))
        streams = [grid.quantize_points(p) for p in sets] + [code.symbols]
        for symbols in streams:
            bits = huffman_encode(code, symbols)
            assert np.array_equal(
                huffman_decode(code, bits, max_symbols=len(symbols)), symbols)
            noisy = bits ^ (rng.random(len(bits)) < 0.12).astype(np.uint8)
            h.update(bits.tobytes())
            # every codeword has a bit, so len(noisy) symbols never binds
            for max_symbols in (len(noisy), len(symbols)):
                out = huffman_decode(code, noisy, max_symbols=max_symbols)
                h.update(out.astype(np.int64).tobytes() + b";")
    assert h.hexdigest() == digest
