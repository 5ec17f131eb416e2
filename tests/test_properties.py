"""Property tests: the CSV loaders on random rows, the grid-based binning
against the floor-and-clamp loops it replaced, the Huffman and BCH codecs,
the table-driven Huffman code against the canonical reassignment and the bit
walk, the binary Berlekamp-Massey against the general one, the table-driven
BCH syndromes, Chien search and decoder against the multiply-and-mod ones,
the byte-table BCH encoder against the bit-per-step division and its
codeword test against zero syndromes, the bottleneck search against
brute-force matchings, degree-0 counts of Rips diagrams, the Rips filtration
and its budget outcome against the lexsorted one, Rips diagrams against the
triangle-column reduction (on clouds whose spanning tree completes early and
on clouds of several components too), the point-cloud dedup against
`np.unique`, the one-pass bottleneck-style distortion against the per-object
loop, the MLP fit on the columns the training rows fill against the fit over
every column, the fit on one flat parameter vector against the per-array
one, bit for bit, the little-endian bit packing against the reversed
big-endian one, the BCH payload coder against a block-by-block loop, the
codeword-per-step Huffman decoder against the per-bit walk, the
parent-pointer Huffman lengths against the leaf-list merge, the one-pass
tent features against the per-degree ones, and the one-pass diagram
quantizer and rebuild against the per-degree quantizer and the rebuild
through cell centers."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brute import (assert_same_diagram, assert_same_filtration,
                   bch_decode_blocks, dedup_by_unique,
                   bch_decode_by_products, bch_encode_blocks,
                   bch_encode_by_poly_mod,
                   berlekamp_massey_general,
                   berlekamp_massey_lists,
                   bits_to_int_reversed, bottleneck_exhaustive,
                   bottleneck_style_distortion_loop, canonical_codewords,
                   chien_roots_by_products, codeword_lengths_leaf_lists,
                   density_mass_loop, diagram_from_symbols_via_centers,
                   filtration_by_lexsort, huffman_decode_bitwalk,
                   huffman_decode_per_bit, int_to_bits_reversed,
                   perslay_vectorize_per_degree,
                   persistence_by_triangle_columns,
                   quantize_diagram_per_degree, rasterize_loop,
                   syndromes_by_products, train_classifier_all_columns,
                   train_classifier_per_array)
from pdsemcom.codec import (bch_decode, bch_encode, bch_generator,
                            bits_to_int, build_huffman, decode_or_passthrough,
                            huffman_decode, huffman_encode, int_to_bits)
from pdsemcom.codec.bch import (_berlekamp_massey, _chien_roots, _parity,
                                _syndromes)
from pdsemcom.codec.huffman import _codeword_lengths
from pdsemcom.dataset import PointCloud, load_pointcloud_file
from pdsemcom.errors import (BudgetExceeded, CapacityExceeded, DecodeFailure,
                             EmptyDensity, InconsistentLabel, OutOfBox,
                             ParseError)
from pdsemcom.harness import decode_payload, encode_payload
from pdsemcom.homology import (PersistenceDiagram, bottleneck_distance,
                               build_vr_filtration, compute_persistence,
                               load_pd_file, vr_diagram)
from pdsemcom.inference import (Classifier, perslay_vectorize, rasterize_raw,
                                train_classifier)
from pdsemcom.infotheory import bottleneck_style_distortion, estimate_density
from pdsemcom.quantizer import (QuantizerGrid, diagram_from_symbols,
                                load_symbol_stream, quantize_diagram)

# bounded so that the unit tests stay fast; the tmp_path file is rewritten
# by every example
PROPERTY = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBER = st.one_of(
    st.integers(-2, 30).map(str),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "-0.0", "0.5",
                     "99999999999999999999", "pd", "raw"]),
    st.floats().map(repr),
)
FIELD = st.one_of(NUMBER, st.text(st.characters(codec="utf-8"), max_size=5))


def _file_text(header_lines, width):
    """Mostly the right header lines, sometimes random ones, then rows of
    `width` numbers or of any fields."""
    row = st.one_of(st.lists(NUMBER, min_size=width, max_size=width),
                    st.lists(FIELD, max_size=width + 1)).map(",".join)
    header = st.one_of(st.just(header_lines),
                       st.just([h.upper() for h in header_lines]),
                       st.lists(row, min_size=1, max_size=2))
    return st.builds(lambda h, r: "\n".join(h + r) + "\n", header,
                     st.lists(row, max_size=8))


@PROPERTY
@given(text=_file_text(["object,x,y,label"], 4))
def test_pointcloud_loader_raises_only_parse_errors(tmp_path, text):
    path = tmp_path / "clouds.csv"
    path.write_text(text, encoding="utf-8")
    try:
        load_pointcloud_file(path)
    except (ParseError, InconsistentLabel):
        pass


@PROPERTY
@given(text=_file_text(["object,dim,birth,death"], 4))
def test_pd_loader_raises_only_parse_errors(tmp_path, text):
    path = tmp_path / "pds.csv"
    path.write_text(text, encoding="utf-8")
    try:
        load_pd_file(path)
    except ParseError:
        pass


@PROPERTY
@given(text=_file_text(["box_side,n_bins,source_kind", "16,4,pd",
                        "object,channel,symbol"], 3))
def test_symbol_stream_loader_raises_only_parse_errors(tmp_path, text):
    path = tmp_path / "stream.csv"
    path.write_text(text, encoding="utf-8")
    try:
        load_symbol_stream(path)
    except ParseError:
        pass


@st.composite
def _binning_case(draw, partitions=st.integers(1, 30)):
    """(box side, partition, point sets) with points on 0, the box side and
    exact cell edges as well as anywhere in the box."""
    box = draw(st.sampled_from([0.3, 1.0, 16.0, 28.0]))
    partition = draw(partitions)
    w = box / partition
    coord = st.one_of(st.floats(0.0, box), st.sampled_from([0.0, box]),
                      st.integers(0, partition).map(lambda j: min(j * w, box)))
    sets = draw(st.lists(st.lists(st.tuples(coord, coord), max_size=10),
                         min_size=1, max_size=6))
    return box, partition, [np.array(s, dtype=float).reshape(-1, 2)
                            for s in sets]


@PROPERTY
@given(case=_binning_case())
def test_density_binning_matches_loop(case):
    box, partition, sets = case
    if not any(len(s) for s in sets):
        with pytest.raises(EmptyDensity):
            estimate_density(sets, box_side=box, partition=partition)
        return
    density = estimate_density(sets, box_side=box, partition=partition)
    assert np.array_equal(density.mass,
                          density_mass_loop(sets, box, partition))


@PROPERTY
@given(case=_binning_case(st.just(28)))
def test_raster_binning_matches_loop(case):
    box, partition, sets = case
    for pts in sets:
        assert np.array_equal(rasterize_raw(pts, box_side=box),
                              rasterize_loop(pts, box, partition))


@PROPERTY
@given(case=_binning_case())
def test_distortion_matches_loop(case):
    box, m, sets = case
    grid = QuantizerGrid(box_side=box, n_bins=m)
    assert (bottleneck_style_distortion(sets, grid)
            == bottleneck_style_distortion_loop(sets, grid))


@PROPERTY
@given(case=_binning_case(), where=st.integers(0, 5),
       axis=st.integers(0, 1),
       bad=st.sampled_from(["below", "above", "far", "nan", "inf", "-inf"]))
def test_distortion_out_of_box_matches_loop(case, where, axis, bad):
    box, m, sets = case
    grid = QuantizerGrid(box_side=box, n_bins=m)
    point = np.full((1, 2), box / 2)
    point[0, axis] = {"below": -1e-9, "above": np.nextafter(box, np.inf),
                      "far": box + 5.0, "nan": np.nan, "inf": np.inf,
                      "-inf": -np.inf}[bad]
    where %= len(sets)
    sets[where] = np.vstack([sets[where], point])
    with pytest.raises(OutOfBox) as fast:
        bottleneck_style_distortion(sets, grid)
    with pytest.raises(OutOfBox) as loop:
        bottleneck_style_distortion_loop(sets, grid)
    assert str(fast.value) == str(loop.value)


@st.composite
def _training_case(draw, train_rows=st.integers(1, 4).map(lambda k: 3 * k),
                   hidden=st.sampled_from([(4,), (6, 3)])):
    """(features, labels, training rows, hidden sizes, epochs, seed): sparse
    0/1 or tent-like nonnegative features whose columns are zero
    everywhere, filled only in held-out rows, or filled in some training
    rows; the training labels cycle through the classes, so a multiple of
    3 rows is balanced, in random order."""
    n_train = draw(train_rows)
    n_rows = n_train + draw(st.integers(0, 4))
    kinds = draw(st.lists(st.sampled_from(["zero", "held_out", "train"]),
                          min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (rng.random((n_rows, len(kinds))) < 0.4).astype(float)
    if draw(st.booleans()):
        X *= rng.uniform(0.0, 100.0, size=X.shape)
    for j, kind in enumerate(kinds):
        if kind == "zero":
            X[:, j] = 0.0
        elif kind == "held_out":
            X[:n_train, j] = 0.0
    labels = rng.permutation(np.resize([1, 2, 3], n_train))
    return (X, labels, n_train, draw(hidden), draw(st.integers(1, 30)),
            draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(case=_training_case())
def test_training_matches_all_column_fit(case):
    X, labels, n_train, hidden, epochs, seed = case
    net = train_classifier(X[:n_train], labels, hidden_sizes=hidden,
                           epochs=epochs, seed=seed)
    want = train_classifier_all_columns(X[:n_train], labels,
                                        hidden_sizes=hidden, epochs=epochs,
                                        seed=seed)
    assert net.layer_sizes == want.layer_sizes
    assert len(net.loss_history) == len(want.loss_history) == epochs
    assert np.allclose(net.loss_history, want.loss_history,
                       rtol=1e-9, atol=1e-12)
    # rows of columns no training row fills keep their initial draw
    idle = ~np.any(X[:n_train] != 0, axis=0)
    drawn = Classifier(net.layer_sizes, seed=seed).weights[0]
    assert np.array_equal(net.weights[0][idle], drawn[idle])
    for got, exp in zip(net.weights + net.biases, want.weights + want.biases):
        assert got.shape == exp.shape
        assert np.allclose(got, exp, rtol=1e-9, atol=1e-12)
    assert np.allclose(net.predict_proba(X), want.predict_proba(X),
                       rtol=1e-9, atol=1e-12)


@PROPERTY
@given(case=_training_case(
    st.integers(3, 40), st.lists(st.integers(1, 12), min_size=1,
                                 max_size=3).map(tuple)))
def test_flat_fit_matches_per_array_fit(case):
    # the flat ADAM step rounds every element as the per-array one does,
    # so the fits agree exactly, not within a tolerance
    X, labels, n_train, hidden, epochs, seed = case
    net = train_classifier(X[:n_train], labels, hidden_sizes=hidden,
                           epochs=epochs, seed=seed)
    want = train_classifier_per_array(X[:n_train], labels,
                                      hidden_sizes=hidden, epochs=epochs,
                                      seed=seed)
    assert len(net.loss_history) == len(want.loss_history) == epochs
    assert net.loss_history == want.loss_history
    assert len(net.weights) == len(want.weights) == len(hidden) + 1
    for got, exp in zip(net.weights + net.biases, want.weights + want.biases):
        assert got.shape == exp.shape
        assert np.array_equal(got, exp)
    assert np.array_equal(net.predict_proba(X), want.predict_proba(X))


@st.composite
def _huffman_case(draw):
    """(code, symbols from its alphabet) for a random distribution with
    zeros; about one in five has a one-symbol alphabet."""
    # powers of two give codewords longer than the decoder's table
    power = st.integers(0, 40).map(lambda k: 2.0 ** -k)
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0),
                                      power),
                            min_size=1, max_size=40))
    p = np.array(weights)
    if not np.any(p > 0) or draw(st.integers(0, 4)) == 0:
        p[:] = 0.0
        p[draw(st.integers(0, len(p) - 1))] = 1.0
    code = build_huffman(p / p.sum())
    symbols = draw(st.lists(st.sampled_from(code.symbols.tolist()),
                            max_size=50))
    return code, np.array(symbols, dtype=int)


@PROPERTY
@given(case=_huffman_case())
def test_huffman_strict_round_trip(case):
    code, symbols = case
    back = huffman_decode(code, huffman_encode(code, symbols),
                          max_symbols=len(symbols))
    assert np.array_equal(back, symbols)


@PROPERTY
@given(case=_huffman_case(),
       bits=st.lists(st.integers(0, 1), max_size=120))
def test_huffman_random_bits(case, bits):
    code, _ = case
    bits = np.array(bits, dtype=np.uint8)
    out = huffman_decode(code, bits, max_symbols=len(bits))
    assert np.all(np.isin(out, code.symbols))


@st.composite
def _huffman_stream(draw):
    """(code, bits, symbol count): a random stream, or the code's encoding
    of symbols with 12 % of its bits flipped or cut short."""
    code, symbols = draw(_huffman_case())
    bits = huffman_encode(code, symbols)
    kind = draw(st.sampled_from(["random", "flipped", "truncated"]))
    if kind == "random":
        bits = np.array(draw(st.lists(st.integers(0, 1), max_size=120)),
                        dtype=np.uint8)
    elif kind == "flipped":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bits = bits ^ (rng.random(len(bits)) < 0.12).astype(np.uint8)
    else:
        bits = bits[:draw(st.integers(0, len(bits)))]
    return code, bits, len(symbols)


@PROPERTY
@given(case=_huffman_stream(), cap=st.integers(0, 60))
def test_huffman_tables_match_bit_walk(case, cap):
    code, bits, n_symbols = case
    want = canonical_codewords(code.symbols, code.lengths)
    assert code.table() == {
        int(s): format(c, f"0{l}b")
        for s, c, l in zip(code.symbols, want, code.lengths)}
    # every codeword has a bit, so len(bits) symbols never binds
    for max_symbols in (len(bits), n_symbols, cap):
        got = huffman_decode(code, bits, max_symbols=max_symbols)
        want = huffman_decode_bitwalk(code, bits, max_symbols=max_symbols)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@PROPERTY
@given(case=_huffman_stream())
def test_huffman_codeword_steps_match_per_bit_walk(case):
    code, bits, n_symbols = case
    for max_symbols in range(n_symbols + 3):
        got = huffman_decode(code, bits, max_symbols=max_symbols)
        want = huffman_decode_per_bit(code, bits, max_symbols=max_symbols)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(p=st.one_of(
    # small integer weights tie often, and ties decide the merge order
    st.lists(st.integers(1, 4), min_size=1, max_size=60),
    st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=60),
    st.lists(st.integers(0, 60).map(lambda k: 2.0 ** -k), min_size=1,
             max_size=60)))
def test_codeword_lengths_match_leaf_lists(p):
    p = np.array(p, dtype=float) / np.sum(p)
    got, want = _codeword_lengths(p), codeword_lengths_leaf_lists(p)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _small_bch(m_gf: int, t: int):
    try:
        return bch_generator(m_gf, t)
    except CapacityExceeded:
        return None


@st.composite
def _small_code(draw, max_m=6):
    """A BCH code over GF(2^3)..GF(2^max_m) that has message bits."""
    m_gf = draw(st.integers(3, max_m))
    code = _small_bch(m_gf, draw(st.integers(1, (1 << m_gf) // 4)))
    if code is None:
        code = _small_bch(m_gf, 1)
    return code


@PROPERTY
@given(data=st.data())
def test_bch_corrects_every_pattern_within_capability(data):
    code = data.draw(_small_code())
    message = np.array(data.draw(st.lists(st.integers(0, 1), min_size=code.k,
                                          max_size=code.k)), dtype=np.uint8)
    flips = data.draw(st.sets(st.integers(0, code.n - 1), max_size=code.t))
    word = bch_encode(code, message)
    word[list(flips)] ^= 1
    decoded, corrected = bch_decode(code, word)
    assert np.array_equal(decoded, message)
    assert corrected == len(flips)


@PROPERTY
@given(data=st.data())
def test_bch_random_words_fail_only_by_decode_failure(data):
    code = data.draw(_small_code())
    word = np.array(data.draw(st.lists(st.integers(0, 1), min_size=code.n,
                                       max_size=code.n)), dtype=np.uint8)
    try:
        decoded, corrected = bch_decode(code, word)
    except DecodeFailure:
        return
    assert len(decoded) == code.k and 0 <= corrected <= code.t


@PROPERTY
@given(bits=st.lists(st.integers(0, 1), max_size=1100),
       extra=st.integers(0, 17))
def test_bit_packing_matches_reversed_bytes(bits, extra):
    bits = np.array(bits, dtype=np.uint8)
    x = bits_to_int(bits)
    assert x == bits_to_int_reversed(bits)
    for width in (x.bit_length(), len(bits), len(bits) + extra):
        got, want = int_to_bits(x, width), int_to_bits_reversed(x, width)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_payload_coder_matches_block_loop(data, seed):
    code = data.draw(_small_code())
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, size=data.draw(st.integers(0, 3 * code.k)),
                           dtype=np.uint8)
    words = encode_payload(code, payload)
    want = bch_encode_blocks(code, payload)
    assert words.dtype == want.dtype and words.tolist() == want.tolist()
    # up to t flips per block always decode; t + 1 and t + 2 may fail
    most = data.draw(st.integers(0, code.t + 2))
    noisy = words.copy()
    for start in range(0, len(noisy), code.n):
        flips = rng.choice(code.n, size=rng.integers(0, most + 1),
                           replace=False)
        noisy[start + flips] ^= 1
    message, failures = decode_payload(code, noisy)
    want_message, want_failures = bch_decode_blocks(code, noisy)
    assert message.dtype == want_message.dtype
    assert message.tolist() == want_message.tolist()
    assert failures == want_failures
    if most <= code.t:
        assert failures == 0
        assert message[:len(payload)].tolist() == payload.tolist()


# the sweep's two codes are drawn often, next to every field size
_LOCATOR_CODE = st.one_of(_small_code(max_m=10), st.sampled_from(
    [115, 170]).map(lambda t: _small_bch(10, t)))


@PROPERTY
@given(code=_LOCATOR_CODE, encoded=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_binary_locator_matches_general_berlekamp_massey(code, encoded, data,
                                                         seed):
    rng = np.random.default_rng(seed)
    if encoded:
        word = bch_encode(code, rng.integers(0, 2, size=code.k,
                                             dtype=np.uint8))
        flips = data.draw(st.integers(0, min(2 * code.t + 3, code.n)))
        word[rng.choice(code.n, size=flips, replace=False)] ^= 1
    else:
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
    s = _syndromes(code, np.nonzero(word)[0])
    got = _berlekamp_massey(code, s)
    want = berlekamp_massey_general(code, s)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(code=_LOCATOR_CODE, encoded=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_array_locator_matches_list_berlekamp_massey(code, encoded, data,
                                                      seed):
    rng = np.random.default_rng(seed)
    if encoded:
        word = bch_encode(code, rng.integers(0, 2, size=code.k,
                                             dtype=np.uint8))
        flips = data.draw(st.integers(0, min(2 * code.t + 3, code.n)))
        word[rng.choice(code.n, size=flips, replace=False)] ^= 1
    else:
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
    s = _syndromes(code, np.nonzero(word)[0])
    got = _berlekamp_massey(code, s)
    want = berlekamp_massey_lists(code, s)
    assert got.dtype == want.dtype and len(got) == len(want)
    assert got.tolist() == want.tolist()


@st.composite
def _any_capability_code(draw):
    """A BCH code over GF(2^3)..GF(2^10) with t up to the field's limit
    (n - 1) / 2, the repetition code, where k is still 1."""
    m_gf = draw(st.integers(3, 10))
    return _small_bch(m_gf, draw(st.integers(1, (1 << (m_gf - 1)) - 1)))


# every capability, next to the sweep's two codes
_ENCODER_CODE = st.one_of(_any_capability_code(), st.sampled_from(
    [115, 170]).map(lambda t: _small_bch(10, t)))


@PROPERTY
@given(code=_ENCODER_CODE, seed=st.integers(0, 2**32 - 1))
def test_table_encoder_matches_poly_mod(code, seed):
    message = np.random.default_rng(seed).integers(0, 2, size=code.k,
                                                   dtype=np.uint8)
    got = bch_encode(code, message)
    want = bch_encode_by_poly_mod(code, message)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@PROPERTY
@given(code=_ENCODER_CODE, kind=st.sampled_from(["codeword", "flipped",
                                                 "random"]),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_codeword_test_matches_zero_syndromes(code, kind, data, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
    else:
        word = bch_encode(code, rng.integers(0, 2, size=code.k,
                                             dtype=np.uint8))
    if kind == "flipped":
        flips = data.draw(st.integers(1, min(2 * code.t + 3, code.n)))
        word[rng.choice(code.n, size=flips, replace=False)] ^= 1
    d = code.n - code.k
    x = bits_to_int(word)
    accepted = _parity(code, x >> d) == x & ((1 << d) - 1)
    zero = not np.any(_syndromes(code, np.nonzero(word)[0])[1:])
    assert accepted == zero
    if kind == "codeword":
        assert accepted


def _bch_outcome(decode, code, word):
    try:
        message, corrected = decode(code, word)
    except DecodeFailure as exc:
        return None, 0, str(exc)
    return message.tolist(), corrected, None


@PROPERTY
@given(code=_any_capability_code(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_table_decoder_matches_products(code, data, seed):
    rng = np.random.default_rng(seed)
    word = bch_encode(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
    flips = data.draw(st.integers(0, min(2 * code.t + 3, code.n)))
    word[rng.choice(code.n, size=flips, replace=False)] ^= 1
    positions = np.nonzero(word)[0]
    s = _syndromes(code, positions)
    want_s = syndromes_by_products(code, positions)
    assert s.dtype == want_s.dtype and np.array_equal(s, want_s)
    locator = berlekamp_massey_general(code, s)
    if len(locator) - 1 <= code.t:
        assert np.array_equal(_chien_roots(code, locator),
                              chien_roots_by_products(code, locator))
    want = _bch_outcome(bch_decode_by_products, code, word)
    assert _bch_outcome(bch_decode, code, word) == want
    message, corrected, failed = decode_or_passthrough(code, word)
    passthrough = word[code.n - code.k:].tolist()
    assert (message.tolist(), corrected, failed) == (
        want[0] if want[2] is None else passthrough, want[1],
        want[2] is not None)


def _diagram(min_points: int, max_points: int):
    """(birth, death) pairs on a coarse grid, so ties and diagonal points
    are common."""
    pair = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda bp: (bp[0] / 2, (bp[0] + bp[1]) / 2))
    return st.lists(pair, min_size=min_points, max_size=max_points).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 2))


@PROPERTY
@given(a=_diagram(0, 4), b=_diagram(0, 4))
def test_bottleneck_matches_exhaustive(a, b):
    assert bottleneck_distance(a, b) == bottleneck_exhaustive(a, b)


@PROPERTY
@given(points=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                       max_size=14),
       copies=st.integers(0, 3))
def test_degree0_count_is_the_point_count(points, copies):
    pts = np.array(points + points[:copies], dtype=float).reshape(-1, 2)
    assert vr_diagram(pts).count(0) == len(pts)


def _cloud(coordinate):
    """0-25 points, the count drawn first so that larger clouds are common."""
    return st.integers(0, 25).flatmap(lambda m: st.lists(
        st.tuples(coordinate, coordinate), min_size=m, max_size=m)).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 2))


# a 6 x 6 integer grid ties many distances and repeats points, and ties
# decide the pairing order; float clouds have distinct distances
_CLOUD = st.one_of(_cloud(st.integers(0, 5)), _cloud(st.floats(0, 6)))


@PROPERTY
@given(points=_CLOUD, cap=st.sampled_from([1.0, 2.0, 3.0, 16.0]),
       max_dim=st.sampled_from([1, 2]), at_triangles=st.booleans(),
       slack=st.integers(-2, 2))
def test_filtration_matches_lexsort(points, cap, max_dim, at_triangles,
                                    slack):
    got = build_vr_filtration(points, gamma_max=cap, max_dim=max_dim)
    want = filtration_by_lexsort(points, gamma_max=cap, max_dim=max_dim)
    assert_same_filtration(got, want)
    # a budget near n + E, which the enumeration checks before any
    # triangle, or near n + E + T: the same arrays, or BudgetExceeded from
    # both, exactly when the simplices exceed it
    budget = slack + (got.simplex_count if at_triangles
                      else got.n_vertices + len(got.edges))
    outcomes = []
    for build in (build_vr_filtration, filtration_by_lexsort):
        try:
            outcomes.append(build(points, gamma_max=cap, max_dim=max_dim,
                                  budget=budget))
        except BudgetExceeded:
            outcomes.append(None)
    if got.simplex_count > budget:
        assert outcomes == [None, None]
    else:
        assert_same_filtration(*outcomes)


@PROPERTY
@given(points=_CLOUD, cap=st.sampled_from([1.0, 2.0, 3.0, 16.0]),
       max_dim=st.sampled_from([1, 2]), m=st.integers(2, 28))
def test_persistence_matches_triangle_columns(points, cap, max_dim, m):
    filt = build_vr_filtration(points, gamma_max=cap, max_dim=max_dim)
    got = compute_persistence(filt)
    assert_same_diagram(got, persistence_by_triangle_columns(filt))
    # no diagram check guards these: a class is born before it dies, and
    # so its cell lies on or above the diagonal
    assert np.all(got.births <= got.deaths)
    grid = QuantizerGrid(box_side=16.0, n_bins=m)
    x_bin, y_bin = grid.bins_of(quantize_diagram(grid, got).indices)
    assert np.all(x_bin <= y_bin)


@st.composite
def _clusters(draw):
    """1-4 clusters of 1-9 points on a 4 x 4 integer grid, 20 apart. Under
    a cap of 20 each cluster is a component of its own; with one cluster
    and a cap of 5 or more the complex is complete, so the spanning tree
    is done after a few of its edges."""
    rows = []
    for c in range(draw(st.integers(1, 4))):
        cluster = draw(st.lists(st.tuples(st.integers(0, 3),
                                          st.integers(0, 3)),
                                min_size=1, max_size=9))
        rows += [(x + 20 * c, y) for x, y in cluster]
    return np.array(rows, dtype=float)


@PROPERTY
@given(points=_clusters(), cap=st.sampled_from([1.0, 2.0, 5.0, 16.0]),
       max_dim=st.sampled_from([1, 2]))
def test_persistence_of_clusters_matches_triangle_columns(points, cap,
                                                          max_dim):
    filt = build_vr_filtration(points, gamma_max=cap, max_dim=max_dim)
    got = compute_persistence(filt)
    assert_same_diagram(got, persistence_by_triangle_columns(filt))
    assert got.count(0) == len(points)


def _rows(coordinate):
    """1-12 rows with some repeated, so ties in x and whole repeated rows
    are common."""
    return st.tuples(
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12),
        st.lists(st.integers(0, 11), max_size=6)).map(
        lambda case: np.array(case[0] + [case[0][i % len(case[0])]
                                         for i in case[1]], dtype=float))


@PROPERTY
@given(points=st.one_of(_rows(st.integers(0, 3)),
                        _rows(st.sampled_from([0.0, 0.5, 1e-300, 27.9])),
                        _rows(st.floats(0, 28))))
def test_point_cloud_dedup_matches_unique(points):
    got = PointCloud(points=points, label=1).points
    want = dedup_by_unique(points)
    assert got.dtype == want.dtype and got.shape == want.shape
    # bytes, so the sign of a zero counts too
    assert got.tobytes() == want.tobytes()


@st.composite
def _degree_diagram(draw, box):
    """A diagram inside [0, box]^2 with unsorted degrees, 0 or 1 point in a
    degree as often as more, repeated points, points on the box edges and
    points below the diagonal."""
    coord = st.one_of(st.floats(0.0, box), st.sampled_from([0.0, box]),
                      st.integers(0, 8).map(lambda j: j * box / 8))
    n = draw(st.integers(0, 9))
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    pairs = np.array(pairs + pairs[:draw(st.integers(0, 3))],
                     dtype=float).reshape(-1, 2)
    dims = draw(st.lists(st.integers(0, 1), min_size=len(pairs),
                         max_size=len(pairs)))
    return PersistenceDiagram(births=pairs[:, 0], deaths=pairs[:, 1],
                              dims=np.array(dims, dtype=int),
                              essential=np.zeros(len(pairs), dtype=bool))


_BOX = st.sampled_from([0.3, 12.0, 16.0])


@PROPERTY
@given(data=st.data(), box=_BOX)
def test_tent_features_match_per_degree(data, box):
    diagram = data.draw(_degree_diagram(box))
    got = perslay_vectorize(diagram, box)
    want = perslay_vectorize_per_degree(diagram, box)
    # bytes, so the sign of a zero counts too
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@PROPERTY
@given(data=st.data(), box=_BOX, m=st.integers(1, 30),
       collapse=st.booleans())
def test_diagram_quantizer_matches_per_degree(data, box, m, collapse):
    diagram = data.draw(_degree_diagram(box))
    grid = QuantizerGrid(box_side=box, n_bins=m)
    got = quantize_diagram(grid, diagram, collapse_duplicates=collapse)
    want = quantize_diagram_per_degree(grid, diagram,
                                       collapse_duplicates=collapse)
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.channel_counts == want.channel_counts
    rebuilt = diagram_from_symbols(grid, got.indices, got.channel_counts)
    via_centers = diagram_from_symbols_via_centers(grid, got.indices,
                                                   got.channel_counts)
    assert_same_diagram(rebuilt, via_centers)


@PROPERTY
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0),
    st.just(0.0)), min_size=2, max_size=8))
def test_diagram_checks_match_per_array_checks(values):
    half = len(values) // 2
    b, d = np.array(values[:half]), np.array(values[half:2 * half])
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
        want = "diagram coordinates must be finite"
    elif np.any(b < 0) or np.any(d < 0):
        want = "diagram coordinates must be nonnegative"
    else:
        want = None
    try:
        PersistenceDiagram(births=b, deaths=d, dims=np.zeros(half, dtype=int),
                           essential=np.zeros(half, dtype=bool))
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want
