"""Property tests: the CSV loaders on random rows, the grid-based binning
against the floor-and-clamp loops it replaced, the Huffman and BCH codecs,
the table-driven Huffman code against the canonical reassignment and the
bit walk, the binary Berlekamp-Massey against the general one, the
table-driven BCH syndromes, Chien search and decoder against the
multiply-and-mod ones, the bottleneck search against brute-force
matchings, degree-0 counts of Rips diagrams, the Rips filtration against
the lexsorted one, and Rips diagrams against the triangle-column
reduction."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brute import (bch_decode_by_products, berlekamp_massey_general,
                   bottleneck_exhaustive, bottleneck_strict_permutations,
                   canonical_codewords, chien_roots_by_products,
                   density_mass_loop, filtration_by_lexsort,
                   huffman_decode_bitwalk, persistence_by_triangle_columns,
                   rasterize_loop, syndromes_by_products)
from pdsemcom.codec import (bch_decode, bch_encode, bch_generator,
                            build_huffman, decode_or_passthrough,
                            huffman_decode, huffman_encode)
from pdsemcom.codec.bch import _berlekamp_massey, _chien_roots, _syndromes
from pdsemcom.dataset import load_pointcloud_file
from pdsemcom.errors import (CapacityExceeded, DecodeError, DecodeFailure,
                             EmptyDensity, InconsistentLabel, ParseError)
from pdsemcom.homology import (bottleneck_distance, build_vr_filtration,
                               compute_persistence, load_pd_file, vr_diagram)
from pdsemcom.inference import rasterize_raw
from pdsemcom.infotheory import estimate_density
from pdsemcom.quantizer import load_symbol_stream

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


@st.composite
def _huffman_case(draw):
    """(code, symbols from its alphabet) for a random distribution with
    zeros; about one in five has a one-symbol alphabet."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
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
    back = huffman_decode(code, huffman_encode(code, symbols))
    assert np.array_equal(back, symbols)


@PROPERTY
@given(case=_huffman_case(),
       bits=st.lists(st.integers(0, 1), max_size=120))
def test_huffman_random_bits(case, bits):
    code, _ = case
    bits = np.array(bits, dtype=np.uint8)
    try:
        huffman_decode(code, bits)
    except DecodeError:
        pass
    out = huffman_decode(code, bits, strict=False)
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


def _decode_outcome(decode, code, bits, max_symbols, strict):
    try:
        out = decode(code, bits, max_symbols=max_symbols, strict=strict)
    except DecodeError as exc:
        return str(exc), exc.bit_offset
    return out.dtype, out.tolist()


@PROPERTY
@given(case=_huffman_stream(), cap=st.integers(0, 60))
def test_huffman_tables_match_bit_walk(case, cap):
    code, bits, n_symbols = case
    want = canonical_codewords(code.symbols, code.lengths)
    assert code.codewords.dtype == want.dtype
    assert np.array_equal(code.codewords, want)
    for strict in (True, False):
        for max_symbols in (None, n_symbols, cap):
            assert (_decode_outcome(huffman_decode, code, bits, max_symbols,
                                    strict)
                    == _decode_outcome(huffman_decode_bitwalk, code, bits,
                                       max_symbols, strict))


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


@st.composite
def _any_capability_code(draw):
    """A BCH code over GF(2^3)..GF(2^10) with t up to the field's limit
    (n - 1) / 2, the repetition code, where k is still 1."""
    m_gf = draw(st.integers(3, 10))
    return _small_bch(m_gf, draw(st.integers(1, (1 << (m_gf - 1)) - 1)))


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
@given(data=st.data())
def test_strict_bottleneck_matches_permutations(data):
    a = data.draw(_diagram(0, 5))
    b = data.draw(_diagram(len(a), len(a)))
    assert (bottleneck_distance(a, b, strict_bijection=True)
            == bottleneck_strict_permutations(a, b))


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
       max_dim=st.sampled_from([1, 2]))
def test_filtration_matches_lexsort(points, cap, max_dim):
    got = build_vr_filtration(points, gamma_max=cap, max_dim=max_dim)
    want = filtration_by_lexsort(points, gamma_max=cap, max_dim=max_dim)
    for name in ("edges", "edge_values", "triangles", "triangle_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@PROPERTY
@given(points=_CLOUD, cap=st.sampled_from([1.0, 2.0, 3.0, 16.0]),
       max_dim=st.sampled_from([1, 2]))
def test_persistence_matches_triangle_columns(points, cap, max_dim):
    filt = build_vr_filtration(points, gamma_max=cap, max_dim=max_dim)
    got = compute_persistence(filt)
    want = persistence_by_triangle_columns(filt)
    for name in ("births", "deaths", "dims", "essential"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
