"""Property tests: the CSV loaders on random rows, and the grid-based
binning against the floor-and-clamp loops it replaced."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brute import density_mass_loop, rasterize_loop
from pdsemcom.dataset import load_pointcloud_file
from pdsemcom.errors import EmptyDensity, InconsistentLabel, ParseError
from pdsemcom.homology import load_pd_file
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
        load_pd_file(path, gamma_max=16.0)
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
def _binning_case(draw):
    """(box side, partition, point sets) with points on 0, the box side and
    exact cell edges as well as anywhere in the box."""
    box = draw(st.sampled_from([0.3, 1.0, 16.0, 28.0]))
    partition = draw(st.integers(1, 30))
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
@given(case=_binning_case())
def test_raster_binning_matches_loop(case):
    box, partition, sets = case
    for pts in sets:
        assert np.array_equal(rasterize_raw(pts, box_side=box,
                                            partition=partition),
                              rasterize_loop(pts, box, partition))
