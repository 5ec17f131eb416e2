"""Value types that hold numpy arrays compare and hash without raising."""

import numpy as np
import pytest

from pdsemcom import (AccuracyReport, BitStream, CvSchedule, EmpiricalDensity,
                      Frame, PointCloud,
                      QuantizedPointSet, QuantizerGrid, build_vr_filtration,
                      vr_diagram)

_POINTS = [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]

FACTORIES = {
    "PointCloud": lambda: PointCloud(points=_POINTS, label=1),
    "PersistenceDiagram": lambda: vr_diagram(_POINTS),
    "Filtration": lambda: build_vr_filtration(_POINTS),
    "QuantizedPointSet": lambda: QuantizedPointSet(indices=[1, 5, 5],
                                                   channel_counts=(1, 2)),
    "EmpiricalDensity": lambda: EmpiricalDensity(
        QuantizerGrid(1.0, 2), np.full((2, 2), 0.25)),
    "BitStream": lambda: BitStream(bits=[1, 0, 1],
                                   frames=(Frame(1, 3, (2,)),)),
    "CvSchedule": lambda: CvSchedule(n_objects=4, T=2, seed=1),
    "AccuracyReport": lambda: AccuracyReport([0.5, 0.75]),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_values_compare_and_hash(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert isinstance(a == b, bool) and isinstance(a != b, bool)
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) in (1, 2)
