"""Value semantics of the package's records: equal fields give equal
records with equal hashes, fields are read only, and the repr names the
fields."""

from fractions import Fraction

import pytest

from dustgaps.analysis import MonomialCone
from dustgaps.exactnum import ExponentVector, QSpan
from dustgaps.metgaps import PointCloud
from dustgaps.model import (
    AffineMap,
    Edge,
    Finding,
    GDInstance,
    OverlapWitness,
    Similarity1D,
)

F = Fraction

_SIM = (F(1, 3), 1, F(2, 3))
_EDGE = ("S1", "u", "u", Similarity1D(*_SIM))
# (record class, constructor arguments, one field name) per hashed record
_RECORDS = [
    (AffineMap, (F(1, 3), F(2, 3)), "slope"),
    (Similarity1D, _SIM, "offset"),
    (Edge, _EDGE, "sim"),
    (GDInstance, (("u",), (Edge(*_EDGE),)), "edges"),
    (Finding, ("low-out-degree", "d_u = 1 < 2"), "code"),
    (OverlapWitness, ("nested", ("S1", "S2"), None, "S2", ("S1",)), "word"),
    (ExponentVector, (((2, 1), (3, -1)),), "entries"),
    (QSpan, ((ExponentVector(((2, 1),)),),), "basis"),
    (MonomialCone, ((F(1, 2), F(1, 3)),), "generators"),
]
_IDS = [cls.__name__ for cls, _, _ in _RECORDS]


@pytest.mark.parametrize("cls, args, field", _RECORDS, ids=_IDS)
def test_equal_fields_equal_hashes_read_only_fields_and_repr(cls, args, field):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    assert repr(a).startswith(f"{cls.__name__}(") and f"{field}=" in repr(a)


def test_keyword_construction_and_defaults():
    assert Similarity1D(ratio=F(1, 2), sign=-1, offset=F(1)) == Similarity1D(F(1, 2), -1, F(1))
    w = OverlapWitness("shared-point", ("S1", "S2"), point=F(1, 3))
    assert (w.inner, w.word) == (None, ())
    assert ExponentVector().is_zero() and QSpan().dimension == 0


def test_point_cloud_fields_are_read_only():
    cloud = PointCloud.from_points([F(0), F(1, 3), F(1)])
    with pytest.raises(AttributeError):
        cloud.points = ()
    assert cloud.tree_weights is cloud.tree_weights
