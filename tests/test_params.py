import numpy as np
import pytest

from samlab.errors import LengthError, NumericError
from samlab.params import LayoutEntry, ParameterVector, validate_layout


def layout3():
    return (
        LayoutEntry("w", (2, 3), 0),
        LayoutEntry("b", (3,), 6),
        LayoutEntry("v", (3, 1), 9),
    )


def test_validate_layout_total():
    assert validate_layout(layout3()) == 12


def test_validate_layout_rejects_gap():
    bad = (LayoutEntry("w", (2,), 0), LayoutEntry("b", (2,), 3))
    with pytest.raises(LengthError):
        validate_layout(bad)


def test_validate_layout_rejects_overlap():
    bad = (LayoutEntry("w", (2,), 0), LayoutEntry("b", (2,), 1))
    with pytest.raises(LengthError):
        validate_layout(bad)


def test_unflatten_views_match_offsets():
    data = np.arange(12.0)
    vec = ParameterVector(data, layout3())
    named = {e.name: vec.data[e.offset:e.offset + e.size].reshape(e.shape) for e in vec.layout}
    np.testing.assert_array_equal(named["w"], np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(named["b"], [6.0, 7.0, 8.0])
    assert named["v"].shape == (3, 1)
    assert LayoutEntry("s", (), 0).size == 1


def test_flatten_roundtrip():
    # the entries' slices tile the flat array in layout order
    data = np.arange(12.0)
    vec = ParameterVector(data, layout3())
    chunks = [vec.data[e.offset:e.offset + e.size].reshape(e.shape) for e in vec.layout]
    np.testing.assert_array_equal(np.concatenate([c.reshape(-1) for c in chunks]), data)


def test_wrong_length_rejected():
    with pytest.raises(LengthError):
        ParameterVector(np.zeros(11), layout3())


def test_non_finite_rejected():
    data = np.zeros(12)
    data[4] = np.inf
    with pytest.raises(NumericError):
        ParameterVector(data, layout3())


def test_replace_keeps_layout():
    vec = ParameterVector(np.zeros(12), layout3())
    other = vec.replace(np.ones(12))
    assert other.layout == vec.layout
    np.testing.assert_array_equal(other.data, np.ones(12))
    np.testing.assert_array_equal(vec.data, np.zeros(12))


def test_copy_is_independent():
    vec = ParameterVector(np.zeros(12), layout3())
    dup = vec.copy()
    dup.data[0] = 5.0
    assert vec.data[0] == 0.0
