import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from samlab import vecops


def test_unit_direction_has_unit_norm():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 10, 1000):
        d = vecops.sample_unit_direction(dim, rng)
        assert d.shape == (dim,)
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-12)


def test_unit_direction_deterministic_per_seed():
    a = vecops.sample_unit_direction(16, np.random.default_rng(42))
    b = vecops.sample_unit_direction(16, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_unit_direction_varies_across_draws():
    rng = np.random.default_rng(7)
    a = vecops.sample_unit_direction(8, rng)
    b = vecops.sample_unit_direction(8, rng)
    assert not np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=1, max_value=2000), seed=st.integers(0, 2**32 - 1))
def test_unit_direction_norm_property(dim, seed):
    d = vecops.sample_unit_direction(dim, np.random.default_rng(seed))
    assert abs(np.linalg.norm(d) - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(v=hnp.arrays(np.float64, st.integers(1, 300),
                    elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                       st.sampled_from([0.0, -0.0, 1e200, -1e308, 5e-324]))))
def test_l2_norm_is_numpys_norm_byte_for_byte(v):
    with np.errstate(all="ignore"):
        want = np.linalg.norm(v)
        assert vecops.l2_norm(v).hex() == float(want).hex()
        assert (v / vecops.l2_norm(v)).tobytes() == (v / want).tobytes()
