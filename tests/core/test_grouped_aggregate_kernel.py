"""The production grouping kernel against its ``np.unique`` path.

:func:`~repro.core.handwritten_backend.group_rows` groups integer keys
with a small span by direct addressing (``bincount`` over ``key - min``)
and sorts any other input with ``np.unique``.  Both paths must give the
same groups, so every aggregate computed from them is bit-identical:
same key values, order and dtype, same value dtype and float bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.handwritten_backend import group_rows, grouped_aggregate_host
from repro.relational.hashjoin import DENSE_SPAN_PER_ROW

AGGS = ("sum", "count", "avg", "min", "max")
INT_DTYPES = (np.int32, np.int64, np.uint32, np.uint64)


def _unique_groups(keys):
    return np.unique(keys, return_inverse=True)


def assert_paths_agree(keys, values):
    got_keys, got_inverse = group_rows(keys)
    want_keys, want_inverse = _unique_groups(keys)
    assert got_keys.dtype == want_keys.dtype == keys.dtype
    assert np.array_equal(got_keys, want_keys)
    assert got_inverse.dtype == want_inverse.dtype
    assert np.array_equal(got_inverse, want_inverse)
    for agg in AGGS:
        got = grouped_aggregate_host(keys, values, agg)
        want = grouped_aggregate_host(
            keys, values, agg, _unique_groups(keys)
        )
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == want_part.dtype
            assert got_part.shape == want_part.shape
            assert got_part.tobytes() == want_part.tobytes()


def takes_dense_path(keys):
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        group_rows(keys)
    return spy.call_count == 0


@st.composite
def grouping_inputs(draw):
    """Keys from a pool around a centre that may sit at a dtype limit; a
    small stride gives a dense span, a large one a sparse span.  Values
    are floats or small integers, so sums carry rounding."""
    dtype = draw(st.sampled_from(INT_DTYPES + (np.float64,)))
    info = np.iinfo(np.int64 if dtype is np.float64 else dtype)
    low, high = int(info.min), int(info.max)
    centre = draw(st.one_of(
        st.sampled_from([low, high, max(low, 0)]),
        st.integers(low, high),
    ))
    stride = draw(st.sampled_from([1, 2, 3, 7, 1_000, 1 << 33]))
    pool = [k for k in (centre + stride * i for i in range(-8, 9))
            if low <= k <= high]
    keys = draw(st.lists(st.sampled_from(pool), max_size=60))
    if draw(st.booleans()):
        values = draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False),
            min_size=len(keys), max_size=len(keys),
        ))
        value_array = np.array(values, dtype=np.float64)
    else:
        values = draw(st.lists(
            st.integers(-1000, 1000), min_size=len(keys), max_size=len(keys)
        ))
        value_array = np.array(values, dtype=np.int32)
    return np.array(keys, dtype=dtype), value_array


class TestGroupingProperties:
    @given(grouping_inputs())
    @settings(max_examples=400, deadline=None)
    def test_dense_and_unique_paths_agree(self, inputs):
        keys, values = inputs
        assert_paths_agree(keys, values)


class TestGroupingPaths:
    @pytest.mark.parametrize("dtype", (np.int32, np.int64, np.uint32))
    def test_small_span_is_dense(self, dtype, rng):
        keys = rng.integers(0, 50, 1_000).astype(dtype)
        values = rng.normal(size=1_000)
        assert takes_dense_path(keys)
        assert_paths_agree(keys, values)

    @pytest.mark.parametrize("dtype", (np.int32, np.int64))
    def test_negative_keys(self, dtype, rng):
        keys = rng.integers(-500, -400, 300).astype(dtype)
        values = rng.normal(size=300)
        assert takes_dense_path(keys)
        assert_paths_agree(keys, values)

    @pytest.mark.parametrize("extra, dense", [(0, True), (1, False)])
    def test_span_threshold(self, rng, extra, dense):
        rows = 64
        span = DENSE_SPAN_PER_ROW * rows + extra
        keys = rng.integers(-10, -10 + span, rows).astype(np.int64)
        keys[0], keys[1] = -10, -10 + span - 1
        assert takes_dense_path(keys) is dense
        assert_paths_agree(keys, rng.normal(size=rows))

    def test_int64_extreme_keys(self, rng):
        info = np.iinfo(np.int64)
        near_min = np.array([info.min, info.min + 3, info.min, info.min + 1])
        near_max = np.array([info.max, info.max - 2, info.max])
        both = np.array([info.min, info.max, 0, info.min])
        values = rng.normal(size=4)
        assert takes_dense_path(near_min)
        assert takes_dense_path(near_max)
        # The span 2**64 overflows int64 arithmetic: it must not look small.
        assert not takes_dense_path(both)
        for keys in (near_min, near_max, both):
            assert_paths_agree(keys, values[: len(keys)])

    def test_uint64_extreme_keys(self, rng):
        top = np.iinfo(np.uint64).max
        keys = np.array([top, top - 5, top, top - 1], dtype=np.uint64)
        assert takes_dense_path(keys)
        assert_paths_agree(keys, rng.normal(size=4))

    def test_float_keys_fall_back(self, rng):
        keys = rng.integers(0, 5, 100).astype(np.float64)
        assert not takes_dense_path(keys)
        assert_paths_agree(keys, rng.normal(size=100))

    @pytest.mark.parametrize("dtype", INT_DTYPES + (np.float64,))
    def test_empty_input(self, dtype):
        keys = np.empty(0, dtype=dtype)
        assert_paths_agree(keys, np.empty(0, dtype=np.float64))
        unique_keys, values = grouped_aggregate_host(keys, keys, "sum")
        assert len(unique_keys) == len(values) == 0

    def test_shared_groups_equal_fresh_groups(self, rng):
        keys = rng.integers(0, 9, 500).astype(np.int32)
        values = rng.normal(size=500)
        groups = group_rows(keys)
        for agg in AGGS:
            fresh = grouped_aggregate_host(keys, values, agg)
            shared = grouped_aggregate_host(keys, values, agg, groups)
            assert fresh[1].tobytes() == shared[1].tobytes()
