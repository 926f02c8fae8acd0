"""The production join kernel against the independent oracle.

:func:`~repro.relational.hashjoin.match_pairs` computes the matches of
every production join; :func:`~repro.core.backend.join_reference` is the
separate oracle.  Both must return the same values, dtypes and order on
any input, whichever of the kernel's paths (direct addressing for dense
integer keys, binary search otherwise) the input takes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import join_reference
from repro.relational.hashjoin import DENSE_SPAN_PER_ROW, match_pairs

DTYPES = (np.int8, np.int16, np.int32, np.int64,
          np.uint8, np.uint16, np.uint32, np.float64)

I64 = np.iinfo(np.int64)


def _value_range(*dtypes):
    """Integers every dtype in ``dtypes`` can hold (float64 as int64)."""
    lows, highs = [], []
    for dtype in dtypes:
        info = np.iinfo(np.int64 if dtype is np.float64 else dtype)
        lows.append(int(info.min))
        highs.append(int(info.max))
    return max(lows), min(highs)


def assert_same_as_reference(left, right):
    got = match_pairs(left, right)
    expected = join_reference(left, right)
    for got_ids, expected_ids in zip(got, expected):
        assert got_ids.dtype == expected_ids.dtype == np.int64
        assert np.array_equal(got_ids, expected_ids)
    return got


@st.composite
def join_inputs(draw):
    """Two key columns drawn from one pool of keys, so both sides carry
    duplicates and matches; a small stride gives a dense build span, a
    large one a sparse span; the pool's centre may sit at a dtype limit.
    The left side also gets arbitrary keys, mostly outside the build
    range."""
    left_dtype = draw(st.sampled_from(DTYPES))
    right_dtype = draw(st.sampled_from(DTYPES))
    low, high = _value_range(left_dtype, right_dtype)
    centre = draw(st.one_of(
        st.sampled_from([low, high, 0 if low <= 0 else low]),
        st.integers(low, high),
    ))
    stride = draw(st.sampled_from([1, 2, 3, 1_000, 1 << 33]))
    pool = [k for k in (centre + stride * i for i in range(-6, 7))
            if low <= k <= high]
    right = draw(st.lists(st.sampled_from(pool), max_size=40))
    left = draw(st.lists(
        st.one_of(st.sampled_from(pool), st.integers(low, high)),
        max_size=40,
    ))
    return (np.array(left, dtype=left_dtype),
            np.array(right, dtype=right_dtype))


class TestMatchPairsProperties:
    @given(join_inputs())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference(self, inputs):
        left, right = inputs
        assert_same_as_reference(left, right)


class TestMatchPairsPaths:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_span_with_duplicates_on_both_sides(self, dtype, rng):
        left = rng.integers(-5, 40, 300).astype(dtype)
        right = rng.integers(0, 30, 200).astype(dtype)
        left_ids, right_ids = assert_same_as_reference(left, right)
        assert len(left_ids) > len(left)  # duplicates multiply matches

    # An 8-bit build side spans at most 256 values, under the threshold
    # for these 87 rows, so it cannot be sparse.
    @pytest.mark.parametrize(
        "dtype", [d for d in DTYPES if np.dtype(d).itemsize > 1]
    )
    def test_sparse_span_falls_back(self, dtype, rng):
        keys = rng.choice(2_000_000_000, 50, replace=False)
        right = np.concatenate([keys, keys[:10]]).astype(dtype)
        left = np.concatenate([keys[::3], keys[:5]]).astype(dtype)
        span = int(right.max()) - int(right.min()) + 1
        assert span > DENSE_SPAN_PER_ROW * (len(left) + len(right))
        assert_same_as_reference(left, right)

    def test_span_at_the_threshold_boundary(self):
        rows = 10
        limit = DENSE_SPAN_PER_ROW * 2 * rows
        for span in (limit - 1, limit, limit + 1):
            right = np.linspace(0, span - 1, rows).astype(np.int64)
            left = right[::-1].copy()
            assert_same_as_reference(left, right)

    @pytest.mark.parametrize("side", ["left", "right", "both"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_side(self, side, dtype):
        keys = np.array([3, 1, 3], dtype=dtype)
        empty = np.empty(0, dtype=dtype)
        left = empty if side in ("left", "both") else keys
        right = empty if side in ("right", "both") else keys
        left_ids, right_ids = assert_same_as_reference(left, right)
        assert len(left_ids) == len(right_ids) == 0

    def test_negative_keys_and_probes_outside_the_build_range(self):
        right = np.array([-7, -3, -3, 0, 2, -7], dtype=np.int32)
        left = np.array([-8, -7, 3, -3, 2, 100, -2**31, 2**31 - 1],
                        dtype=np.int32)
        left_ids, right_ids = assert_same_as_reference(left, right)
        assert np.array_equal(left[left_ids], right[right_ids])

    def test_keys_at_the_int64_limits(self):
        right = np.array([I64.max, I64.max - 2, I64.max, I64.min], np.int64)
        left = np.array([I64.min, I64.max, 0, I64.max - 1, I64.min + 1],
                        np.int64)
        assert_same_as_reference(left, right)
        # A build side packed against either limit keeps a dense span.
        for edge in (I64.max - 3, I64.min):
            right = np.arange(edge, edge + 4, dtype=np.int64)
            left = np.array([I64.min, I64.max, edge + 1], np.int64)
            assert_same_as_reference(left, right)

    def test_narrow_keys_whose_span_exceeds_their_dtype(self):
        # Offsets from the build minimum (up to 50000) overflow int16.
        right = np.append(np.arange(-20000, 20000, 3), 30000).astype(np.int16)
        left = np.array([-20000, 1, 30000, 19999, 5], dtype=np.int16)
        left_ids, _right_ids = assert_same_as_reference(left, right)
        assert len(left_ids) == 4
        right = np.array([-128, 127, 127, 0], dtype=np.int8)
        left = np.array([127, -128, 1, 0, -1], dtype=np.int8)
        assert_same_as_reference(left, right)
        right = np.array([0, 65535, 65535, 40000], dtype=np.uint16)
        left = np.array([65535, 0, 40000, 1], dtype=np.uint16)
        assert_same_as_reference(left, right)

    def test_mixed_key_dtypes(self):
        left = np.array([-1, 5, 7, 2**31 - 1], dtype=np.int32)
        right = np.array([2**32 - 1, 5, 2**31 - 1, 5], dtype=np.uint32)
        assert_same_as_reference(left, right)
        assert_same_as_reference(left.astype(np.float64), right)
        assert_same_as_reference(
            np.array([2**63, 1], dtype=np.uint64), np.array([1, -1]))
