"""Lorenzo transform: exact inversion and predictor semantics.

The kernels work on ``(B, ...)`` stacks; a lone block is a stack of
one, which is how each property below is stated.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import undo_lorenzo

from repro.compression.lorenzo import (
    lorenzo_inverse_batch_inplace,
    lorenzo_transform_batch,
)


def _transform(block: np.ndarray) -> np.ndarray:
    """Residuals of one block: the batched kernel on a stack of one."""
    stack = np.array(block)[None]
    res, _ = lorenzo_transform_batch(stack, np.empty(stack.size, stack.dtype))
    return res[0]


def _inverse(residuals: np.ndarray) -> np.ndarray:
    return lorenzo_inverse_batch_inplace(residuals[None])[0]


class TestTransformInverse:
    @pytest.mark.parametrize("shape", [(17,), (5, 9), (4, 6, 5)])
    def test_exact_round_trip_int(self, shape):
        rng = np.random.default_rng(0)
        data = rng.integers(-1000, 1000, shape).astype(np.int64)
        residuals = _transform(data)
        assert np.array_equal(undo_lorenzo(residuals), data)  # np.cumsum per axis
        assert np.array_equal(_inverse(residuals), data)

    def test_inverse_sums_its_argument_in_place(self):
        residuals = _transform(np.arange(24, dtype=np.int64).reshape(2, 3, 4))
        stack = residuals[None]
        assert lorenzo_inverse_batch_inplace(stack) is stack
        assert np.array_equal(residuals, np.arange(24).reshape(2, 3, 4))

    def test_1d_residual_is_first_difference(self):
        data = np.array([3, 7, 2, 2], dtype=np.int64)
        assert np.array_equal(_transform(data), [3, 4, -5, 0])

    def test_2d_residual_matches_lorenzo_definition(self):
        rng = np.random.default_rng(1)
        d = rng.integers(0, 50, (6, 7)).astype(np.int64)
        r = _transform(d)
        dp = np.pad(d, ((1, 0), (1, 0)))
        expected = dp[1:, 1:] - dp[:-1, 1:] - dp[1:, :-1] + dp[:-1, :-1]
        assert np.array_equal(r, expected)

    def test_3d_residual_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(2)
        d = rng.integers(0, 50, (4, 5, 6)).astype(np.int64)
        r = _transform(d)
        dp = np.pad(d, ((1, 0), (1, 0), (1, 0)))
        expected = (
            dp[1:, 1:, 1:]
            - dp[:-1, 1:, 1:]
            - dp[1:, :-1, 1:]
            - dp[1:, 1:, :-1]
            + dp[:-1, :-1, 1:]
            + dp[:-1, 1:, :-1]
            + dp[1:, :-1, :-1]
            - dp[:-1, :-1, :-1]
        )
        assert np.array_equal(r, expected)

    def test_constant_field_residuals_sparse(self):
        """A constant field has nonzero residual only at the corner."""
        d = np.full((5, 5, 5), 9, dtype=np.int64)
        r = _transform(d)
        assert r[0, 0, 0] == 9
        # all interior residuals vanish
        assert np.count_nonzero(r[1:, 1:, 1:]) == 0

    def test_smooth_data_gives_small_residuals(self):
        x = np.arange(20, dtype=np.int64)
        d = x[:, None, None] + x[None, :, None] * 2 + x[None, None, :] * 3
        r = _transform(d)
        # A trilinear ramp is exactly predicted away from the boundary.
        assert np.count_nonzero(r[1:, 1:, 1:]) == 0

    def test_rejects_4d(self):
        """Blocks of 1-3 dimensions only: a stack of 4-D blocks is refused."""
        stack = np.zeros((1, 2, 2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="1-3 block dims"):
            lorenzo_transform_batch(stack, np.empty(stack.size, stack.dtype))
        with pytest.raises(ValueError, match="1-3 block dims"):
            lorenzo_inverse_batch_inplace(stack)

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
            elements=st.integers(-10_000, 10_000),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data):
        residuals = _transform(data)
        assert np.array_equal(undo_lorenzo(residuals), data)
        assert np.array_equal(_inverse(residuals), data)
