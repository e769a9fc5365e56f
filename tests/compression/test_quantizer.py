"""Quantization: the error-bound contract and the outlier channel.

The quantize and fold kernels work on ``(B, n)`` stacks; a lone block
is a stack of one.  Their oracles are the textbook forms in
``oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fold, quantize

from repro.compression.quantizer import (
    encode_residuals_batch,
    pw_rel_to_log_abs,
    quantize_lattice_batch,
    unfold_symbols_into,
)
from repro.compression.regression import AdaptiveSZCompressor


def _lattice(data: np.ndarray, eb: float) -> np.ndarray:
    """The quantize kernel on one block (a stack of one), as int64."""
    lattice = quantize_lattice_batch((np.asarray(data, np.float64) / (2.0 * eb))[None])
    return lattice[0].astype(np.int64)


def _reconstruct(data: np.ndarray, eb: float) -> np.ndarray:
    return np.multiply(_lattice(data, eb), 2.0 * eb, dtype=np.float64)


class TestAbsQuantization:
    def test_bound_holds(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 100, 10_000)
        for eb in (0.01, 0.5, 7.0):
            assert np.array_equal(_lattice(data, eb), quantize(data, eb))
            recon = _reconstruct(data, eb)
            assert np.max(np.abs(recon - data)) <= eb + 1e-12

    def test_zero_maps_to_zero(self):
        assert _lattice(np.zeros(5), 0.1).sum() == 0

    # The input contract is the compressors': sz_adaptive's is below,
    # sz's in test_front_pins.py.
    def test_rejects_nan(self):
        data = np.ones((4, 4, 4))
        data[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            AdaptiveSZCompressor(block=4).compress(data, 0.1)

    def test_rejects_nonpositive_eb(self):
        with pytest.raises(ValueError, match="positive"):
            AdaptiveSZCompressor(block=4).compress(np.ones((4, 4, 4)), 0.0)

    def test_rejects_overflow(self):
        data = np.zeros((4, 4, 4))
        data[0, 0, 1] = 1e300
        with pytest.raises(ValueError, match="int64"):
            AdaptiveSZCompressor(block=4).compress(data, 1e-10)

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100),
        st.floats(1e-4, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_property(self, values, eb):
        data = np.array(values)
        assert np.array_equal(_lattice(data, eb), quantize(data, eb))
        recon = _reconstruct(data, eb)
        # Slack scales with eb AND the data magnitude: a rounding tie
        # reconstructs a few ulps-of-|x| past the bound in float64.
        limit = eb * (1 + 1e-9) + 4.0 * np.spacing(np.abs(data).max()) + 1e-15
        assert np.max(np.abs(recon - data)) <= limit


class TestPwRel:
    def test_log_bound_conversion(self):
        a = pw_rel_to_log_abs(0.01)
        assert np.isclose(np.expm1(a), 0.01)

    def test_round_trip_bound(self):
        rng = np.random.default_rng(1)
        data = np.exp(rng.normal(0, 3, 5000))  # positive, wide range
        rel = 0.02
        a = pw_rel_to_log_abs(rel)
        recon = np.exp(_reconstruct(np.log(data), a))
        assert np.max(np.abs(recon / data - 1.0)) <= rel + 1e-12


def _encode(res: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fold kernel on one row: ``(symbols, positions, values)``,
    checked against the value-by-value fold."""
    symbols = np.array(res, dtype=np.int64).reshape(1, -1)
    _counts, pos, val, _maxes = encode_residuals_batch(symbols, radius)
    assert (symbols[0].tolist(), pos.tolist(), val.tolist()) == fold(res, radius)
    return symbols[0], pos, val


def _decode(symbols: np.ndarray, pos: np.ndarray, val: np.ndarray) -> np.ndarray:
    res = unfold_symbols_into(symbols, np.empty(symbols.size, np.int64))
    res[pos] = val
    return res


class TestResidualCodes:
    def test_round_trip_no_outliers(self):
        res = np.array([-5, 0, 3, 100, -100], dtype=np.int64)
        symbols, pos, val = _encode(res, radius=512)
        assert pos.size == 0
        assert np.array_equal(_decode(symbols, pos, val), res)

    def test_outliers_routed_and_recovered(self):
        res = np.array([0, 10_000, -10_000, 2], dtype=np.int64)
        symbols, pos, val = _encode(res, radius=16)
        assert set(pos.tolist()) == {1, 2}
        assert np.array_equal(_decode(symbols, pos, val), res)

    def test_code_zero_reserved_for_outliers(self):
        # Residual exactly -radius would map to code 0; must be an outlier.
        res = np.array([-16], dtype=np.int64)
        symbols, pos, val = _encode(res, radius=16)
        assert symbols[0] == 0
        assert pos.size == 1
        assert np.array_equal(_decode(symbols, pos, val), res)

    def test_codes_bounded(self):
        rng = np.random.default_rng(2)
        res = rng.integers(-10**6, 10**6, 10_000)
        symbols, pos, val = _encode(res, radius=256)
        assert symbols.min() >= 0
        assert symbols.max() <= 511
        assert np.array_equal(_decode(symbols, pos, val), res)

    def test_rejects_tiny_radius(self):
        with pytest.raises(ValueError, match="radius"):
            encode_residuals_batch(np.zeros((1, 1), dtype=np.int64), radius=1)

    @given(
        st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=200),
        st.integers(2, 1 << 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, values, radius):
        res = np.array(values, dtype=np.int64)
        assert np.array_equal(_decode(*_encode(res, radius)), res)
