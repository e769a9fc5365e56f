"""Accuracy contract of the codec-free rate estimator.

The estimator exists so calibration and rate sweeps can skip the
entropy codec; its value depends on the predicted bit rate tracking the
exact one.  Tolerance pinned here: **within 10% relative or 0.1
bits/value (whichever is looser)** of the exact ``bit_rate`` — the size
of the layout-2 payloads the compressor writes — on GRF and Nyx-proxy
fields, for whole fields and calibration-sized partitions,
across the zlib and huffman entropy stages ("raw" is exact by
construction).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.estimator import (
    HEADER_BYTES,
    RateEstimate,
    byte_plane_bits,
    code_histogram,
    estimate_code_bits,
    estimate_nbytes,
    shannon_bits_per_value,
)
from repro.compression.sz import SZCompressor
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.grf import gaussian_random_field

REL_TOL = 0.10
ABS_TOL = 0.1  # bits/value


def _assert_within(exact: float, est: float, context: str) -> None:
    rel = abs(est - exact) / exact
    absd = abs(est - exact)
    assert rel <= REL_TOL or absd <= ABS_TOL, (
        f"{context}: exact={exact:.4f} est={est:.4f} "
        f"rel={rel:.1%} abs={absd:.4f} bits/value"
    )


@pytest.fixture(scope="module")
def grf_field():
    return gaussian_random_field(
        (48, 48, 48), lambda k: (k + 1e-3) ** -2.5, seed=7, target_sigma=1.0
    )


class TestPrimitives:
    def test_histogram_spans_full_alphabet(self):
        hist = code_histogram(np.array([0, 1, 5, 5], dtype=np.int64), radius=8)
        assert hist.size == 16
        assert hist[5] == 2 and hist.sum() == 4

    def test_shannon_entropy_limits(self):
        assert shannon_bits_per_value(np.array([10, 0, 0])) == 0.0
        assert shannon_bits_per_value(np.array([5, 5])) == pytest.approx(1.0)
        assert shannon_bits_per_value(np.zeros(4, dtype=np.int64)) == 0.0

    def test_byte_planes_split_16bit_symbols(self):
        hist = np.zeros(1 << 16, dtype=np.int64)
        hist[0x0102] = 4
        hist[0x0103] = 4
        bits, itemsize, distinct = byte_plane_bits(hist)
        assert itemsize == 2
        # High plane constant (0x01): 0 bits; low plane 50/50: 1 bit.
        assert bits == pytest.approx(1.0)
        assert distinct == 3

    def test_raw_codec_bits_are_exact(self):
        hist = np.zeros(300, dtype=np.int64)
        hist[299] = 7
        assert estimate_code_bits(hist, "raw") == 16.0

    def test_estimate_nbytes_charges_header_and_outliers(self):
        hist = np.array([0, 8], dtype=np.int64)
        no_out, _ = estimate_nbytes(hist, 8, 0)
        with_out, _ = estimate_nbytes(hist, 8, 3)
        assert no_out >= HEADER_BYTES
        assert with_out > no_out

    def test_estimate_nbytes_validates(self):
        with pytest.raises(ValueError, match="n_elements"):
            estimate_nbytes(np.array([1]), 0, 0)
        with pytest.raises(ValueError, match="n_outliers"):
            estimate_nbytes(np.array([1]), 4, -1)


class TestAccuracy:
    @pytest.mark.parametrize("codec", ["zlib", "huffman", "raw"])
    def test_grf_whole_field(self, grf_field, codec):
        comp = SZCompressor(codec=codec)
        vrange = float(np.ptp(grf_field))
        for frac in (2.5e-4, 1e-3, 4e-3, 1.6e-2):
            eb = vrange * frac
            exact = comp.compress(grf_field, eb).bit_rate
            est = comp.estimate_bitrate(grf_field, eb)
            _assert_within(exact, est, f"GRF {codec} eb={eb:g}")

    @pytest.mark.parametrize("field", ["baryon_density", "temperature", "velocity_x"])
    def test_nyx_whole_field(self, snapshot, field):
        data = snapshot[field]
        comp = SZCompressor()
        vrange = float(np.ptp(np.asarray(data, dtype=np.float64)))
        for frac in (5e-4, 2e-3, 8e-3, 3.2e-2):
            eb = vrange * frac
            exact = comp.compress(data, eb).bit_rate
            est = comp.estimate_bitrate(data, eb)
            _assert_within(exact, est, f"Nyx {field} eb={eb:g}")

    def test_nyx_calibration_partitions(self, snapshot):
        """The regime calibration actually probes: 16^3 partitions.

        (4096 values is the smallest stream the DEFLATE model is
        calibrated for — see the estimator module docstring.)
        """
        data = snapshot["baryon_density"]
        dec = BlockDecomposition(data.shape, blocks=2)
        comp = SZCompressor()
        vrange = float(np.ptp(data.astype(np.float64)))
        for frac in (5e-4, 2e-3, 8e-3):
            eb = vrange * frac
            for view in dec.partition_views(data)[::13]:
                exact = comp.compress(view, eb).bit_rate
                est = comp.estimate_bitrate(view, eb)
                _assert_within(exact, est, f"partition eb={eb:g}")

    def test_estimate_matches_compress_metadata(self, snapshot):
        data = snapshot["temperature"]
        comp = SZCompressor()
        eb = float(np.ptp(data.astype(np.float64))) * 1e-3
        block = comp.compress(data, eb)
        est = comp.estimate(data, eb)
        assert isinstance(est, RateEstimate)
        assert est.n_elements == block.n_elements
        assert est.n_outliers == block.n_outliers
        assert est.source_itemsize == block.source_itemsize
        assert est.ratio == pytest.approx(
            est.source_itemsize * est.n_elements / est.est_nbytes
        )

    def test_classic_engine_estimate(self):
        rng = np.random.default_rng(2)
        data = rng.normal(0, 1, (6, 6, 6))
        comp = SZCompressor(engine="classic")
        exact = comp.compress(data, 0.05).bit_rate
        est = comp.estimate_bitrate(data, 0.05)
        # The classic engine's outlier channel stores float64 values and
        # its code stream differs slightly; same tolerance applies.
        _assert_within(exact, est, "classic engine")

    def test_estimator_never_builds_payloads(self, snapshot, monkeypatch):
        """The estimate path must not invoke any entropy codec."""
        import zlib

        comp = SZCompressor()

        def boom(*a, **k):  # pragma: no cover - called means failure
            raise AssertionError("codec ran during estimate")

        monkeypatch.setattr(comp.codec, "encode", boom)
        monkeypatch.setattr(comp.codec, "encode_row", boom)
        monkeypatch.setattr(zlib, "compress", boom)
        data = snapshot["temperature"]
        eb = float(np.ptp(data.astype(np.float64))) * 1e-3
        assert comp.estimate_bitrate(data, eb) > 0
