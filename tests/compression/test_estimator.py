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
    RQEstimate,
    code_census_rows,
    estimate_nbytes_rows,
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


def _row(symbols) -> np.ndarray:
    """One block's folded symbols as the ``(1, n)`` matrix the size model takes."""
    return np.array([symbols], dtype=np.int64)


class TestPrimitives:
    def test_census_counts_each_rows_symbols(self):
        codes = np.array([[5, 0, 5, 1], [7, 7, 7, 7]], dtype=np.int64)
        syms, counts, row_ids = code_census_rows(codes)
        assert syms.tolist() == [0, 1, 5, 7]
        assert counts.tolist() == [1, 1, 2, 4]
        assert row_ids.tolist() == [0, 0, 0, 1]
        assert codes.tolist() == [[0, 1, 5, 5], [7, 7, 7, 7]]  # sorted in place

    def test_shannon_entropy_limits(self):
        """The huffman model is the symbol entropy plus a table: nothing
        for a constant row, one bit/value (less the trailing zlib pass's
        few percent) for a 50/50 one."""
        _, const = estimate_nbytes_rows(_row([3] * 4096), [0], "huffman")
        _, half = estimate_nbytes_rows(_row([3, 4] * 2048), [0], "huffman")
        assert const[0] < 0.15
        assert 0.9 <= half[0] - const[0] <= 1.0

    def test_byte_planes_split_16bit_symbols(self):
        # High plane constant (0x01): 0 bits; low plane 50/50: 1 bit/value
        # before DEFLATE's efficiency curve and tree cost, far under the
        # 16 bits the same symbols cost raw.
        _, bits = estimate_nbytes_rows(_row([0x0102, 0x0103] * 2048), [0], "zlib")
        _, one_plane = estimate_nbytes_rows(_row([0x02, 0x03] * 2048), [0], "zlib")
        assert 1.0 <= bits[0] < 1.5
        assert bits[0] == pytest.approx(one_plane[0], abs=0.01)

    def test_raw_codec_bits_are_exact(self):
        _, bits = estimate_nbytes_rows(_row([299] * 7), [0], "raw")
        assert bits[0] == 16.0
        _, bits = estimate_nbytes_rows(_row([1, 255, 3]), [0], "raw")
        assert bits[0] == 8.0

    def test_estimate_nbytes_charges_header_and_outliers(self):
        no_out, _ = estimate_nbytes_rows(_row([1] * 8), [0])
        with_out, _ = estimate_nbytes_rows(_row([1] * 8), [3])
        assert no_out[0] >= HEADER_BYTES
        # 8 value bytes + a 1-byte position each, the width tag and two
        # payload containers
        assert with_out[0] - no_out[0] == 3 * 9 + 1 + 24

    def test_estimate_nbytes_validates(self):
        with pytest.raises(ValueError, match="non-empty"):
            estimate_nbytes_rows(np.empty((1, 0), dtype=np.int64), [0])
        with pytest.raises(ValueError, match="non-empty"):
            estimate_nbytes_rows(np.array([1, 2, 3]), [0])
        with pytest.raises(ValueError, match="n_outliers"):
            estimate_nbytes_rows(_row([1] * 4), [-1])
        with pytest.raises(ValueError, match="n_outliers"):
            estimate_nbytes_rows(_row([1] * 4), [0, 0])


class TestAccuracy:
    @pytest.mark.parametrize("codec", ["zlib", "huffman", "raw"])
    def test_grf_whole_field(self, grf_field, codec):
        comp = SZCompressor(codec=codec)
        vrange = float(np.ptp(grf_field))
        for frac in (2.5e-4, 1e-3, 4e-3, 1.6e-2):
            eb = vrange * frac
            exact = comp.compress(grf_field, eb).bit_rate
            est = comp.estimate(grf_field, eb).bit_rate
            _assert_within(exact, est, f"GRF {codec} eb={eb:g}")

    @pytest.mark.parametrize("field", ["baryon_density", "temperature", "velocity_x"])
    def test_nyx_whole_field(self, snapshot, field):
        data = snapshot[field]
        comp = SZCompressor()
        vrange = float(np.ptp(np.asarray(data, dtype=np.float64)))
        for frac in (5e-4, 2e-3, 8e-3, 3.2e-2):
            eb = vrange * frac
            exact = comp.compress(data, eb).bit_rate
            est = comp.estimate(data, eb).bit_rate
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
                est = comp.estimate(view, eb).bit_rate
                _assert_within(exact, est, f"partition eb={eb:g}")

    def test_estimate_matches_compress_metadata(self, snapshot):
        data = snapshot["temperature"]
        comp = SZCompressor()
        eb = float(np.ptp(data.astype(np.float64))) * 1e-3
        block = comp.compress(data, eb)
        est = comp.estimate(data, eb)
        assert isinstance(est, RQEstimate)
        assert est.n_elements == block.n_elements
        assert est.n_outliers == block.n_outliers
        assert est.source_itemsize == block.source_itemsize
        assert est.ratio == pytest.approx(
            est.source_itemsize * est.n_elements / est.est_nbytes
        )

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
        assert comp.estimate(data, eb).bit_rate > 0


class TestPredictedMSE:
    """The probe's ``predicted_mse`` is the MSE of what the decoder
    returns: outlier cells decode to their lattice points like every
    other cell, and ``pw_rel`` is exponentiated, not linearised."""

    @staticmethod
    def _assert_decoded_mse(comp: SZCompressor, views, ebs) -> list:
        estimates = [comp.estimate_ladder([v], [eb])[0][0] for v, eb in zip(views, ebs)]
        blocks = comp.compress_many(views, ebs)
        for est, block, view in zip(estimates, blocks, views):
            decoded = comp.decompress(block)
            mse = float(np.mean((decoded - view.astype(np.float64)) ** 2))
            assert est.predicted_mse == pytest.approx(mse, rel=1e-12, abs=0.0)
        return blocks

    @pytest.mark.parametrize("radius", [None, 8], ids=["default-radius", "radius-8"])
    def test_with_outliers(self, radius):
        data = np.random.default_rng(0).normal(0.0, 1000.0, (16, 16, 16))
        comp = SZCompressor() if radius is None else SZCompressor(radius=radius)
        views = BlockDecomposition(data.shape, blocks=2).partition_views(data)
        blocks = self._assert_decoded_mse(comp, [data, *views], [0.01] * (1 + len(views)))
        assert all(b.n_outliers > 0 for b in blocks)

    def test_pw_rel(self, snapshot):
        data = snapshot["baryon_density"]
        views = BlockDecomposition(data.shape, blocks=2).partition_views(data)
        ebs = [0.1, 0.3] * (len(views) // 2)
        self._assert_decoded_mse(SZCompressor(mode="pw_rel"), [data, *views], [0.1, *ebs])
