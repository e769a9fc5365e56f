"""Rate-model calibration on real compressor output (§3.5, Fig. 10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.calibration import (
    PROBE_MODES,
    RateModelBank,
    calibrate_rate_model,
    check_probe_mode,
    partition_feature,
    sample_views,
)
from repro.models.rate_model import fit_power_law


class TestPartitionFeature:
    def test_positive_field_equals_mean(self):
        arr = np.abs(np.random.default_rng(0).normal(2, 1, (4, 4, 4)))
        assert partition_feature(arr) == pytest.approx(arr.mean())

    def test_signed_field_uses_magnitude(self):
        arr = np.array([[[-3.0, 3.0]]])
        assert partition_feature(arr) == 3.0

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.float16, np.int32, np.int64]
    )
    @pytest.mark.parametrize(
        "shape", [(16, 16, 16), (7, 5, 3), (3001,), (301, 1, 1)], ids=str
    )
    def test_bit_equal_to_the_mean_of_magnitudes(self, dtype, shape):
        """The float32/float64 path skips ``np.mean``'s wrapper; every
        dtype still gets ``np.mean(np.abs(x))`` bit for bit, strided
        views included."""
        rng = np.random.default_rng(len(shape))
        base = rng.lognormal(0, 2, (2,) + shape) * rng.choice([-1, 1], (2,) + shape)
        arr = np.clip(base, -6e4, 6e4).astype(dtype)[::2][0]
        view = np.asarray(arr)[::-1]
        for part in (arr, view):
            got = partition_feature(part)
            assert type(got) is float
            assert got == float(np.mean(np.abs(part)))

    def test_bit_equal_past_float32_exact_sizes(self):
        """A float32 partition of 2**24 + 3 elements: the divide is
        ``np.mean``'s (by the exact count, rounded once to float32)."""
        arr = np.random.default_rng(9).random(2**24 + 3).astype(np.float32)
        assert partition_feature(arr) == float(np.mean(np.abs(arr)))


class TestCalibration:
    def test_exponent_negative_and_shared(self, snapshot, decomposition):
        views = decomposition.partition_views(snapshot["baryon_density"])
        cal = calibrate_rate_model(views, eb_scale=0.2, seed=0)
        assert cal.shared_exponent < 0
        # Informative per-partition exponents cluster around the median.
        good = cal.fit_r2 > 0.5
        assert good.sum() >= len(views) // 2

    def test_coefficient_predictable_from_mean(self, snapshot, decomposition):
        """Fig. 10(a): C_m vs mean regression explains most variance."""
        views = decomposition.partition_views(snapshot["baryon_density"])
        cal = calibrate_rate_model(views, eb_scale=0.2, seed=0)
        assert cal.coef_r2 > 0.5

    def test_rate_predictions_in_ballpark(self, snapshot, decomposition):
        from repro.compression.sz import SZCompressor

        views = decomposition.partition_views(snapshot["baryon_density"])
        cal = calibrate_rate_model(views, eb_scale=0.2, seed=0)
        comp = SZCompressor()
        eb = 0.2
        measured = np.array([comp.compress(v, eb).bit_rate for v in views])
        predicted = np.array(
            [cal.rate_model.predict_bitrate(partition_feature(v), eb) for v in views]
        )
        # Geometric-mean agreement within a factor ~1.6.
        log_err = np.abs(np.log(predicted / measured))
        assert np.median(log_err) < 0.5

    def test_max_partitions_subsampling(self, snapshot, decomposition):
        views = decomposition.partition_views(snapshot["baryon_density"])
        cal = calibrate_rate_model(views, eb_scale=0.2, max_partitions=3, seed=0)
        assert len(cal.exponents) == 3

    def test_deterministic_given_seed(self, snapshot, decomposition):
        views = decomposition.partition_views(snapshot["baryon_density"])
        a = calibrate_rate_model(views, eb_scale=0.2, max_partitions=4, seed=1)
        b = calibrate_rate_model(views, eb_scale=0.2, max_partitions=4, seed=1)
        assert a.rate_model.exponent == b.rate_model.exponent
        assert a.rate_model.coef_alpha == b.rate_model.coef_alpha

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one partition"):
            calibrate_rate_model([])

    def test_rejects_single_probe(self, snapshot, decomposition):
        views = decomposition.partition_views(snapshot["baryon_density"])
        with pytest.raises(ValueError, match="two probe"):
            calibrate_rate_model(views, probe_ebs=[0.1])

    def test_rejects_nonpositive_probe(self, snapshot, decomposition):
        views = decomposition.partition_views(snapshot["baryon_density"])
        with pytest.raises(ValueError, match="positive"):
            calibrate_rate_model(views, probe_ebs=[0.1, -0.2])


class TestSampleViews:
    def test_frozen_draw(self):
        """Calibration and selection share this draw; fits (and every
        workload's stored ratio) move if it does."""
        views = [np.full(1, i) for i in range(64)]
        picked = [int(v[0]) for v in sample_views(views, 8, 0)]
        assert picked == [1, 2, 4, 16, 18, 30, 36, 48]

    def test_takes_everything_when_k_covers_the_views(self):
        views = [np.full(1, i) for i in range(5)]
        assert [int(v[0]) for v in sample_views(views, 5, 0)] == list(range(5))


class TestProbeModes:
    def test_two_modes(self):
        assert PROBE_MODES == ("exact", "model")

    @pytest.mark.parametrize("mode", ["fast", "estimate"])
    def test_rejects_unknown_probe_mode(self, snapshot, decomposition, mode):
        views = decomposition.partition_views(snapshot["baryon_density"])
        with pytest.raises(ValueError, match="probe_mode must be one of 'exact', 'model'"):
            calibrate_rate_model(views, eb_scale=0.2, probe_mode=mode)
        with pytest.raises(ValueError, match="probe_mode must be one of 'exact', 'model'"):
            check_probe_mode(mode)

    def test_bank_validates_its_mode_at_construction(self):
        """A typo used to surface only inside select_compressor, recorded
        as a candidate verdict ("calibration failed")."""
        with pytest.raises(ValueError, match="probe_mode must be one of"):
            RateModelBank(probe_mode="estimat")

    def test_model_mode_fits_close_to_exact(self, snapshot, decomposition):
        """The codec-free fit must predict the same rates as the exact
        fit to within 10% across the probe range (the acceptance bar for
        swapping it into calibration)."""
        views = decomposition.partition_views(snapshot["baryon_density"])
        exact = calibrate_rate_model(views, eb_scale=0.2, seed=0, probe_mode="exact")
        est = calibrate_rate_model(views, eb_scale=0.2, seed=0, probe_mode="model")
        means = np.array([np.mean(np.abs(v)) for v in views])
        for eb in (0.1, 0.2, 0.4):
            b_exact = exact.rate_model.predict_bitrate(means, eb)
            b_est = est.rate_model.predict_bitrate(means, eb)
            assert np.max(np.abs(b_est / b_exact - 1.0)) < 0.10

    def test_model_mode_never_runs_codec(self, snapshot, decomposition, monkeypatch):
        from repro.compression.sz import SZCompressor

        views = decomposition.partition_views(snapshot["baryon_density"])
        comp = SZCompressor()

        def boom(*a, **k):  # pragma: no cover - called means failure
            raise AssertionError("exact compress ran in model mode")

        monkeypatch.setattr(comp, "compress", boom)
        monkeypatch.setattr(comp, "compress_many", boom)
        cal = calibrate_rate_model(
            views, compressor=comp, eb_scale=0.2, seed=0, probe_mode="model"
        )
        assert cal.shared_exponent < 0


class TestExactProbeFanOut:
    """Exact probes run in process, through ``compress_many`` — whose
    chunks fan out over threads for large blocks."""

    @pytest.fixture()
    def map_calls(self, monkeypatch):
        from repro.compression import sz
        from repro.util.fanout import thread_map

        calls = []

        def counted(fn, items):
            calls.append(len(items))
            return thread_map(fn, items)

        monkeypatch.setattr(sz, "thread_map", counted)
        monkeypatch.setattr(sz, "usable_cpus", lambda: 2)
        return calls

    @staticmethod
    def _partitions(count: int = 3):
        from repro.compression.sz import FANOUT_MIN_ELEMENTS

        rng = np.random.default_rng(5)
        parts = [
            np.cumsum(rng.normal(0, 1 + i, (32, 32, 32)), axis=2) for i in range(count)
        ]
        assert parts[0].size >= FANOUT_MIN_ELEMENTS
        return parts

    def test_one_fan_out_per_calibration(self, map_calls):
        parts = self._partitions()
        calibrate_rate_model(parts, eb_scale=0.05, seed=0)
        # three partitions at five probe bounds are one batch: fifteen
        # 32^3 blocks make two chunks of at most eight, one per thread
        assert map_calls == [2]

    @pytest.mark.parametrize("probe_mode", ["exact", "model"])
    def test_one_batch_matches_per_partition_probes(self, probe_mode):
        """Batching every partition into one probe call changes no rate."""
        from repro.compression.sz import SZCompressor

        parts = self._partitions()
        probe_ebs = [0.05 * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
        comp = SZCompressor()
        if probe_mode == "exact":
            one_by_one = [
                [b.bit_rate for b in comp.compress_many([part] * len(probe_ebs), probe_ebs)]
                for part in parts
            ]
        else:
            one_by_one = [
                [rung[0].bit_rate for rung in comp.estimate_ladder([part], probe_ebs)]
                for part in parts
            ]
        cal = calibrate_rate_model(
            parts, compressor=comp, probe_ebs=probe_ebs, seed=0, probe_mode=probe_mode
        )
        want = [
            fit_power_law(np.asarray(probe_ebs), np.array(rates))[1]
            for rates in one_by_one
        ]
        assert cal.exponents.tolist() == want


def _pin_field(mode: str, dtype) -> np.ndarray:
    """A smooth 64^3 field: a signed random walk in ``abs`` mode, its
    exponential (strictly positive) in ``pw_rel``."""
    rng = np.random.default_rng(17)
    walk = np.cumsum(np.cumsum(rng.normal(0, 0.05, (64, 64, 64)), axis=0), axis=2)
    return (walk if mode == "abs" else np.exp(walk - walk.mean())).astype(dtype)


def calibration_digest(mode: str, dtype, side: int) -> str:
    """sha256 of a model-mode calibration over the ``side^3`` partitions
    of a 64^3 field (24 sampled of 64 at 16^3, all 8 at 32^3): the rate
    model's and ``coef_r2``'s reprs, then the per-partition arrays'
    bytes."""
    import hashlib

    from repro.compression.sz import SZCompressor
    from repro.parallel.decomposition import BlockDecomposition

    field = _pin_field(mode, dtype)
    views = BlockDecomposition(field.shape, 64 // side).partition_views(field)
    eb_scale = 1e-2 if mode == "pw_rel" else 1e-2 * float(np.std(field))
    cal = calibrate_rate_model(
        views,
        compressor=SZCompressor(mode=mode),
        eb_scale=eb_scale,
        max_partitions=24,
        seed=0,
        probe_mode="model",
    )
    h = hashlib.sha256(repr((cal.rate_model, cal.coef_r2)).encode())
    for arr in (cal.exponents, cal.coefficients, cal.features, cal.fit_r2):
        h.update(arr.tobytes())
    return h.hexdigest()


#: (mode, dtype, partition side) -> :func:`calibration_digest`, taken
#: when model-mode calibration probed every (partition, bound) pair as
#: one interleaved batch of views, before it read the bound ladder.
CALIBRATION_PINS = {
    ("abs", "float32", 16): "db86495b260a719ccf4fcbf3acbb6c7673bda8f2f6b56b999d4ec55db73d35aa",
    ("abs", "float32", 32): "c358f7f03995fc168cd768f792632222e3c9d666d21b9fcfda81c67f8f699cb8",
    ("abs", "float64", 16): "5bb1a54e8e5027cbafde19edbfd76ed573cea3ea3b94f6adb69d5e3f9af9dbf6",
    ("abs", "float64", 32): "13d80c6c1e9cef9ca8e2f0ab3c7b0d54a476c67d4d80de38a23a703f0218d623",
    ("pw_rel", "float32", 16): "1c570965223f68f0a3039f1ebf013546e2080f70df355ec8421501435e4be1c0",
    ("pw_rel", "float32", 32): "c383b8ff3a9cc1d5cbe717d34fca1bbdb18cfc199d1a255e26374ef8e77af6f5",
    ("pw_rel", "float64", 16): "4751884ba7f4e0fafb2459a0de7f06e5d9983d745a48a4139899f1f5f1070c77",
    ("pw_rel", "float64", 32): "1826823d83c8fe94cd7498627204f960c868faaaaef365a8461e6c088665f870",
}


class TestModelCalibrationPins:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("side", [16, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("mode", ["abs", "pw_rel"])
    def test_fit_is_pinned(self, mode, dtype, side, cpus, monkeypatch):
        from repro.compression import sz
        from repro.util import fanout

        monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
        key = (mode, np.dtype(dtype).name, side)
        assert calibration_digest(mode, dtype, side) == CALIBRATION_PINS[key]
