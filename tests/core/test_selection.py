"""Per-field compressor selection: §2.2 reproduced as a runtime decision."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.compression.api import CompressorSpec
from repro.core.config import FieldSpec
from repro.core.selection import (
    CandidateVerdict,
    SelectionResult,
    default_candidates,
    select_compressor,
)
from repro.models.calibration import RateModelBank
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator


@pytest.fixture(scope="module")
def snapshot():
    sim = NyxSimulator(shape=(16, 16, 16), box_size=16.0, seed=7, sigma_delta0=2.5)
    return sim.snapshot(z=1.0)


@pytest.fixture(scope="module")
def dec():
    return BlockDecomposition((16, 16, 16), blocks=2)


class TestPaperArgument:
    def test_sz_chosen_zfp_rejected_for_every_field(self, snapshot, dec):
        """The acceptance criterion: at paper quality targets, SZ wins every
        field and the fixed-rate comparator is rejected *quantified*."""
        bank = RateModelBank(max_partitions=8)
        for name, data in snapshot.fields.items():
            result = select_compressor(
                data, dec, field=name, bank=bank, max_partitions=8
            )
            assert result.chosen.family == "sz", name
            zfp = result.verdict_for(CompressorSpec.zfp_like())
            assert not zfp.eligible
            # The violation is quantified, not just asserted.
            assert zfp.max_abs_error is not None and zfp.max_abs_error > result.eb_avg
            assert zfp.eb_violation == pytest.approx(
                zfp.max_abs_error / result.eb_avg
            )
            assert zfp.eb_violation > 1.0
            assert "cannot enforce" in zfp.reason

    def test_chosen_verdict_has_calibration_and_prediction(self, snapshot, dec):
        result = select_compressor(
            snapshot["temperature"], dec, field="temperature", max_partitions=8
        )
        verdict = result.chosen_verdict
        assert verdict.eligible
        assert verdict.predicted_bit_rate > 0
        assert verdict.calibration is not None
        assert result.calibration is verdict.calibration


class TestMechanics:
    def test_bank_reused_across_fields(self, snapshot, dec):
        bank = RateModelBank(max_partitions=8)
        data = snapshot["temperature"]
        first = select_compressor(data, dec, field="t", bank=bank, max_partitions=8)
        again = select_compressor(data, dec, field="t", bank=bank, max_partitions=8)
        # Same bank, same field, same spec -> the calibration is a cache hit.
        assert again.calibration is first.calibration

    @pytest.mark.parametrize(
        "bank_mode, mode", [("exact", "model"), ("model", "exact")]
    )
    def test_bank_must_agree_with_probe_mode(self, snapshot, dec, bank_mode, mode):
        """The mode has one source: the candidates of one selection are
        never ranked by rates probed two different ways."""
        with pytest.raises(ValueError, match="bank was built with probe_mode"):
            select_compressor(
                snapshot["temperature"],
                dec,
                bank=RateModelBank(probe_mode=bank_mode),
                probe_mode=mode,
            )

    def test_explicit_eb_avg_skips_budget_inversion(self, snapshot, dec):
        result = select_compressor(
            snapshot["temperature"], dec, eb_avg=123.0, max_partitions=8
        )
        assert result.eb_avg == 123.0

    def test_high_rate_fixed_candidate_can_be_eligible(self, dec):
        """A generous fixed rate that stays inside a loose bound is an
        honest candidate — unless an error-bound guarantee is required."""
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1.0, (16, 16, 16))
        loose = select_compressor(
            data,
            dec,
            candidates=[CompressorSpec.sz(), CompressorSpec.zfp_like(rate=24.0)],
            eb_avg=0.5,
            max_partitions=8,
        )
        zfp = loose.verdict_for(
            CompressorSpec.make("zfp_like", rate=24.0)
        )
        assert zfp.eligible
        assert zfp.eb_violation is not None and zfp.eb_violation <= 1.0
        strict = select_compressor(
            data,
            dec,
            candidates=[CompressorSpec.sz(), CompressorSpec.zfp_like(rate=24.0)],
            eb_avg=0.5,
            max_partitions=8,
            require_error_bounded=True,
        )
        verdict = strict.verdict_for(CompressorSpec.make("zfp_like", rate=24.0))
        assert not verdict.eligible
        assert verdict.reason.startswith("rejected: fixed-rate: no absolute error bound")
        measured = (verdict.measured_bit_rate, verdict.max_abs_error, verdict.eb_violation)
        assert measured == (None, None, None)
        assert strict.chosen.family == "sz"

    @pytest.mark.parametrize("mode", ["exact", "model"])
    def test_required_bound_rejects_fixed_rate_without_a_trial(
        self, snapshot, dec, monkeypatch, mode
    ):
        """Where a bound is required, a fixed-rate candidate is rejected
        from its capabilities: it is never compressed or decoded, and no
        probe is counted for it."""
        from repro import telemetry
        from repro.compression.zfp_like import ZFPLikeCompressor

        def refuse(*_, **__):
            raise AssertionError("a fixed-rate candidate was run")

        for name in ("compress", "compress_many", "decompress"):
            monkeypatch.setattr(ZFPLikeCompressor, name, refuse)
        with telemetry.armed():
            result = select_compressor(
                snapshot["temperature"],
                dec,
                candidates=["sz", "zfp_like:rate=8", "zfp_like:rate=32"],
                max_partitions=8,
                probe_mode=mode,
                require_error_bounded=True,
            )
            counters = {m["name"]: m["value"] for m in telemetry.get_registry().snapshot()}
        assert result.chosen.family == "sz"
        assert [v.eligible for v in result.verdicts] == [True, False, False]
        # Only sz's calibration is counted, and under its own mode.
        assert counters.get("selection.probes.exact", 0) == (1 if mode == "exact" else 0)

    def test_no_eligible_candidate_raises_with_verdicts(self, snapshot, dec):
        with pytest.raises(ValueError, match="no candidate"):
            select_compressor(
                snapshot["temperature"],
                dec,
                candidates=[CompressorSpec.zfp_like(rate=2.0)],
                max_partitions=8,
            )

    def test_default_candidates_are_paper_comparison(self):
        cands = default_candidates()
        assert [c.family for c in cands] == ["sz", "zfp_like"]

    def test_result_to_dict_is_json_ready(self, snapshot, dec):
        result = select_compressor(
            snapshot["temperature"], dec, field="temperature", max_partitions=8
        )
        blob = json.dumps(result.to_dict())
        parsed = json.loads(blob)
        assert parsed["chosen"]["family"] == "sz"
        assert len(parsed["verdicts"]) == 2

    def test_verdict_lookup_missing_spec(self, snapshot, dec):
        result = select_compressor(
            snapshot["temperature"], dec, max_partitions=8
        )
        assert isinstance(result, SelectionResult)
        assert all(isinstance(v, CandidateVerdict) for v in result.verdicts)
        with pytest.raises(KeyError):
            result.verdict_for(CompressorSpec("sz_adaptive"))


class TestBudgetInversion:
    @pytest.mark.parametrize("field", ["baryon_density", "temperature", "velocity_x"])
    @pytest.mark.parametrize("tolerance", [0.005, 0.01, 0.05])
    def test_hoisted_subsample_equals_the_per_step_estimate(self, snapshot, field, tolerance):
        """``derive_eb_budget`` builds its stride-2 subsample once per call;
        the bound must equal the bisection re-subsampling at every step."""
        from repro.core.selection import derive_eb_budget
        from repro.foresight.evaluator import FieldReference
        from repro.models.fft_error import spectrum_ratio_tolerance_to_eb

        def sub_threshold_power_estimate(field, eb, stride):
            sub = np.asarray(field, dtype=np.float64)[::stride, ::stride, ::stride]
            return float(np.mean(np.where(np.abs(sub) < eb, sub**2, 0.0)))

        spec = FieldSpec(spectrum_tolerance=tolerance)
        ref = FieldReference(snapshot[field])
        f64 = ref.f64
        want = float(
            spectrum_ratio_tolerance_to_eb(
                ref.spectrum(),
                f64.size,
                tolerance=spec.spectrum_tolerance,
                k_max=spec.spectrum_k_max,
                confidence_z=spec.confidence_z,
                sub_power_fn=lambda e: sub_threshold_power_estimate(f64, e, stride=2),
                correlated_fraction=spec.correlated_fraction,
            )
        )
        assert derive_eb_budget(spec, ref) == want
        assert derive_eb_budget(spec, FieldReference(snapshot[field])) == want


#: What each kind of verdict's ``reason`` starts with.
VERDICT_KINDS = (
    "rejected: rate-model calibration failed",
    "error-bounded; predicted",
    "rejected: fixed-rate codec cannot enforce",
    "rejected: fixed-rate: no absolute error bound",
    "fixed-rate but within bound on the sample",
)

_PAIR = ["sz", "zfp_like:rate=24"]
#: name -> (field, select_compressor keywords); the data comes from
#: :func:`_record_data`.
RECORD_CASES = {
    "paper": ("temperature", {}),
    "loose": ("noise", {"candidates": _PAIR, "eb_avg": 0.02}),
    "strict": (
        "noise",
        {"candidates": _PAIR, "eb_avg": 0.02, "require_error_bounded": True},
    ),
    "constant": ("constant", {"candidates": _PAIR, "eb_avg": 0.5}),
    "coarse": ("baryon_density", {"candidates": _PAIR, "eb_avg": 5.0}),
}

#: sha256 of ``json.dumps(select_compressor(...).to_dict())`` per (case, mode).
#: ``loose``/``strict`` in model mode were recomputed when the probe's
#: MSE became the decoded one: their predicted NRMSE moved in the last digit.
#: ``strict`` was recomputed when its fixed-rate verdict became the
#: capability rejection, which carries no measurement.  Every model-mode
#: pin but ``constant`` was recomputed when selection stopped gating on
#: predicted quality: the verdicts lost their predicted PSNR and quality,
#: and ``coarse`` now picks ``sz`` (the gate had rejected it at eb=5).
RECORD_PINS = {
    ("coarse", "exact"): "c4145ada13e9b4d1275b00981a6f4182b68159336d4f65b42ccb991ef2c0eec8",
    ("coarse", "model"): "ade92633c48cccbba714a0f6a9eb34da527ad48f5e063ef98b6fb212142f948d",
    ("constant", "exact"): "9b315f86efc080620b24c2edd2c0d6b705936c53d4ef76086acffab2b9a424f9",
    ("constant", "model"): "9b315f86efc080620b24c2edd2c0d6b705936c53d4ef76086acffab2b9a424f9",
    ("loose", "exact"): "de45a21f1b818d25763787e38f661261920664b57e456aa070bc7bfef48faa5e",
    ("loose", "model"): "72b512a11136d764442193b94b4a080c7edf46728505c082de7bae2feab83c28",
    ("paper", "exact"): "259f363cf09127fbffda834ccc9c46265935c7e1d52486cf17cbc181a920bfb2",
    ("paper", "model"): "14ba115b01afec2dab06df185eb69d1c7789624e82419ce35fc6298fe3fca44b",
    ("strict", "exact"): "65af847f5b2ff7f0bb97eaa6543834f39893ba02ad54da0c8264b880513a2ab8",
    ("strict", "model"): "060faa1b792f742cd4a5bef0f52918ebc7c4c51984ab9ede4de1594b0a1f756d",
}


def _record_data(snapshot, name):
    if name == "noise":
        return np.random.default_rng(0).normal(0, 1.0, (16, 16, 16))
    if name == "constant":
        return np.full((16, 16, 16), 3.0)
    return snapshot[name]


def _record(snapshot, dec, case, mode):
    name, kwargs = RECORD_CASES[case]
    result = select_compressor(
        _record_data(snapshot, name),
        dec,
        field=name,
        max_partitions=8,
        probe_mode=mode,
        **kwargs,
    )
    return result.to_dict()


class TestRecordPins:
    """``selection`` ledger events record every verdict's reason and
    numbers: pinned per verdict kind and probe mode, so a rewording or a
    moved digit fails here rather than in a ledger diff."""

    @pytest.mark.parametrize("mode", ["exact", "model"])
    @pytest.mark.parametrize("case", sorted(RECORD_CASES))
    def test_record_bytes(self, snapshot, dec, case, mode):
        blob = json.dumps(_record(snapshot, dec, case, mode)).encode()
        assert hashlib.sha256(blob).hexdigest() == RECORD_PINS[case, mode]

    def test_every_verdict_kind_is_pinned(self, snapshot, dec):
        reasons = [
            v["reason"]
            for case in RECORD_CASES
            for mode in ("exact", "model")
            for v in _record(snapshot, dec, case, mode)["verdicts"]
        ]
        for kind in VERDICT_KINDS:
            assert any(r.startswith(kind) for r in reasons), kind
