"""The pluggable compressor backbone: specs, registry, capabilities.

The load-bearing guarantees: every registered family implements the one
:class:`~repro.compression.api.Compressor` contract itself (checked
family by family in :class:`TestContract`), resolving a spec through
the registry produces payloads equal to direct construction, and an
object that lacks part of the contract is refused where it enters
(:func:`~repro.compression.api.resolve_compressor`), not guessed at.
"""

from __future__ import annotations

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    REGISTRY,
    AdaptiveSZCompressor,
    Compressor,
    CompressorCapabilities,
    CompressorSpec,
    SZCompressor,
    UnsupportedCapabilityError,
    ZFPLikeCompressor,
    decompress_any,
    decompress_many,
    resolve_compressor,
)


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(11)
    base = rng.normal(0.0, 1.0, (12, 12, 12))
    return np.exp(base).astype(np.float32)  # lognormal-ish, positive


class TestSpec:
    def test_params_normalized_and_hashable(self):
        a = CompressorSpec("sz", {"codec": "huffman", "mode": "abs"})
        b = CompressorSpec.make("sz", mode="abs", codec="huffman")
        assert a == b
        assert hash(a) == hash(b)
        assert a.options == {"codec": "huffman", "mode": "abs"}

    def test_parse_grammar(self):
        spec = CompressorSpec.parse("sz:codec=huffman,radius=256")
        assert spec.family == "sz"
        assert spec.options == {"codec": "huffman", "radius": 256}
        assert CompressorSpec.parse("zfp_like:rate=8.5").options == {"rate": 8.5}
        assert CompressorSpec.parse("sz").options == {}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            CompressorSpec.parse("sz:codec")
        with pytest.raises(ValueError, match="empty"):
            CompressorSpec.parse("")

    def test_json_round_trip(self):
        spec = CompressorSpec.sz(codec="huffman", radius=128)
        again = CompressorSpec.from_dict(spec.to_dict())
        assert again == spec
        # to_dict is JSON-native (what the stream ledger stores).
        import json

        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_label(self):
        assert CompressorSpec("zfp_like").label == "zfp_like"
        assert "rate=8.0" in CompressorSpec.zfp_like().label


class TestRegistry:
    def test_families_registered(self):
        assert {"sz", "zfp_like", "sz_adaptive"} <= set(REGISTRY.families())
        assert REGISTRY.default().family == "sz"

    def test_canonical_fills_defaults(self):
        canon = REGISTRY.canonical(CompressorSpec("sz", {"codec": "huffman"}))
        assert canon.options["codec"] == "huffman"
        assert canon.options["mode"] == "abs"  # default filled in

    def test_unknown_family_and_param_rejected(self):
        with pytest.raises(ValueError, match="unknown compressor family"):
            REGISTRY.create("mystery")
        with pytest.raises(ValueError, match="unknown parameter"):
            REGISTRY.create("sz:level=9")

    def test_create_default_is_sz(self):
        comp = REGISTRY.create()
        assert isinstance(comp, SZCompressor)
        assert comp.codec.name == "zlib"

    def test_instance_spec_round_trips_through_registry(self):
        comp = SZCompressor(codec="huffman", radius=256)
        again = REGISTRY.create(comp.spec)
        assert again.spec == comp.spec

    def test_resolve_compressor_passthrough_and_specs(self):
        inst = SZCompressor()
        assert resolve_compressor(inst) is inst
        assert type(resolve_compressor("sz_adaptive")) is AdaptiveSZCompressor
        assert type(resolve_compressor("zfp_like")) is ZFPLikeCompressor
        assert resolve_compressor(None).spec == REGISTRY.canonical(CompressorSpec("sz"))


class TestByteIdentity:
    """The registry's factory is the class: same bytes as direct use."""

    @settings(max_examples=20, deadline=None)
    @given(
        codec=st.sampled_from(["zlib", "huffman", "raw"]),
        eb=st.floats(min_value=1e-4, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sz_all_codecs(self, codec, eb, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, (6, 6, 6))
        direct = SZCompressor(codec=codec).compress(data, eb)
        via_registry = REGISTRY.create(f"sz:codec={codec}").compress(data, eb)
        assert via_registry.payloads == direct.payloads
        assert via_registry.nbytes == direct.nbytes


def _frozen(block) -> dict:
    """Every field of a block, arrays as bytes, so blocks of any family
    compare with ``==``."""
    return {
        k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(block).items()
    }


#: Every registered family at its defaults, the classic-order reference
#: (a second class behind the ``sz`` family) and one non-default spec
#: per family, so ``spec`` must carry the parameters that matter.
CONTRACT_SPECS = [
    *REGISTRY.families(),
    "sz:engine=classic",
    "sz:codec=huffman,radius=64",
    "zfp_like:rate=5",
    "sz_adaptive:block=4,codec=raw",
]


@pytest.mark.parametrize("spec", CONTRACT_SPECS)
class TestContract:
    """One suite, every family: what ``Compressor`` promises, checked on
    the classes themselves (there is no adapter in between)."""

    @pytest.fixture()
    def views(self, field):
        # 8^3: divides sz_adaptive's blocks and zfp_like's 4^3 tiles, and
        # is small enough for the classic order's per-cell Python loop.
        return [field[:8, :8, :8], field[4:, 4:, 4:], field[:8, 4:, :8] * 3.0]

    EBS = [1e-2, 5e-3, 2e-2]

    def test_declares_capabilities_and_spec(self, spec):
        comp = resolve_compressor(spec)
        assert isinstance(comp.capabilities, CompressorCapabilities)
        family = REGISTRY.capabilities(comp.spec.family)
        # The classic reference declares less than its family (no size
        # model); no instance may declare more.
        for flag in dataclasses.fields(family):
            assert getattr(family, flag.name) or not getattr(comp.capabilities, flag.name)
        assert comp.spec == REGISTRY.canonical(spec)
        assert isinstance(comp, Compressor)
        assert resolve_compressor(comp) is comp

    def test_spec_rebuilds_an_instance_with_identical_payloads(self, spec, views):
        comp = resolve_compressor(spec)
        again = REGISTRY.create(comp.spec)
        assert again is not comp and type(again) is type(comp)
        for view, eb in zip(views, self.EBS):
            assert _frozen(again.compress(view, eb)) == _frozen(comp.compress(view, eb))

    def test_constructor_takes_only_what_its_spec_records(self, spec):
        """A spec is the whole configuration: every constructor parameter
        is a spec key."""
        import inspect

        comp = resolve_compressor(spec)
        assert set(inspect.signature(type(comp)).parameters) <= set(comp.spec.options)

    def test_compress_many_equals_per_view_compress(self, spec, views, monkeypatch):
        from repro.compression import sz

        comp = resolve_compressor(spec)
        singles = [comp.compress(v, eb) for v, eb in zip(views, self.EBS)]
        for cpus in (1, 2):
            monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
            batch = comp.compress_many(views, self.EBS)
            assert [_frozen(b) for b in batch] == [_frozen(b) for b in singles]
        assert comp.compress_many([], []) == []

    def test_compress_many_takes_no_thread_count(self, spec):
        import inspect

        params = inspect.signature(resolve_compressor(spec).compress_many).parameters
        assert list(params) == ["views", "ebs", "out"]
        assert params["out"].default is None

    def test_decompress_any_equals_instance_decompress(self, spec, views):
        comp = resolve_compressor(spec)
        other = resolve_compressor(CONTRACT_SPECS[CONTRACT_SPECS.index(spec) - 1])
        for block, view, eb in zip(comp.compress_many(views, self.EBS), views, self.EBS):
            assert isinstance(block, REGISTRY.block_type(comp.spec.family))
            recon = comp.decompress(block)
            assert recon.shape == view.shape
            assert np.array_equal(decompress_any(block), recon)
            if type(other) is type(comp):
                # Blocks are self-describing: an instance of the same
                # class configured differently decodes them the same.
                assert np.array_equal(other.decompress(block), recon)
            if comp.capabilities.error_bounded:
                assert float(np.abs(recon - view.astype(np.float64)).max()) <= eb + 1e-12

    def test_survives_a_pickle_round_trip(self, spec, views):
        comp = resolve_compressor(spec)
        comp.compress(views[0], self.EBS[0])  # used before it travels
        clone = pickle.loads(pickle.dumps(comp))
        assert clone.spec == comp.spec and clone.capabilities == comp.capabilities
        for view, eb in zip(views, self.EBS):
            assert _frozen(clone.compress(view, eb)) == _frozen(comp.compress(view, eb))

    def test_estimate_ladder_where_declared(self, spec, views):
        comp = resolve_compressor(spec)
        if not comp.capabilities.supports_estimate:
            with pytest.raises(UnsupportedCapabilityError, match="supports_estimate"):
                comp.capabilities.require("supports_estimate", "a codec-free probe", comp)
            return
        ladder = comp.estimate_ladder(views, self.EBS)
        assert [[e.n_elements for e in rung] for rung in ladder] == [
            [v.size for v in views]
        ] * len(self.EBS)
        assert [[e.eb for e in rung] for rung in ladder] == [[eb] * len(views) for eb in self.EBS]


class TestDecompressAny:
    def test_dispatch_per_family(self, field):
        eb = 1e-3
        for spec in ("sz", "sz:codec=huffman", "zfp_like:rate=12", "sz_adaptive"):
            comp = resolve_compressor(spec)
            data = field if spec != "sz_adaptive" else field[:8, :8, :8]
            block = comp.compress(data, eb)
            recon = decompress_any(block)
            assert recon.shape == data.shape
            # Error-bounded families honour eb; the fixed-rate family
            # merely reconstructs.
            if comp.capabilities.error_bounded:
                assert float(np.abs(recon - data.astype(np.float64)).max()) <= eb + 1e-12

    def test_unknown_block_type_rejected(self):
        with pytest.raises(TypeError, match="decompresses"):
            decompress_any(object())


class TestDecompressMany:
    def test_matches_per_block_decode_across_families_and_threads(self, field, monkeypatch):
        from repro.compression import sz

        blocks = []
        for spec in ("sz", "sz:codec=huffman", "sz:codec=raw", "zfp_like:rate=12", "sz_adaptive"):
            comp = resolve_compressor(spec)
            data = field if spec != "sz_adaptive" else field[:8, :8, :8]
            blocks += comp.compress_many([data, data[::-1]], [1e-3, 2e-3])
        expected = [decompress_any(b) for b in blocks]
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
            got = decompress_many(blocks)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)

    def test_sz_blocks_decode_together_and_others_alone(self, field, monkeypatch):
        from repro.compression import api, sz

        batches, singles = [], []
        real_many, real_any = sz.decompress_many, api.decompress_any
        monkeypatch.setattr(
            sz,
            "decompress_many",
            lambda blocks, out=None: batches.append(len(blocks)) or real_many(blocks, out),
        )
        monkeypatch.setattr(
            api, "decompress_any", lambda block: singles.append(block) or real_any(block)
        )
        zfp = resolve_compressor("zfp_like").compress(field)
        szb = SZCompressor().compress(field, 1e-3)
        got = decompress_many([szb, zfp, szb])
        assert batches == [2] and singles == [zfp]
        assert np.array_equal(got[0], real_any(szb)) and np.array_equal(got[2], got[0])
        assert np.array_equal(got[1], real_any(zfp))

    def test_takes_no_thread_count(self):
        import inspect

        assert list(inspect.signature(decompress_many).parameters) == ["blocks", "out"]

    def test_empty_and_single(self, field):
        assert decompress_many([]) == []
        block = SZCompressor().compress(field, 1e-3)
        (recon,) = decompress_many([block])
        assert np.array_equal(recon, decompress_any(block))

    def test_compress_is_a_batch_of_one(self, field):
        """``compress(x)`` and ``compress_many([x])[0]`` are the same bytes."""
        for codec in ("zlib", "huffman", "raw"):
            comp = SZCompressor(codec=codec)
            single = comp.compress(field, 1e-3)
            (batched,) = comp.compress_many([field], [1e-3])
            assert single == batched and single.layout == 2


class TestCapabilities:
    def test_declared(self):
        sz = SZCompressor().capabilities
        assert sz.error_bounded and sz.supports_estimate
        assert not sz.fixed_rate
        assert [f.name for f in dataclasses.fields(sz)] == [
            "error_bounded", "fixed_rate", "supports_estimate"
        ]
        zfp = resolve_compressor("zfp_like").capabilities
        assert zfp.fixed_rate and not zfp.error_bounded

    def test_hand_built_zfp_instance_hits_the_capability_gate(self):
        """The class declares its own capabilities, so a hand-constructed
        instance meets the typed gate, not a TypeError deep in calibration."""
        from repro.models.calibration import calibrate_rate_model

        raw = ZFPLikeCompressor(rate=8.0)
        assert raw.capabilities.fixed_rate and not raw.capabilities.error_bounded
        parts = [np.random.default_rng(0).random((8, 8, 8))]
        with pytest.raises(UnsupportedCapabilityError, match="error_bounded"):
            calibrate_rate_model(parts, compressor=raw, eb_scale=0.01)

    def test_require_raises_typed_error(self):
        caps = CompressorCapabilities()
        with pytest.raises(UnsupportedCapabilityError, match="error_bounded"):
            caps.require("error_bounded", "testing")


class TestContractIsCheckedOnEntry:
    """Nothing behind ``resolve_compressor`` looks for a method before
    calling it, so an object missing part of the contract stops there."""

    @staticmethod
    def _stand_in(**overrides):
        real = SZCompressor()
        members = {
            "capabilities": real.capabilities,
            "spec": real.spec,
            "compress": real.compress,
            "compress_many": real.compress_many,
            "decompress": real.decompress,
            "estimate_ladder": real.estimate_ladder,
        }
        members.update(overrides)
        return SimpleNamespace(**{k: v for k, v in members.items() if v is not None})

    def test_a_complete_object_passes_through_untouched(self):
        obj = self._stand_in()
        assert resolve_compressor(obj) is obj

    @pytest.mark.parametrize(
        "missing",
        [
            "capabilities",
            "spec",
            "compress",
            "compress_many",
            "decompress",
            "estimate_ladder",
        ],
    )
    def test_a_missing_member_is_refused_by_name(self, missing):
        obj = self._stand_in(**{missing: None})
        with pytest.raises(UnsupportedCapabilityError, match=rf"lacks .*\b{missing}\b"):
            resolve_compressor(obj)

    def test_the_probe_is_owed_only_where_declared(self):
        obj = self._stand_in(
            capabilities=CompressorCapabilities(error_bounded=True),
            estimate_ladder=None,
        )
        assert resolve_compressor(obj) is obj

    def test_undeclared_members_are_not_guessed(self):
        # A capabilities stand-in of the wrong type and a class-name
        # "spec" are what the deleted fallbacks used to invent.
        for bad in ({"capabilities": True}, {"spec": "SZCompressor"}):
            with pytest.raises(UnsupportedCapabilityError, match=next(iter(bad))):
                resolve_compressor(self._stand_in(**bad))

    def test_every_layer_refuses_at_its_entry(self, field):
        from repro.core.baselines import StaticBaseline
        from repro.core.pipeline import AdaptiveCompressionPipeline
        from repro.models.calibration import RateModelBank, calibrate_rate_model
        from repro.models.rate_model import RateModel

        class CompressOnly:
            def compress(self, data, eb):  # pragma: no cover - never reached
                raise AssertionError("probed an object that is not a compressor")

        model = RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)
        entries = [
            lambda c: calibrate_rate_model([field], compressor=c, eb_scale=0.01),
            lambda c: RateModelBank().calibrate("f", [field], c, eb_scale=0.01),
            lambda c: AdaptiveCompressionPipeline(model, compressor=c),
            lambda c: StaticBaseline(c),
        ]
        for enter in entries:
            with pytest.raises(UnsupportedCapabilityError, match="compress_many"):
                enter(CompressOnly())
