"""The pluggable compressor backbone: specs, registry, capabilities.

The load-bearing guarantee is byte-identity: resolving a spec through
the registry must produce payloads equal to direct construction, for
every entropy codec and family — otherwise the refactor silently
changed the compressed streams.
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
    CompressorCapabilities,
    CompressorSpec,
    SZCompressor,
    UnsupportedCapabilityError,
    ZFPLikeCompressor,
    capabilities_of,
    decompress_any,
    decompress_many,
    resolve_compressor,
    spec_of,
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
        assert isinstance(resolve_compressor("sz_adaptive")._inner, AdaptiveSZCompressor)
        assert resolve_compressor(None).spec == REGISTRY.canonical(CompressorSpec("sz"))


class TestByteIdentity:
    """Registry adapters must be byte-identical to direct use."""

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

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.sampled_from([2.0, 4.0, 8.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_zfp_like(self, rate, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, (8, 8, 8))
        direct = ZFPLikeCompressor(rate=rate).compress(data)
        via_registry = REGISTRY.create(f"zfp_like:rate={rate}").compress(data, eb=0.1)
        assert via_registry.payload == direct.payload
        assert np.array_equal(via_registry.exponents, direct.exponents)

    def test_sz_adaptive(self, field):
        direct = AdaptiveSZCompressor(codec="zlib").compress(field[:8, :8, :8], 1e-3)
        adapted = REGISTRY.create("sz_adaptive").compress(field[:8, :8, :8], 1e-3)
        assert adapted.payloads == direct.payloads


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
            if capabilities_of(comp).error_bounded:
                assert float(np.abs(recon - data.astype(np.float64)).max()) <= eb + 1e-12

    def test_unknown_block_type_rejected(self):
        with pytest.raises(TypeError, match="decompresses"):
            decompress_any(object())


class TestDecompressMany:
    def test_matches_per_block_decode_across_families_and_threads(self, field):
        blocks = []
        for spec in ("sz", "sz:codec=huffman", "sz:codec=raw", "zfp_like:rate=12", "sz_adaptive"):
            comp = resolve_compressor(spec)
            data = field if spec != "sz_adaptive" else field[:8, :8, :8]
            blocks += comp.compress_many([data, data[::-1]], [1e-3, 2e-3])
        expected = [decompress_any(b) for b in blocks]
        for threads in (None, 1, 2, 3, 16):
            got = decompress_many(blocks, threads=threads)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)

    def test_threads_caps_the_fan_out(self, field, monkeypatch):
        import threading

        from repro.compression import api

        seen = set()

        def decode(block):
            seen.add(threading.get_ident())
            return block

        monkeypatch.setattr(api, "decompress_any", decode)
        # stand-ins large enough to be worth a thread each
        blocks = [SimpleNamespace(n_elements=api.FANOUT_MIN_ELEMENTS) for _ in range(11)]
        for threads in (1, 2, 3):
            seen.clear()
            assert decompress_many(blocks, threads=threads) == blocks
            assert len(seen) <= threads
            if threads == 1:
                assert seen == {threading.get_ident()}

    def test_empty_and_single(self, field):
        assert decompress_many([]) == []
        block = SZCompressor().compress(field, 1e-3)
        (recon,) = decompress_many([block], threads=4)
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
        sz = capabilities_of(SZCompressor())
        assert sz.error_bounded and sz.supports_estimate
        assert not sz.fixed_rate
        assert [f.name for f in dataclasses.fields(sz)] == [
            "error_bounded", "fixed_rate", "supports_estimate"
        ]
        zfp = capabilities_of(resolve_compressor("zfp_like"))
        assert zfp.fixed_rate and not zfp.error_bounded

    def test_raw_zfp_instance_declares_fixed_rate(self):
        """A hand-constructed ZFPLikeCompressor (not the adapter) must hit
        the typed capability gate, not a TypeError deep in calibration."""
        from repro.models.calibration import calibrate_rate_model

        raw = ZFPLikeCompressor(rate=8.0)
        caps = capabilities_of(raw)
        assert caps.fixed_rate and not caps.error_bounded
        parts = [np.random.default_rng(0).random((8, 8, 8))]
        with pytest.raises(UnsupportedCapabilityError, match="error_bounded"):
            calibrate_rate_model(parts, compressor=raw, eb_scale=0.01)

    def test_legacy_fallback_assumes_error_bounded(self):
        class Legacy:
            def compress(self, data, eb):
                raise NotImplementedError

        caps = capabilities_of(Legacy())
        assert caps.error_bounded
        assert not caps.supports_estimate

    def test_require_raises_typed_error(self):
        caps = CompressorCapabilities()
        with pytest.raises(UnsupportedCapabilityError, match="error_bounded"):
            caps.require("error_bounded", "testing")

    def test_spec_of_instances(self):
        assert spec_of(SZCompressor()).family == "sz"
        assert spec_of(object()) is None

    def test_adapters_picklable(self, field):
        # Process backends pickle compressors into workers.
        comp = resolve_compressor("zfp_like:rate=6")
        clone = pickle.loads(pickle.dumps(comp))
        data = field
        assert clone.compress(data, 0.1).payload == comp.compress(data, 0.1).payload
