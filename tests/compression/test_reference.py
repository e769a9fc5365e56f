"""The classic (CPU-SZ) quantization order as a labelled reference.

:mod:`repro.compression.reference` holds the predict-then-quantize
encoder and decoder the production class no longer carries.  It is
reached through the registry (``sz:engine=classic``), keeps writing the
bytes the old ``SZCompressor(engine="classic")`` wrote (CRC32s recorded
on the parent commit, see ``fixtures/README.md``), keeps decoding the
frozen layout-1 block, validates its input like production, and has no
size model.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.compression.api import (
    REGISTRY,
    CompressorSpec,
    UnsupportedCapabilityError,
    decompress_any,
    resolve_compressor,
)
from repro.compression.reference import ClassicSZCompressor, classic_sz_quantize
from repro.compression.sz import SZCompressor, decompress
from repro.models.calibration import calibrate_rate_model

FIXTURES = Path(__file__).parent / "fixtures"


class TestRegistryDispatch:
    def test_engine_key_selects_the_class(self):
        assert isinstance(resolve_compressor("sz:engine=classic"), ClassicSZCompressor)
        assert isinstance(
            resolve_compressor(CompressorSpec.sz(engine="classic")), ClassicSZCompressor
        )
        assert isinstance(resolve_compressor("sz:engine=dual"), SZCompressor)
        assert isinstance(resolve_compressor("sz"), SZCompressor)

    def test_unknown_engine_is_a_value_error(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_compressor("sz:engine=gpu")

    def test_production_class_has_no_engine_argument(self):
        with pytest.raises(TypeError):
            SZCompressor(engine="classic")
        assert dict(SZCompressor().spec.params)["engine"] == "dual"

    def test_spec_round_trips_through_the_registry(self):
        comp = resolve_compressor("sz:engine=classic,codec=huffman,mode=pw_rel,radius=64")
        spec = comp.spec
        assert spec.options == dict(
            engine="classic", codec="huffman", mode="pw_rel", radius=64
        )
        again = resolve_compressor(CompressorSpec.from_dict(spec.to_dict()))
        assert isinstance(again, ClassicSZCompressor) and again.spec == spec
        # an old ledger's canonical spec also carries the retired kernels key
        stored = CompressorSpec.make("sz", kernels="auto", **spec.options)
        assert isinstance(REGISTRY.create(stored), ClassicSZCompressor)

    def test_it_is_measured_not_modelled(self):
        comp = resolve_compressor("sz:engine=classic")
        caps = comp.capabilities
        assert caps.error_bounded and not caps.supports_estimate
        assert not any(name.startswith("estimate") for name in dir(comp))
        parts = [np.random.default_rng(0).random((6, 6, 6))]
        with pytest.raises(UnsupportedCapabilityError, match="supports_estimate"):
            calibrate_rate_model(
                parts, compressor="sz:engine=classic", eb_scale=0.01,
                probe_mode="model",
            )


class TestErrorBound:
    def test_abs_bound(self, smooth_field):
        comp = ClassicSZCompressor()
        small = smooth_field[:8, :8, :8]
        block = comp.compress(small, 0.3)
        assert block.engine == "classic" and block.layout == 2
        recon = comp.decompress(block)
        assert np.max(np.abs(recon - small)) <= 0.3 + 1e-9

    @pytest.mark.parametrize("codec", ["zlib", "huffman", "raw"])
    def test_bound_across_codecs(self, codec):
        data = np.random.default_rng(3).normal(0, 10, (6, 5, 4))
        block = ClassicSZCompressor(codec=codec).compress(data, 0.05)
        recon = decompress(block)  # module-level dispatch, no instance
        assert np.max(np.abs(recon - data)) <= 0.05 * (1 + 1e-9)

    def test_pw_rel_bound_and_lower_dimensions(self):
        rng = np.random.default_rng(5)
        comp = ClassicSZCompressor(mode="pw_rel")
        for shape in [(40,), (6, 7), (4, 4, 4)]:
            data = np.exp(rng.normal(0, 1, shape))
            recon = decompress_any(comp.compress(data, 0.05))
            assert recon.shape == shape
            assert np.max(np.abs(recon / data - 1.0)) <= 0.05 + 1e-9

    def test_outlier_values_ship_exactly(self):
        data = np.zeros((4, 4, 4))
        data[2, 2, 2] = 1e9
        comp = ClassicSZCompressor(radius=4)
        block = comp.compress(data, 0.1)
        assert block.n_outliers > 0
        assert comp.decompress(block)[2, 2, 2] == 1e9

    def test_compress_many_is_a_loop_over_compress(self):
        rng = np.random.default_rng(12)
        comp = ClassicSZCompressor()
        views = [rng.normal(0, 1, (4, 4, 4)) for _ in range(2)]
        batched = comp.compress_many(views, [0.05] * 2)
        singles = [comp.compress(v, 0.05) for v in views]
        assert [b.payloads for b in batched] == [b.payloads for b in singles]
        with pytest.raises(ValueError, match="one error bound per view"):
            comp.compress_many(views, [0.05])


class TestQuantizer:
    def test_error_bound_holds(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 5, (8, 8, 8))
        eb = 0.2
        _codes, recon = classic_sz_quantize(data, eb, radius=32768)
        assert np.max(np.abs(recon - data)) <= eb + 1e-12

    def test_outliers_preserved_exactly(self):
        data = np.zeros((4, 4, 4))
        data[2, 2, 2] = 1e9  # forces an outlier at tiny radius
        codes, recon = classic_sz_quantize(data, 0.1, radius=4)
        assert codes[2, 2, 2] == 0
        assert recon[2, 2, 2] == 1e9

    def test_rejects_bad_eb(self):
        with pytest.raises(ValueError, match="positive"):
            classic_sz_quantize(np.zeros((2, 2, 2)), 0.0, radius=8)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match="3-D"):
            classic_sz_quantize(np.zeros((4, 4)), 0.1, radius=8)


@pytest.mark.filterwarnings("error")  # rejected up front: no RuntimeWarning either
class TestInputValidation:
    """Same ``ValueError`` messages as the production front."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["abs", "pw_rel"])
    def test_rejects_non_finite_data(self, mode, bad):
        data = np.ones((3, 3, 3))
        data[1, 1, 1] = bad
        expected = "positive data" if mode == "pw_rel" and bad < 0 else "non-finite"
        for comp in (ClassicSZCompressor(mode=mode), SZCompressor(mode=mode)):
            with pytest.raises(ValueError, match=expected):
                comp.compress(data, 0.1)

    def test_rejects_non_positive_pw_rel_data(self):
        for comp in (ClassicSZCompressor(mode="pw_rel"), SZCompressor(mode="pw_rel")):
            with pytest.raises(ValueError, match="strictly positive data"):
                comp.compress(np.array([[[1.0, 0.0]]]), 0.01)

    @pytest.mark.parametrize("value, eb", [(1e300, 1e-300), (1e19, 1.0)])
    def test_rejects_an_unrepresentable_lattice(self, value, eb):
        """``value / 2eb`` overflows to inf, or is finite but >= 2**62."""
        data = np.full((2, 2, 2), value)
        for comp in (ClassicSZCompressor(), SZCompressor()):
            with pytest.raises(ValueError, match="lattice exceeds int64"):
                comp.compress(data, eb)

    def test_rejects_bad_shapes_bounds_and_parameters(self):
        comp = ClassicSZCompressor()
        with pytest.raises(ValueError, match="empty"):
            comp.compress(np.empty((0, 3)), 0.1)
        with pytest.raises(ValueError, match="1-3 dimensional"):
            comp.compress(np.zeros((2, 2, 2, 2)), 0.1)
        with pytest.raises(ValueError, match="positive"):
            comp.compress(np.zeros((2, 2, 2)), 0.0)
        with pytest.raises(ValueError, match="mode"):
            ClassicSZCompressor(mode="fixed_rate")
        with pytest.raises(ValueError, match="radius"):
            ClassicSZCompressor(radius=1)


def _readme_inputs():
    """The inputs of the generator in ``fixtures/README.md``."""
    rng = np.random.default_rng(2026)
    smooth = np.cumsum(np.cumsum(rng.normal(0, 1, (16, 16, 16)), axis=0), axis=2)
    views = [
        smooth[i:i + 8, j:j + 8, k:k + 8] for i in (0, 8) for j in (0, 8) for k in (0, 8)
    ]
    positive = np.exp(0.3 * views[3])
    return {
        "zlib f32": (dict(codec="zlib"), views[0].astype(np.float32), 0.05),
        "huffman f64": (dict(codec="huffman"), views[1], 0.05),
        "raw f32": (dict(codec="raw"), views[2].astype(np.float32), 0.05),
        "zlib pw_rel": (dict(mode="pw_rel"), positive, 0.01),
        "zlib radius=16 (outliers)": (dict(radius=16), views[4], 0.05),
        "zlib radius=8 (float outliers)": (dict(radius=8), views[5], 0.2),
        "zlib uint16 codes": (dict(codec="zlib"), views[6], 1e-3),
        "huffman radius=16 (outliers)": (dict(codec="huffman", radius=16), views[7], 0.05),
    }


class TestFrozenBytes:
    def test_payload_bytes_equal_the_parent_commits(self):
        """Moving the encoder changed no output byte: every payload's
        CRC32 equals what ``SZCompressor(engine="classic")`` wrote."""
        rows = json.loads((FIXTURES / "classic_payload_crc32.json").read_text())["blocks"]
        inputs = _readme_inputs()
        assert [r["note"] for r in rows] == list(inputs)
        for row in rows:
            params, data, eb = inputs[row["note"]]
            spec = CompressorSpec.sz(engine="classic", **params)
            block = resolve_compressor(spec).compress(data, eb)
            got = {name: zlib.crc32(blob) for name, blob in block.payloads.items()}
            assert got == row["crc32"], row["note"]
            assert (block.n_outliers, block.nbytes) == (row["n_outliers"], row["nbytes"])
            bound = eb if block.mode == "abs" else eb * float(np.max(data))
            assert np.max(np.abs(decompress(block) - data)) <= bound * (1 + 1e-6)

    def test_frozen_layout_1_block_still_decodes(self, v1_blocks, recon_crc):
        block, crc = v1_blocks["classic radius=8 (float outliers)"]
        assert (block.engine, block.layout) == ("classic", 1) and block.n_outliers > 0
        assert recon_crc(block, decompress_any(block)) == crc
