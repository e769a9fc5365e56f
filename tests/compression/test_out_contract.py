"""``out=``: ``compress_many(views, ebs, out=...)`` — every family
writes each block's reconstruction into ``out`` — and
``decompress_many(blocks, out=...)``, which decodes into it.

The contract: ``out[i]`` equals :func:`decompress_any` of block ``i`` bit
for bit (SZ writes it from the lattice it holds, the other families
decode their own blocks), the blocks are those of an ``out=None`` call,
and anything but one writable float64 array per view, with the view's
shape, is a ``ValueError`` before any work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import sz
from repro.compression.api import (
    UnsupportedCapabilityError,
    decompress_any,
    decompress_many,
    resolve_compressor,
)
from repro.util import fanout

CODECS = ("zlib", "huffman", "raw")


def _frozen(block) -> dict:
    return {
        k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(block).items()
    }


def _specs() -> list[tuple[str, str]]:
    """``(spec, shape kind)`` over every family x mode x codec; the radius
    of 2 sends most residuals to the outlier channel."""
    out = []
    for codec in CODECS:
        for mode in ("abs", "pw_rel"):
            for radius in (2, 1 << 15):
                out.append((f"sz:mode={mode},codec={codec},radius={radius}", "any"))
                out.append(
                    (f"sz:engine=classic,mode={mode},codec={codec},radius={radius}", "tiny")
                )
        out.append((f"sz_adaptive:block=3,codec={codec},radius=2", "thirds"))
        out.append((f"sz_adaptive:block=3,codec={codec}", "thirds"))
    out += [("zfp_like:rate=4", "cube"), ("zfp_like:rate=12", "cube")]
    return out


SPECS = _specs()


@st.composite
def _shapes(draw, kind: str) -> tuple[int, ...]:
    odd = st.sampled_from([1, 3, 5, 7, 9, 11])
    if kind == "any":  # 1-D, 2-D and odd 3-D
        ndim = draw(st.integers(1, 3))
        if ndim == 1:
            return (draw(st.integers(1, 300)),)
        if ndim == 2:
            return (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
        return tuple(draw(odd) for _ in range(3))
    if kind == "tiny":  # the classic order loops over cells in Python
        ndim = draw(st.integers(1, 3))
        return tuple(draw(st.sampled_from([1, 2, 3, 5])) for _ in range(ndim))
    if kind == "thirds":  # odd extents that divide into 3^3 blocks
        return tuple(draw(st.sampled_from([3, 9, 15])) for _ in range(3))
    return tuple(draw(odd) for _ in range(3))  # zfp_like is 3-D only


@st.composite
def _cases(draw, specs=tuple(SPECS)):
    spec, kind = draw(st.sampled_from(specs))
    shape = draw(_shapes(kind))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_views = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ebs = [float(10.0 ** rng.uniform(-3, -1)) for _ in range(n_views)]
    views = []
    for eb in ebs:
        x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 1), shape)
        if "pw_rel" in spec:
            x = np.exp(x)
        else:
            # Negatives within eb of zero: they round to -0.0 on the
            # float lattice, +0.0 once cast to int64 as the decoder does.
            tiny = rng.random(shape) < 0.3
            x[tiny] = -eb * rng.uniform(0.01, 0.99, int(tiny.sum()))
        views.append(x.astype(dtype))
    return spec, views, ebs


def _strided_out(views: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A NaN-filled ``out``: odd entries are strided views into a larger
    buffer (as partition views of a field are), even ones contiguous."""
    bufs, out = [], []
    for i, v in enumerate(views):
        if i % 2:
            big = np.full(tuple(2 * s for s in v.shape), np.nan)
            bufs.append(big)
            out.append(big[tuple(slice(None, None, 2) for _ in v.shape)])
        else:
            out.append(np.full(v.shape, np.nan))
            bufs.append(out[-1])
    return out, bufs


def _assert_written(out: list[np.ndarray], blocks: list) -> None:
    for dst, block in zip(out, blocks):
        want = decompress_any(block)
        assert dst.dtype == want.dtype == np.float64 and dst.shape == want.shape
        assert dst.tobytes() == want.tobytes()  # bits, so -0.0 != +0.0


@given(_cases())
@settings(max_examples=150, deadline=None)
def test_out_is_the_decoded_block_bit_for_bit(case):
    spec, views, ebs = case
    comp = resolve_compressor(spec)
    out, _ = _strided_out(views)
    blocks = comp.compress_many(views, ebs, out=out)
    _assert_written(out, blocks)
    assert [_frozen(b) for b in blocks] == [_frozen(b) for b in comp.compress_many(views, ebs)]


@given(_cases(tuple(s for s in SPECS if s[0].startswith("sz_adaptive"))))
@settings(max_examples=40, deadline=None)
def test_sz_adaptive_writes_out_from_its_encoder(case):
    """``sz_adaptive`` decodes nothing to fill ``out``: its encoder holds
    the lattice every tile decodes to, and that is what it writes."""
    from repro.compression import regression

    spec, views, ebs = case
    comp = resolve_compressor(spec)
    out, _ = _strided_out(views)
    real, regression.decompress = regression.decompress, None  # any decode fails
    try:
        blocks = comp.compress_many(views, ebs, out=out)
    finally:
        regression.decompress = real
    _assert_written(out, blocks)


def test_negative_zeros_keep_the_decoders_sign():
    """Values in (-eb, 0) quantize to a lattice zero; ``out`` must hold
    the decoder's +0.0 there, not the rounded float work array's -0.0."""
    eb = 0.5
    view = np.array([-0.1, -0.4, 0.3, 2.0, -3.0])
    for dtype in (np.float32, np.float64):
        out = [np.full(view.shape, np.nan)]
        block = sz.SZCompressor().compress_many([view.astype(dtype)], [eb], out=out)[0]
        assert not np.signbit(out[0][:3]).any()
        _assert_written(out, [block])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode", ["abs", "pw_rel"])
def test_in_thread_and_pooled_paths_write_the_same(cpus, mode, monkeypatch):
    """Blocks of >= FANOUT_MIN_ELEMENTS fan out over pool threads when
    two CPUs are usable; each writes its own disjoint partition views."""
    monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    pooled = []
    real_map = sz.thread_map
    monkeypatch.setattr(sz, "thread_map", lambda *a: pooled.append(1) or real_map(*a))
    rng = np.random.default_rng(5)
    field = np.cumsum(rng.normal(0, 1, (58, 29, 29)), axis=0)
    if mode == "pw_rel":
        field = np.exp(field / 10.0)
    views = [field[:29], field[29:], field[:29] * 2.0, field[29:] * 0.5]
    assert views[0].size >= sz.FANOUT_MIN_ELEMENTS
    ebs = [0.01, 0.02, 0.005, 0.03]
    comp = resolve_compressor(f"sz:mode={mode}")
    recon = np.full((4, 58, 29, 29), np.nan)
    out = [recon[0, :29], recon[0, 29:], recon[1, :29], recon[1, 29:]]
    blocks = comp.compress_many(views, ebs, out=out)
    _assert_written(out, blocks)
    assert not np.isnan(recon[:2]).any() and np.isnan(recon[2:]).all()
    assert bool(pooled) == (cpus > 1)


@pytest.mark.parametrize("spec", ["sz", "sz:engine=classic", "zfp_like", "sz_adaptive"])
class TestOutIsCheckedBeforeAnyWork:
    VIEWS = [np.ones((4, 4, 4)), np.full((4, 4, 4), 2.0)]
    EBS = [0.1, 0.1]

    def _refused(self, spec, out, match, monkeypatch):
        comp = resolve_compressor(spec)
        for worker in ("compress", "_compress_batch", "_encode"):  # per-family encoders
            if hasattr(type(comp), worker):
                monkeypatch.setattr(
                    type(comp), worker, lambda *a, **k: pytest.fail("compressed before the check")
                )
        with pytest.raises(ValueError, match=match):
            comp.compress_many(self.VIEWS, self.EBS, out=out)

    def test_wrong_length(self, spec, monkeypatch):
        self._refused(spec, [np.empty((4, 4, 4))], "one output array per view", monkeypatch)

    def test_wrong_shape(self, spec, monkeypatch):
        out = [np.empty((4, 4, 4)), np.empty((4, 4, 5))]
        self._refused(spec, out, r"out\[1\] must be .* shape \(4, 4, 4\)", monkeypatch)

    def test_wrong_dtype(self, spec, monkeypatch):
        out = [np.empty((4, 4, 4), np.float32), np.empty((4, 4, 4))]
        self._refused(spec, out, r"out\[0\] must be a writable float64", monkeypatch)

    def test_not_an_array(self, spec, monkeypatch):
        out = [np.empty((4, 4, 4)), [[0.0] * 4] * 4]
        self._refused(spec, out, r"out\[1\] .* got list", monkeypatch)

    def test_read_only(self, spec, monkeypatch):
        frozen = np.empty((4, 4, 4))
        frozen.flags.writeable = False
        self._refused(spec, [np.empty((4, 4, 4)), frozen], "read-only", monkeypatch)


def test_a_compress_many_without_out_is_refused():
    real = sz.SZCompressor()

    class NoOut:
        capabilities = real.capabilities
        spec = real.spec
        compress = real.compress
        decompress = real.decompress
        estimate_ladder = real.estimate_ladder

        def compress_many(self, views, ebs):  # pragma: no cover - never called
            return real.compress_many(views, ebs)

    with pytest.raises(UnsupportedCapabilityError, match="out="):
        resolve_compressor(NoOut())


# -- decompress_many(blocks, out=...) -----------------------------------------


def _decode_into(blocks: list, out: list[np.ndarray]) -> None:
    got = decompress_many(blocks, out=out)
    assert len(got) == len(out) and all(g is dst for g, dst in zip(got, out))
    _assert_written(out, blocks)


@given(_cases())
@settings(max_examples=150, deadline=None)
def test_decompress_many_into_out_is_decompress_any_bit_for_bit(case):
    """Every family x mode x dtype x codec, into contiguous and strided
    arrays; the arrays returned are ``out``'s own."""
    spec, views, ebs = case
    blocks = resolve_compressor(spec).compress_many(views, ebs)
    out, _ = _strided_out(views)
    _decode_into(blocks, out)


def _mixed_blocks() -> list:
    """Blocks of every family, both modes and both source dtypes,
    interleaved, with lattice zeros from negatives inside the bound."""
    rng = np.random.default_rng(17)
    cube = np.cumsum(rng.normal(0, 1, (9, 9, 9)), axis=0)
    cube[rng.random(cube.shape) < 0.2] = -0.004
    small = cube[:3, :3, :3]
    blocks = []
    for dtype in (np.float32, np.float64):
        for spec, view in (
            ("sz", cube),
            ("sz:codec=huffman", cube[:5]),
            ("sz:codec=raw", cube[:, :7]),
            ("sz:mode=pw_rel", np.exp(cube / 4.0)),
            ("sz:engine=classic", small),
            ("sz:engine=classic,mode=pw_rel", np.exp(small)),
            ("sz_adaptive:block=3", cube),
            ("zfp_like:rate=8", cube),
        ):
            blocks += resolve_compressor(spec).compress_many(
                [view.astype(dtype), view[::-1].astype(dtype)], [0.01, 0.005]
            )
    order = rng.permutation(len(blocks))
    return [blocks[i] for i in order]


def test_decompress_many_into_out_with_mixed_families():
    blocks = _mixed_blocks()
    out, _ = _strided_out([np.empty(b.shape) for b in blocks])
    _decode_into(blocks, out)


def test_decompress_many_into_partitions_of_one_field():
    """Partition views of one field buffer, the intended use: no
    assembly, the field is the assembled decode."""
    from repro.parallel.decomposition import BlockDecomposition

    rng = np.random.default_rng(3)
    data = np.cumsum(rng.normal(0, 1, (40, 36, 32)), axis=2)
    dec = BlockDecomposition(data.shape, blocks=(2, 3, 2))
    views = dec.partition_views(data)
    blocks = resolve_compressor("sz").compress_many(views, [0.01] * len(views))
    field = np.full(data.shape, np.nan)
    _decode_into(blocks, dec.partition_views(field))
    assert field.tobytes() == dec.assemble(decompress_many(blocks)).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_decompress_many_into_out_in_thread_and_pooled(cpus, monkeypatch):
    monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng(8)
    field = np.cumsum(rng.normal(0, 1, (58, 29, 29)), axis=0)
    views = [field[:29], field[29:], np.exp(field[:29] / 10.0)]
    blocks = resolve_compressor("sz").compress_many(views[:2], [0.01, 0.02])
    blocks += resolve_compressor("sz:mode=pw_rel").compress_many(views[2:], [0.01])
    assert views[0].size >= sz.FANOUT_MIN_ELEMENTS
    recon = np.full((2, 58, 29, 29), np.nan)
    out = [recon[0, :29], recon[0, 29:], recon[1, :29]]
    _decode_into(blocks, out)
    assert np.isnan(recon[1, 29:]).all()


class TestDecompressOutIsCheckedBeforeAnything:
    @pytest.fixture()
    def blocks(self, monkeypatch):
        blocks = _mixed_blocks()[:6]

        def inflated(*args, **kwargs):
            pytest.fail("inflated before the check")

        from repro.compression import api

        monkeypatch.setattr(sz, "_group_row", inflated)
        monkeypatch.setattr(sz, "_decompress_retired", inflated)
        monkeypatch.setattr(api.REGISTRY, "decompress", inflated)
        return blocks

    @staticmethod
    def _out(blocks):
        return [np.empty(b.shape) for b in blocks]

    def test_wrong_length(self, blocks):
        with pytest.raises(ValueError, match="one output array per view"):
            decompress_many(blocks, out=self._out(blocks)[:-1])

    def test_wrong_shape(self, blocks):
        out = self._out(blocks)
        out[2] = np.empty(tuple(s + 1 for s in out[2].shape))
        with pytest.raises(ValueError, match=r"out\[2\] must be .* shape"):
            decompress_many(blocks, out=out)

    def test_wrong_dtype(self, blocks):
        out = self._out(blocks)
        out[1] = out[1].astype(np.float32)
        with pytest.raises(ValueError, match=r"out\[1\] must be a writable float64"):
            decompress_many(blocks, out=out)

    def test_read_only(self, blocks):
        out = self._out(blocks)
        out[-1].flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            decompress_many(blocks, out=out)

    def test_sz_decompress_many_checks_too(self, blocks):
        mine = [b for b in blocks if isinstance(b, sz.CompressedBlock)]
        with pytest.raises(ValueError, match="one output array per view"):
            sz.decompress_many(mine, out=self._out(mine) + [np.empty(3)])


@pytest.mark.parametrize("cut", ["codes", "outlier_val"])
def test_a_hostile_payload_raises_what_the_no_out_path_raises(cut):
    import dataclasses

    from repro.util.errors import PayloadError

    rng = np.random.default_rng(31)
    views = [np.cumsum(rng.normal(0, 30, (8, 8, 8)), axis=1) for _ in range(4)]
    blocks = sz.SZCompressor(radius=16).compress_many(views, [0.05] * 4)
    bad = blocks[2]
    blocks[2] = dataclasses.replace(
        bad, payloads={**bad.payloads, cut: bad.payloads[cut][:-3]}
    )
    with pytest.raises(PayloadError) as plain:
        decompress_many(blocks)
    with pytest.raises(PayloadError) as into:
        decompress_many(blocks, out=[np.empty(v.shape) for v in views])
    assert str(into.value) == str(plain.value)
