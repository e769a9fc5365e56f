"""The encode front's lattice width: int32 where the rounded range proves
it exact, int64 otherwise, and the same bytes either way.

``quantize_lattice_batch`` picks int32 when every ``|q| < 2**27``: a 1-3-D
Lorenzo residual is then at most ``8 * max|q| < 2**30`` and its folded
symbol fits int32.  These tests sit on both sides of that boundary in
every dimension, on the checkerboard that reaches the 8x worst case, and
on a radius so large that the fold's unsigned compare clamps.  Each one
checks the width the front chose and that payloads, ``estimate_ladder``
results and ``out=`` reconstructions equal those of the same front held
to int64, and the value-by-value reference decoder of ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import quantizer, sz
from repro.compression.sz import SZCompressor, decompress_many

LIMIT = quantizer.INT32_LATTICE_LIMIT

#: Block shapes per dimension, small enough for the reference decoder.
SHAPES = {1: (4096,), 2: (48, 40), 3: (12, 10, 8)}


def _lattice_field(shape: tuple[int, ...], top: int, seed: int) -> np.ndarray:
    """Integral float64 values with ``max |x| == top`` (at ``eb = 0.5``
    the lattice pitch is 1, so ``q == x``): a random walk scaled to the
    range, which keeps most residuals small, with both extremes set."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0, 1, int(np.prod(shape))))
    walk *= (top - 1) / max(np.abs(walk).max(), 1.0)
    x = np.rint(walk).reshape(shape)
    x.flat[7] = top
    x.flat[-3] = -top
    return x


def _checkerboard(shape: tuple[int, ...], top: int) -> np.ndarray:
    """``+-top`` alternating along every axis: the 3-D mixed difference
    of an interior point is ``+-8 * top``."""
    parity = np.indices(shape).sum(axis=0) % 2
    return np.where(parity == 0, float(top), float(-top))


def _run(comp: SZCompressor, views, ebs):
    """``(payloads, estimates, out= reconstructions)`` of one front; the
    estimates are each view's at its own bound, read off one ladder of
    the distinct bounds (one probe pass per bound over the whole
    chunk)."""
    outs = [np.empty(v.shape) for v in views]
    blocks = comp.compress_many(views, ebs, out=outs)
    bounds = sorted(set(ebs))
    ladder = comp.estimate_ladder(views, bounds)
    return blocks, [ladder[bounds.index(eb)][i] for i, eb in enumerate(ebs)], outs


@pytest.fixture()
def widths(monkeypatch):
    """The lattice dtypes the front quantized to, in call order."""
    seen: list[np.dtype] = []
    real = sz.quantize_lattice_batch

    def spy(work):
        lattice = real(work)
        seen.append(None if lattice is None else lattice.dtype)
        return lattice

    monkeypatch.setattr(sz, "quantize_lattice_batch", spy)
    return seen


def _check_against_int64(monkeypatch, comp, views, ebs, reference_decode):
    """Run the front as it chooses, then held to int64: same payloads,
    estimates and ``out=`` bits, and each block's ``out=`` equal to the
    reference decode of its payload and to ``decompress_many``."""
    blocks, estimates, outs = _run(comp, views, ebs)
    with monkeypatch.context() as held:
        held.setattr(quantizer, "INT32_LATTICE_LIMIT", 0)
        wide_blocks, wide_estimates, wide_outs = _run(comp, views, ebs)
    assert [b.payloads for b in blocks] == [b.payloads for b in wide_blocks]
    assert [b.n_outliers for b in blocks] == [b.n_outliers for b in wide_blocks]
    assert estimates == wide_estimates
    assert [o.tobytes() for o in outs] == [o.tobytes() for o in wide_outs]
    for block, out, recon in zip(blocks, outs, decompress_many(blocks)):
        assert reference_decode(block).tobytes() == out.tobytes()
        assert recon.tobytes() == out.tobytes()
    return blocks


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize(
    "top, width",
    [(LIMIT - 1, np.int32), (LIMIT, np.int64), (2**40, np.int64)],
    ids=["2^27-1", "2^27", "2^40"],
)
def test_the_boundary_picks_the_width_and_keeps_the_bytes(
    monkeypatch, widths, reference_decode, ndim, top, width
):
    views = [_lattice_field(SHAPES[ndim], top, seed) for seed in range(3)]
    blocks = _check_against_int64(
        monkeypatch, SZCompressor(), views, [0.5] * 3, reference_decode
    )
    # The front as it chooses, then held to int64; each probe likewise.
    assert widths == [width, width, np.int64, np.int64]
    for block, view in zip(blocks, views):
        assert np.array_equal(reference_decode(block), view)


def test_one_wide_block_widens_its_chunk_and_keeps_the_bytes(
    monkeypatch, widths, reference_decode
):
    """The width is the chunk's: one block at ``2**27`` puts its narrow
    neighbours on the int64 lattice, with their bytes unchanged."""
    views = [_lattice_field(SHAPES[3], top, seed) for seed, top in enumerate(
        [LIMIT - 1, LIMIT, LIMIT - 1]
    )]
    _check_against_int64(monkeypatch, SZCompressor(), views, [0.5] * 3, reference_decode)
    assert widths[:2] == [np.int64, np.int64]
    comp = SZCompressor()
    solo = [comp.compress(v, 0.5).payloads for v in views]
    assert widths[-3:] == [np.int32, np.int64, np.int32]
    assert solo == [b.payloads for b in comp.compress_many(views, [0.5] * 3)]


@pytest.mark.parametrize(
    "codec, radius",
    [
        ("zlib", sz.DEFAULT_RADIUS),
        ("huffman", sz.DEFAULT_RADIUS),
        ("raw", sz.DEFAULT_RADIUS),
        # Huffman counts its alphabet densely: 2**31 symbols are out of
        # its reach on either lattice, so the clamp runs on the planes.
        ("zlib", 2**31 + 1),
        ("raw", 2**31 + 1),
        ("zlib", 2**40),
    ],
    ids=["zlib", "huffman", "raw", "zlib-clamped", "raw-clamped", "zlib-clamped-wide"],
)
def test_checkerboard_reaches_the_worst_case_residual(
    monkeypatch, widths, reference_decode, radius, codec
):
    """``+-(2**27 - 1)`` alternating: interior residuals are
    ``+-8 * (2**27 - 1) = +-(2**30 - 8)``, the int32 proof's worst case.
    At the default radius they are outliers; at a radius whose
    ``2*radius - 2`` passes 2**32 - 1 the int32 fold's unsigned compare
    clamps and every one of them is a four-byte symbol."""
    top = LIMIT - 1
    views = [_checkerboard(SHAPES[3], top), -_checkerboard(SHAPES[3], top)]
    comp = SZCompressor(codec=codec, radius=radius)
    blocks = _check_against_int64(monkeypatch, comp, views, [0.5] * 2, reference_decode)
    assert widths[0] == np.int32
    for block, view in zip(blocks, views):
        assert np.array_equal(reference_decode(block), view)
        if radius == sz.DEFAULT_RADIUS:
            assert block.n_outliers > view.size // 2
        else:
            assert block.n_outliers == 0


@pytest.mark.parametrize("mode", ["abs", "pw_rel"])
def test_a_smooth_field_runs_narrow_and_keeps_the_bytes(
    monkeypatch, widths, reference_decode, mode
):
    rng = np.random.default_rng(11)
    views = [np.exp(rng.normal(0, 0.3, SHAPES[3])) for _ in range(4)]
    ebs = [1e-3 * float(np.std(v)) for v in views] if mode == "abs" else [1e-3] * 4
    _check_against_int64(
        monkeypatch, SZCompressor(mode=mode), views, ebs, reference_decode
    )
    assert widths[0] == np.int32
