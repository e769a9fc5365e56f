"""Frozen code-stream fixtures (see ``fixtures/README.md``)."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from oracles import unfold

from repro.compression.codecs import PLANES_BIT, get_codec
from repro.compression.container import load_blocks
from repro.compression.sz import CompressedBlock

FIXTURES = Path(__file__).parent / "fixtures"


def _inflate(blob: bytes) -> bytes:
    return zlib.decompress(blob) if blob else b""


def _symbols(block) -> list[int]:
    """A layout-2 block's folded symbols, assembled byte plane by byte
    plane (Huffman streams go through their codec, whose own reference
    is frozen in ``test_huffman.py``)."""
    n = block.n_elements
    codes = block.payloads["codes"]
    if block.codec_name == "huffman":
        return get_codec("huffman").decode(codes, n).tolist()
    k = codes[0] & ~PLANES_BIT
    raw = zlib.decompress(codes[1:]) if block.codec_name == "zlib" else codes[1:]
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(k, n)
    return [sum(int(planes[p, i]) << (8 * p) for p in range(k)) for i in range(n)]


def _reference_decode(block) -> np.ndarray:
    """A dual-engine layout-2 block decoded the textbook way: unfold each
    symbol -> scatter the outliers -> ``np.cumsum`` per axis -> ``q * 2eb``."""
    symbols = _symbols(block)
    residuals = [unfold(s) for s in symbols]  # outlier slots: 0, overwritten below
    if block.n_outliers:
        pos_blob = block.payloads["outlier_pos"]
        positions = np.frombuffer(_inflate(pos_blob[1:]), dtype=f"<u{pos_blob[0]}")
        values = np.frombuffer(_inflate(block.payloads["outlier_val"]), dtype=np.uint64)
        for pos, zz in zip(positions.tolist(), values.tolist()):
            assert symbols[pos] == 0
            residuals[pos] = zz >> 1 if zz % 2 == 0 else -(zz >> 1) - 1
    q = np.array(residuals, dtype=np.int64).reshape(block.shape)
    for axis in range(q.ndim):
        q = np.cumsum(q, axis=axis)
    abs_eb = block.eb if block.mode == "abs" else float(np.log1p(block.eb))
    work = q.astype(np.float64) * (2.0 * abs_eb)
    return work if block.mode == "abs" else np.exp(work)


@pytest.fixture(scope="session")
def reference_decode():
    """``block -> reconstruction`` of a dual-engine layout-2 block, spelled
    out value by value: what every decode path must equal bit for bit."""
    return _reference_decode


def _reconstruction_crc(block, recon: np.ndarray) -> int:
    if block.mode == "pw_rel":
        recon = np.rint(np.log(recon) / (2.0 * np.log1p(block.eb))).astype(np.int64)
    return zlib.crc32(np.ascontiguousarray(recon).tobytes())


@pytest.fixture(scope="session")
def recon_crc():
    """``(block, reconstruction) -> CRC32`` of the reconstruction's bytes.
    ``pw_rel`` blocks are compared on their integer log-lattice: the
    final ``exp`` is not bit-stable across math libraries, the lattice is."""
    return _reconstruction_crc


@pytest.fixture(scope="session")
def v1_expected() -> dict:
    return json.loads((FIXTURES / "v1_expected.json").read_text())


def _load_v1_container(path) -> list:
    """The layout-1 blocks of the frozen v1 container.  Its ``__meta`` is
    the pre-JSON object array, ``(shape "8,8,8", source_itemsize, eb,
    mode, engine, codec, radius, n_outliers)`` per row, which only pickle
    reads and ``load_blocks`` refuses; the file's bytes are pinned by
    ``tests/test_frozen_fixtures.py``."""
    with np.load(path, allow_pickle=True) as data:
        return [
            CompressedBlock(
                shape=tuple(int(s) for s in shape.split(",")),
                source_itemsize=itemsize, eb=eb, mode=mode, engine=engine,
                codec_name=codec, radius=radius, n_outliers=n_outliers,
                payloads={
                    name: data[f"p{i}_{name}"].tobytes()
                    for name in ("codes", "outlier_pos", "outlier_val")
                },
                layout=1,
            )
            for i, (shape, itemsize, eb, mode, engine, codec, radius, n_outliers)
            in enumerate(data["__meta"].tolist())
        ]


@pytest.fixture()
def v1_blocks(v1_expected) -> dict:
    """``note -> (block, expected CRC32)`` of the frozen v1 container,
    loaded fresh per test (tests mutate payloads)."""
    blocks = _load_v1_container(FIXTURES / "v1_container.npz")
    rows = v1_expected["v1_container.npz"]
    assert len(blocks) == len(rows)
    return {row["note"]: (block, row["crc32"]) for block, row in zip(blocks, rows)}


@pytest.fixture(scope="session")
def v2_expected() -> dict:
    return json.loads((FIXTURES / "v2_default_strategy.json").read_text())


@pytest.fixture()
def v2_blocks(v2_expected) -> dict:
    """``note -> (block, expected row)`` of the frozen layout-2 container
    written with zlib's default strategy, loaded fresh per test."""
    blocks, _, _ = load_blocks(str(FIXTURES / "v2_default_strategy.npz"))
    rows = v2_expected["v2_default_strategy.npz"]
    assert len(blocks) == len(rows)
    return {row["note"]: (block, row) for block, row in zip(blocks, rows)}
