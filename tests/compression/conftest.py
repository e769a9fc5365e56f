"""Frozen code-stream fixtures (see ``fixtures/README.md``)."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.cli import load_blocks

FIXTURES = Path(__file__).parent / "fixtures"


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


@pytest.fixture()
def v1_blocks(v1_expected) -> dict:
    """``note -> (block, expected CRC32)`` of the frozen v1 container,
    loaded fresh per test (tests mutate payloads)."""
    blocks, _, _ = load_blocks(str(FIXTURES / "v1_container.npz"))
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
