"""The frozen fixtures never move: each file's sha256 is pinned here.

``tests/compression/fixtures`` and ``tests/stream/fixtures`` hold bytes
written by older code that today's readers must keep decoding (see each
directory's ``README.md``).  Regenerating one with current code would
test the code against itself, so every file there but the READMEs is
pinned, and a new file fails until its hash is added below.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

TESTS = Path(__file__).parent

#: path under ``tests/`` -> sha256 of the file's bytes.
PINNED = {
    "compression/fixtures/classic_payload_crc32.json": "c55f154b9791c00a3cf63dcc5f6c64473061e7356ce8ac7d1249700d59efb18e",
    "compression/fixtures/v1_container.npz": "fbb753711f973aafe931c0ebc7923424fe204da109bb523eff5b38731e1a1820",
    "compression/fixtures/v1_expected.json": "e1b3d5c221f511965295978276487bc7b60dffcf440a3fc300f9ce705d27487a",
    "compression/fixtures/v1_sz_adaptive.npz": "4c9d19d3302ec2b8c774b92ebb71520a1cd115986251d62d2f862b96edf1cb70",
    "compression/fixtures/v2_default_strategy.json": "ad3f08d44d3ec4a243047d8ccaaa3348ce0dce763cbe799e8e1f4e1fe1f698a2",
    "compression/fixtures/v2_default_strategy.npz": "9f034eae5b5863d24ecdff98ef277cb557d8f7a178413fc234b90fd3ea75185a",
    "compression/fixtures/v2_default_strategy.sz_adaptive.npz": "6d8daa68d3965dcd55de5729e6b74244240c479122fe7baa994ddbb6f6011bb4",
    "stream/fixtures/pr4_ledger.decisions.json": "08a273f66420105a72b3b4d8f0fbb08a8204d32f1c077b915d148fd8da44db12",
    "stream/fixtures/pr4_ledger.jsonl": "7867e3804920f0660cc1878f70b9f11de372fe496716a31ef16db5347c86d254",
    "stream/fixtures/v2_ledger.decisions.json": "5ca1385b48079325d34a1602aec4aa72a48534d0901b0781f936d9a0e1fb38e3",
    "stream/fixtures/v2_ledger.jsonl": "f60ff81ab0504b20f7650b62f8fe450db6c8ae0926e4f5e32cce5cad88c5c5d3",
    "stream/fixtures/v3_ledger.decisions.json": "32fd1245b41cd64c091754e8e0d7dcf808c0e6db7d3b881a6a132d19a7a443ef",
    "stream/fixtures/v3_ledger.jsonl": "cb09ad576c38b073798c0ac33bf45b45c3f30a8d7354937bc093b8db67094362",
    "stream/fixtures/v3_model_ledger.decisions.json": "4832627691b8af3bbd648343197155e6cd10612fd8490b5c6aaea1f26e9a9e8d",
    "stream/fixtures/v3_model_ledger.jsonl": "2c520a8af1f022d99cfb627d1d3399a34631ba1c1e9288c0f0f682d4f76896ea",
}


def test_every_frozen_fixture_keeps_its_bytes():
    found = {
        path.relative_to(TESTS).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for directory in ("compression/fixtures", "stream/fixtures")
        for path in sorted((TESTS / directory).iterdir())
        if path.name != "README.md"
    }
    assert found == PINNED
