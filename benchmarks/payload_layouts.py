"""The tables behind code-stream layout 2 and its entropy stage (README,
"Payload layouts"): what each candidate byte layout of the same
residuals costs in DEFLATE time and buys in ratio, what each way of
deflating the layout-2 rows costs and buys, and what storing vs
re-deflating the coded members costs the container.

    PYTHONPATH=src python benchmarks/payload_layouts.py [--seed 42] [--grid 128] [--block 32]

One 128^3 Nyx-like snapshot, 6 fields x 64 blocks of 32^3, bound
``0.01 * sigma`` per field, one thread.  The residuals come from the
compressor's own batched front; only the bytes handed to ``zlib``, or
the way they are deflated, differ per row.  The "as written" row calls
``ZlibCodec().encode_row`` — the encoder's own bytes, never a copy of
them.  Not a test: nothing here is asserted, it prints tables.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import zlib
from time import perf_counter

import numpy as np

from repro import BlockDecomposition, NyxSimulator
from repro.compression.codecs import ZlibCodec, pack_symbols
from repro.compression.container import load_blocks, save_blocks
from repro.compression.quantizer import DEFAULT_RADIUS, unfold_symbols_into
from repro.compression.sz import SZCompressor
from repro.util.tables import format_table


def _planes(values: np.ndarray) -> np.ndarray:
    k = values.dtype.itemsize
    return np.ascontiguousarray(values.view(np.uint8).reshape(-1, k).T)


def _layouts(symbols: np.ndarray) -> dict[str, list[np.ndarray]]:
    """Byte rows of one shape group under each candidate layout."""
    residuals = unfold_symbols_into(symbols, np.empty(symbols.shape, np.int64))
    offset = (residuals + DEFAULT_RADIUS).astype(np.uint16)
    packed = [pack_symbols(row) for row in symbols]
    # whole-group chunks: every width's rows concatenated plane-major
    chunks = [
        np.concatenate([p.reshape(-1) for p in packed if p.shape[0] == k])
        for k in sorted({p.shape[0] for p in packed})
    ]
    return {
        "offset uint16, interleaved (layout 1)": list(offset),
        "offset uint16, byte planes": [_planes(row) for row in offset],
        "folded, minimal width, planes (layout 2)": packed,
        "folded, whole-group chunks": chunks,
    }


def _deflate_with(strategy: int):
    def deflate(row: np.ndarray) -> bytes:
        deflater = zlib.compressobj(6, zlib.DEFLATED, 15, 8, strategy)
        return b"\0" + deflater.compress(row) + deflater.flush()  # + the tag byte

    return deflate


#: Ways of deflating one packed layout-2 row, all at level 6.
ENTROPY_STAGES = {
    "default strategy (zlib.compress, what f201a6d wrote)": _deflate_with(zlib.Z_DEFAULT_STRATEGY),
    "Z_FILTERED": _deflate_with(zlib.Z_FILTERED),
    "Z_HUFFMAN_ONLY": _deflate_with(zlib.Z_HUFFMAN_ONLY),
    "Z_RLE, one stream": _deflate_with(zlib.Z_RLE),
    "Z_RLE, block per plane (as written: ZlibCodec.encode_row)": ZlibCodec().encode_row,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--grid", type=int, default=128)
    parser.add_argument("--block", type=int, default=32, help="block side (default 32)")
    args = parser.parse_args()
    grid = (args.grid,) * 3
    snap = NyxSimulator(shape=grid, box_size=float(args.grid), seed=args.seed).snapshot(z=0.5)
    dec = BlockDecomposition(grid, blocks=args.grid // args.block)
    comp = SZCompressor()
    raw = sum(a.nbytes for a in snap.fields.values())
    totals: dict[tuple[str, int], list[float]] = {}
    stages: dict[tuple[str, int], list[float]] = {}  # (stage, width) -> [s, bytes, raw bytes]
    blocks = []
    for data in snap.fields.values():
        views = dec.partition_views(data)
        ebs = np.full(len(views), float(data.std(dtype=np.float64)) * 1e-2)
        symbols = comp._quantize_encode_batch(views, ebs)[0]
        for name, rows in _layouts(symbols).items():
            for level in (1, 6):
                cell = totals.setdefault((name, level), [0.0, 0.0])
                start = perf_counter()
                cell[1] += sum(len(zlib.compress(row, level)) + 1 for row in rows)
                cell[0] += perf_counter() - start
        for row in symbols:
            packed = pack_symbols(row)
            for name, deflate in ENTROPY_STAGES.items():
                cell = stages.setdefault((name, packed.shape[0]), [0.0, 0.0, 0.0])
                start = perf_counter()
                cell[1] += len(deflate(packed))
                cell[0] += perf_counter() - start
                cell[2] += data.dtype.itemsize * row.size
        blocks += comp.compress_many(views, ebs)
    print(format_table(
        ["layout", "zlib level", "deflate s", "ratio"],
        [[name, level, s, raw / nbytes] for (name, level), (s, nbytes) in totals.items()],
        title=f"seed {args.seed}: {len(snap.fields)} fields x {len(dec)} blocks of "
              f"{args.block}^3, one thread",
    ))
    widths = sorted({k for _, k in stages})
    rows = []
    for name in ENTROPY_STAGES:
        cells = [stages.get((name, k), [0.0, 0.0, 0.0]) for k in widths]
        rows.append(
            [name, sum(c[0] for c in cells), raw / sum(c[1] for c in cells)]
            + [c[2] / c[1] if c[1] else float("nan") for c in cells]
        )
    print(format_table(
        ["entropy stage over the layout-2 rows (level 6)", "deflate s", "ratio"]
        + [f"ratio, {k}-byte rows" for k in widths],
        rows,
    ))

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        ebs = np.array([b.eb for b in blocks])
        stored = os.path.join(tmp, "stored.npz")
        start = perf_counter()
        save_blocks(stored, blocks, ebs, args.grid // args.block)
        save_s = perf_counter() - start
        start = perf_counter()
        load_blocks(stored)
        rows.append(["members stored (save_blocks)", save_s, perf_counter() - start,
                     os.path.getsize(stored)])
        # what the container did before: every member deflated again
        members = {f"p{i}_{k}": np.frombuffer(v, np.uint8)
                   for i, b in enumerate(blocks) for k, v in b.payloads.items()}
        deflated = os.path.join(tmp, "deflated.npz")
        start = perf_counter()
        np.savez_compressed(deflated, **members)
        save_s = perf_counter() - start
        start = perf_counter()
        with np.load(deflated) as data:
            for key in data.files:
                data[key].tobytes()
        rows.append(["members re-deflated (np.savez_compressed)", save_s,
                     perf_counter() - start, os.path.getsize(deflated)])
    print(format_table(["container", "save s", "load s", "bytes"], rows))


if __name__ == "__main__":
    main()
