"""Re-fit the codec-free size model of ``repro.compression.estimator``.

    PYTHONPATH=src python benchmarks/fit_rate_estimator.py

The estimator predicts the entropy-coded size of a block from its symbol
census; its constants (``_DEFLATE_EFF_G``, the ``_DEFLATE_TREE_*`` terms,
``_HUFF_ZLIB_G``, ``_HUFF_TABLE_*``) are empirical and belong to one byte
layout.  Whenever the bytes handed to the entropy stage change, run this,
paste the printed constants into ``estimator.py`` and let
``tests/compression/test_estimator.py`` judge the result.

Samples: Nyx-like snapshots (4 seeds, 2 redshifts, 6 fields) and GRFs (4
spectral slopes) cut into 12^3 .. 64^3 blocks at 9-12 bounds each; every
sample is (per-plane byte entropies, distinct byte values, real zlib /
huffman payload size).  Takes a few minutes.  Not a test.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from repro import BlockDecomposition, NyxSimulator
from repro.compression import estimator as est
from repro.compression.codecs import HuffmanCodec, ZlibCodec, pack_symbols
from repro.compression.sz import SZCompressor
from repro.sim.grf import gaussian_random_field

FRACS = [2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2, 6.4e-2]


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def symbol_rows(comp: SZCompressor, views: list[np.ndarray], eb: float) -> np.ndarray:
    """The compressor front's folded symbols of ``views`` at bound
    ``eb``: one row per view, what the entropy stage codes."""
    return comp._quantize_encode_batch(views, np.full(len(views), eb))[0]


def collect() -> tuple[list[dict], list[dict]]:
    comp, huff, deflater = SZCompressor(), HuffmanCodec(), ZlibCodec()
    deflate, huffman = [], []

    def sample(views, eb, with_huffman):
        symbols = symbol_rows(comp, views, eb)
        for row in symbols:
            packed = pack_symbols(row)
            planes = [np.bincount(p, minlength=256) for p in packed]
            deflate.append(dict(
                n=row.size, k=len(planes), h=[_entropy(c) for c in planes],
                d=sum(int((c > 0).sum()) for c in planes),
                nbytes=len(deflater.encode_row(packed)),  # the encoder's own bytes
            ))
            if with_huffman:
                counts = np.bincount(row)
                huffman.append(dict(n=row.size, h=_entropy(counts), used=int((counts > 0).sum()),
                                    nbytes=len(huff.encode_row(row))))

    for seed, side, sigma in ((1234, 32, 2.5), (42, 64, 2.5), (7, 64, 1.5), (11, 48, 3.0)):
        sim = NyxSimulator(shape=(side,) * 3, box_size=float(side), seed=seed, sigma_delta0=sigma)
        for z in (0.5, 2.0):
            for data in sim.snapshot(z=z).fields.values():
                span, std = float(np.ptp(data.astype(np.float64))), float(data.std(dtype=np.float64))
                for blocks in (1, 2, 4):
                    views = BlockDecomposition(data.shape, blocks=blocks).partition_views(data)
                    views = views[:: max(1, len(views) // 6)]
                    if views[0].size < 1728:
                        continue
                    for eb in [span * f for f in FRACS] + [std * f for f in (1e-3, 1e-2, 1e-1)]:
                        sample(views, eb, with_huffman=side <= 48 and blocks <= 2)
    for seed, slope in ((7, -2.5), (3, -1.5), (5, -3.5), (9, -0.5)):
        field = gaussian_random_field((48,) * 3, lambda k, s=slope: (k + 1e-3) ** s,
                                      seed=seed, target_sigma=1.0)
        for blocks in (1, 3):
            views = BlockDecomposition(field.shape, blocks=blocks).partition_views(field)[::5]
            for frac in FRACS:
                sample(views, float(np.ptp(field)) * frac, with_huffman=True)
    return deflate, huffman


def fit_deflate(rows: list[dict]) -> None:
    knots = est._DEFLATE_EFF_H
    n = np.array([r["n"] for r in rows], float)
    k = np.array([r["k"] for r in rows], float)
    h = np.zeros((len(rows), 8))
    for i, r in enumerate(rows):
        h[i, : r["k"]] = r["h"]
    distinct = np.array([r["d"] for r in rows], float)
    actual = est.HEADER_BYTES + np.array([r["nbytes"] for r in rows], float)
    chunks = np.maximum(1.0, np.ceil(n * k / est._DEFLATE_CHUNK_BYTES))

    def predict(theta):
        gains, (base, per, cap_frac, cap_base) = theta[: len(knots)], theta[len(knots):]
        coded = (np.interp(h, knots, gains) * h).sum(axis=1)
        tree = np.minimum(base + per * distinct,
                          cap_frac * h.sum(axis=1) / 8 * n / chunks + cap_base)
        bits = np.minimum(coded + 8 * chunks * tree / n, 8.06 * k)
        return est.HEADER_BYTES + est.PAYLOAD_CONTAINER_BYTES + n * bits / 8

    start = np.concatenate([est._DEFLATE_EFF_G, [
        est._DEFLATE_TREE_BASE, est._DEFLATE_TREE_PER_BYTE_SYMBOL,
        est._DEFLATE_TREE_CAP_FRACTION, est._DEFLATE_TREE_CAP_BASE]])
    lo = np.concatenate([np.full(len(knots), 0.3), np.zeros(4)])
    hi = np.concatenate([np.full(len(knots), 1.6), [200, 10, 2, 500]])
    sol = least_squares(lambda t: predict(t) / actual - 1, start, bounds=(lo, hi),
                        loss="soft_l1", f_scale=0.03)
    for label, theta in (("current", start), ("fitted", sol.x)):
        rel = np.abs(predict(theta) / actual - 1)
        outside = (rel > 0.10) & (8 * np.abs(predict(theta) - actual) / n > 0.1)
        print(f"deflate {label}: p95 {np.percentile(rel, 95):.3f} p99 "
              f"{np.percentile(rel, 99):.3f}, {outside.sum()} of {len(rows)} outside +-10 % / 0.1 bit")
    print("_DEFLATE_EFF_G =", np.round(sol.x[: len(knots)], 2).tolist())
    print("_DEFLATE_TREE_{BASE, PER_BYTE_SYMBOL, CAP_FRACTION, CAP_BASE} =",
          np.round(sol.x[len(knots):], 2).tolist())


def fit_huffman(rows: list[dict]) -> None:
    knots = est._HUFF_ZLIB_H
    n = np.array([r["n"] for r in rows], float)
    h = np.array([r["h"] for r in rows])
    used = np.array([r["used"] for r in rows], float)
    actual = est.HEADER_BYTES + np.array([r["nbytes"] for r in rows], float)

    def predict(theta):
        bits = h * np.interp(h, knots, theta[: len(knots)]) + 8 * (theta[-2] + theta[-1] * used) / n
        return est.HEADER_BYTES + est.PAYLOAD_CONTAINER_BYTES + n * bits / 8

    start = np.concatenate([est._HUFF_ZLIB_G, [est._HUFF_TABLE_BASE, est._HUFF_TABLE_PER_SYMBOL]])
    sol = least_squares(lambda t: predict(t) / actual - 1, start, loss="soft_l1", f_scale=0.03)
    for label, theta in (("current", start), ("fitted", sol.x)):
        rel = np.abs(predict(theta) / actual - 1)
        print(f"huffman {label}: p95 {np.percentile(rel, 95):.3f} max {rel.max():.3f} "
              f"over {len(rows)} samples")
    print("_HUFF_ZLIB_G =", np.round(sol.x[: len(knots)], 2).tolist())
    print("_HUFF_TABLE_{BASE, PER_SYMBOL} =", np.round(sol.x[len(knots):], 2).tolist())


if __name__ == "__main__":
    deflate_rows, huffman_rows = collect()
    fit_deflate(deflate_rows)
    fit_huffman(huffman_rows)
