"""Pins for what ``sz_adaptive`` writes: payloads, outlier counts and
``compress_many(out=)`` reconstructions.

Each digest is a sha256 over one batch's outputs, computed on the
commit before the adaptive compressor moved onto the batched integer
front (quantize, Lorenzo and fold over the whole tile stack); the front
must give them back bit for bit.  The cases cover the three codecs,
blocks of 4 and 8, f32 and f64 sources and three regimes: a bound at
which every tile picks Lorenzo, one at which both predictors appear in
the mode mask, and a small ``radius`` that forces outliers.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from repro.compression.regression import AdaptiveSZCompressor

CODECS = ("zlib", "huffman", "raw")
BLOCKS = (4, 8)
DTYPES = (np.float32, np.float64)

#: case -> (bound as a share of each view's std, radius, regression tiles)
#: where "regression tiles" says which predictors the mode mask holds.
CASES = {
    "lorenzo": (1e-3, 1 << 15, "none"),
    "mixed": (0.3, 1 << 15, "some"),
    "outliers": (0.1, 4, "some"),
}


def _field(shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """A random walk on a ramp, plus noise: Lorenzo wins at tight
    bounds, the hyperplane on some tiles at loose ones."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(np.cumsum(rng.normal(0, 1, shape), axis=0), axis=2)
    x = np.arange(shape[0])[:, None, None]
    y = np.arange(shape[1])[None, :, None]
    return walk + 4.0 * x + 3.0 * y + rng.normal(0, 0.5, shape)


def _views(dtype) -> list[np.ndarray]:
    return [_field((16, 16, 16), 1).astype(dtype), _field((16, 24, 8), 2).astype(dtype)]


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _regression_tiles(stream) -> int:
    n_tiles = stream.n_elements // stream.block**3
    modes = zlib.decompress(stream.payloads["modes"])
    return int(np.unpackbits(np.frombuffer(modes, np.uint8), count=n_tiles).sum())


def adaptive_digests(codec: str, block: int, dtype, case: str) -> dict:
    """sha256 of the payloads and the ``out=`` reconstructions of one
    batch, with its outlier counts and regression-tile counts."""
    share, radius, _ = CASES[case]
    views = _views(dtype)
    ebs = [share * float(np.std(v)) for v in views]
    comp = AdaptiveSZCompressor(block=block, codec=codec, radius=radius)
    outs = [np.empty(v.shape) for v in views]
    streams = comp.compress_many(views, ebs, out=outs)
    return {
        "payloads": _sha(
            piece
            for s in streams
            for piece in (repr(s), *(s.payloads[k] for k in sorted(s.payloads)))
        ),
        "recon": _sha(o.tobytes() for o in outs),
        "n_outliers": [s.n_outliers for s in streams],
        "regression_tiles": [_regression_tiles(s) for s in streams],
    }


#: (codec, block, dtype, case) -> digests, computed before the move.
ADAPTIVE_PINS = {
    ('zlib', 4, 'float32', 'lorenzo'): {
        'payloads': '5f8890a3968de1cba715d986447e866268754c9d2b005f0f38a0bdd77744bea4',
        'recon': '29bf9698daf30124566cd7b4c3cdc73013d4dcf5f3852149ae83e7219050461d',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('zlib', 4, 'float32', 'mixed'): {
        'payloads': '0f041f1b087a43538df2be8b4c0e278fb0235a7be992828bff1b76e9daafaa4e',
        'recon': '96dcce13377458e0600789ad929b626cb5c20e79c864f0ba9eb083a993ebd9f7',
        'n_outliers': [0, 0],
        'regression_tiles': [9, 7],
    },
    ('zlib', 4, 'float32', 'outliers'): {
        'payloads': '0a67a9a24675694662c778c70f331a8e4e5184b7e6306f8d2f613076cea3397d',
        'recon': '9cec99fd546d7cfb6f4f548d66ba338c52f11ccf07d60e4fae4d35418fe89813',
        'n_outliers': [64, 43],
        'regression_tiles': [1, 5],
    },
    ('zlib', 4, 'float64', 'lorenzo'): {
        'payloads': 'ee9523bc5a1164d80eca2bac15e69139acc471853b5d3c3bb275f1195e36dd9b',
        'recon': 'eeaab3b651fb7b8db9fc4517e3d80bb73cbf6ee58e233a4f9a5b63a4dbf03e7b',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('zlib', 4, 'float64', 'mixed'): {
        'payloads': 'bc901c80a1ccfca0345796fbf82a6d214ccfece23423026a229113571ccbb0cd',
        'recon': '768c906c1655ba5ef061b88ab4dfa7fa3f15ae067b82f52dcba8f25cd8c405f5',
        'n_outliers': [0, 0],
        'regression_tiles': [9, 7],
    },
    ('zlib', 4, 'float64', 'outliers'): {
        'payloads': 'd982f468458b48c8cdd636c88d4c7c7452581d6d90be2d7f34d0891f4107d75a',
        'recon': '95432ff826ed230d9f9a1f6c3e091634fc08ece02c1f8815b206517f92e67dd9',
        'n_outliers': [64, 43],
        'regression_tiles': [1, 5],
    },
    ('zlib', 8, 'float32', 'lorenzo'): {
        'payloads': '0c8d846398c7ddf9a10477fac926e0014f0822f3224a1a03c7aa11047bbd6ac0',
        'recon': '29bf9698daf30124566cd7b4c3cdc73013d4dcf5f3852149ae83e7219050461d',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('zlib', 8, 'float32', 'mixed'): {
        'payloads': 'c963fe1362ba76c7209a0d5ca5159722801231ca262605d7d18df99bba2d09d6',
        'recon': '96dcce13377458e0600789ad929b626cb5c20e79c864f0ba9eb083a993ebd9f7',
        'n_outliers': [0, 0],
        'regression_tiles': [7, 4],
    },
    ('zlib', 8, 'float32', 'outliers'): {
        'payloads': '9b8e897b2bbf2fc44b4546e52cc117aab007ed692c498c2b0f46484465ccb269',
        'recon': '9cec99fd546d7cfb6f4f548d66ba338c52f11ccf07d60e4fae4d35418fe89813',
        'n_outliers': [8, 4],
        'regression_tiles': [1, 2],
    },
    ('zlib', 8, 'float64', 'lorenzo'): {
        'payloads': '5de09c1bbb8703c23a3d222cf7f384fe56f99c36d561b2c125231a996f0581e2',
        'recon': 'eeaab3b651fb7b8db9fc4517e3d80bb73cbf6ee58e233a4f9a5b63a4dbf03e7b',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('zlib', 8, 'float64', 'mixed'): {
        'payloads': 'd88909e2ffb0c7066bf29463162dc12bbc09d87cf5a57482a518a3b3d5fc928d',
        'recon': '768c906c1655ba5ef061b88ab4dfa7fa3f15ae067b82f52dcba8f25cd8c405f5',
        'n_outliers': [0, 0],
        'regression_tiles': [7, 4],
    },
    ('zlib', 8, 'float64', 'outliers'): {
        'payloads': '358b1a2f91a44f215275d4a6aee0fa55b6ce52cd2785b34eaedc36dc19dbc56e',
        'recon': '95432ff826ed230d9f9a1f6c3e091634fc08ece02c1f8815b206517f92e67dd9',
        'n_outliers': [8, 4],
        'regression_tiles': [1, 2],
    },
    ('huffman', 4, 'float32', 'lorenzo'): {
        'payloads': '75ba77b2a2da4351f2233154c54776450cc204f54e5e928315e849eda932fbf8',
        'recon': '29bf9698daf30124566cd7b4c3cdc73013d4dcf5f3852149ae83e7219050461d',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('huffman', 4, 'float32', 'mixed'): {
        'payloads': '033c769e84ea3aab1bcc388eb9c0976c499467bc15b1b7f09894b87832d05f00',
        'recon': '96dcce13377458e0600789ad929b626cb5c20e79c864f0ba9eb083a993ebd9f7',
        'n_outliers': [0, 0],
        'regression_tiles': [9, 7],
    },
    ('huffman', 4, 'float32', 'outliers'): {
        'payloads': '17757657a331046d99938c0cec15afd07dfb911820c5b3b5a678437647c7861a',
        'recon': '9cec99fd546d7cfb6f4f548d66ba338c52f11ccf07d60e4fae4d35418fe89813',
        'n_outliers': [64, 43],
        'regression_tiles': [1, 5],
    },
    ('huffman', 4, 'float64', 'lorenzo'): {
        'payloads': '7c3c4a9e7b971eb6ffa40e3d5d2bed2de38c1b9db73b3dc715e377b998ba40eb',
        'recon': 'eeaab3b651fb7b8db9fc4517e3d80bb73cbf6ee58e233a4f9a5b63a4dbf03e7b',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('huffman', 4, 'float64', 'mixed'): {
        'payloads': '8d1d241ac05290c6277c5499e625306f19dfc006c54664e8f66ad5d8b7d12928',
        'recon': '768c906c1655ba5ef061b88ab4dfa7fa3f15ae067b82f52dcba8f25cd8c405f5',
        'n_outliers': [0, 0],
        'regression_tiles': [9, 7],
    },
    ('huffman', 4, 'float64', 'outliers'): {
        'payloads': '4f0530df55b1d296117f91068e318bc9a7a9011c12af0c9a9705e5b7c435212a',
        'recon': '95432ff826ed230d9f9a1f6c3e091634fc08ece02c1f8815b206517f92e67dd9',
        'n_outliers': [64, 43],
        'regression_tiles': [1, 5],
    },
    ('huffman', 8, 'float32', 'lorenzo'): {
        'payloads': '8bdc232b41d32638ccb497b37fa9c192d833787c528c9e0fcf917a51df45c9d7',
        'recon': '29bf9698daf30124566cd7b4c3cdc73013d4dcf5f3852149ae83e7219050461d',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('huffman', 8, 'float32', 'mixed'): {
        'payloads': 'f69a960becd66a8a3aeae312c5c6d6bc2e4b47bca4e134d97885413c6889fdad',
        'recon': '96dcce13377458e0600789ad929b626cb5c20e79c864f0ba9eb083a993ebd9f7',
        'n_outliers': [0, 0],
        'regression_tiles': [7, 4],
    },
    ('huffman', 8, 'float32', 'outliers'): {
        'payloads': '8294214535db5f8d568b7df5bf3ac03bf896ea2bacd7fc1b28c72b5eeab42b17',
        'recon': '9cec99fd546d7cfb6f4f548d66ba338c52f11ccf07d60e4fae4d35418fe89813',
        'n_outliers': [8, 4],
        'regression_tiles': [1, 2],
    },
    ('huffman', 8, 'float64', 'lorenzo'): {
        'payloads': '2e982eaf646da32ce084e47518a6158770215f5ea105cdbbb9f8393d5ef38194',
        'recon': 'eeaab3b651fb7b8db9fc4517e3d80bb73cbf6ee58e233a4f9a5b63a4dbf03e7b',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('huffman', 8, 'float64', 'mixed'): {
        'payloads': 'ca9ebf39f8512dd5ab48ec917124d388679a8b6ea850e8030acedc61f5bb5f42',
        'recon': '768c906c1655ba5ef061b88ab4dfa7fa3f15ae067b82f52dcba8f25cd8c405f5',
        'n_outliers': [0, 0],
        'regression_tiles': [7, 4],
    },
    ('huffman', 8, 'float64', 'outliers'): {
        'payloads': '82912d4ac6b0a1908071f114ac384cb6b19f2530789dd1baa02d8655f5e12f63',
        'recon': '95432ff826ed230d9f9a1f6c3e091634fc08ece02c1f8815b206517f92e67dd9',
        'n_outliers': [8, 4],
        'regression_tiles': [1, 2],
    },
    ('raw', 4, 'float32', 'lorenzo'): {
        'payloads': 'bc1f17c3c508cc554de52b04ed625da52d99210a690e29736ac660df6db4863f',
        'recon': '29bf9698daf30124566cd7b4c3cdc73013d4dcf5f3852149ae83e7219050461d',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('raw', 4, 'float32', 'mixed'): {
        'payloads': '6b0bf01f44692da9ba95d3fe0dca20ceb4b3582925eb01553c90d6048aa720ee',
        'recon': '96dcce13377458e0600789ad929b626cb5c20e79c864f0ba9eb083a993ebd9f7',
        'n_outliers': [0, 0],
        'regression_tiles': [9, 7],
    },
    ('raw', 4, 'float32', 'outliers'): {
        'payloads': '1167e5b0d84a52603008cea1f4f059f92199b14431cf130af32822da01e7abff',
        'recon': '9cec99fd546d7cfb6f4f548d66ba338c52f11ccf07d60e4fae4d35418fe89813',
        'n_outliers': [64, 43],
        'regression_tiles': [1, 5],
    },
    ('raw', 4, 'float64', 'lorenzo'): {
        'payloads': '0b9cf33e9d93f3cdc16c2e63850e3d37b7a0cc3486a090309407b41643244076',
        'recon': 'eeaab3b651fb7b8db9fc4517e3d80bb73cbf6ee58e233a4f9a5b63a4dbf03e7b',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('raw', 4, 'float64', 'mixed'): {
        'payloads': '60b35c5c7dde67a02b8360b318281200c1a13c43a4dc0e73afa13f5b0508b2e5',
        'recon': '768c906c1655ba5ef061b88ab4dfa7fa3f15ae067b82f52dcba8f25cd8c405f5',
        'n_outliers': [0, 0],
        'regression_tiles': [9, 7],
    },
    ('raw', 4, 'float64', 'outliers'): {
        'payloads': '00c0e281a5c5f42e4438cff9da92f463793d88b732298de75cce81237f4ba0c4',
        'recon': '95432ff826ed230d9f9a1f6c3e091634fc08ece02c1f8815b206517f92e67dd9',
        'n_outliers': [64, 43],
        'regression_tiles': [1, 5],
    },
    ('raw', 8, 'float32', 'lorenzo'): {
        'payloads': '1e7166fc09e9cc98928c3d6eec8276d9cb58cd1d3a6b04bd199300a98e30c068',
        'recon': '29bf9698daf30124566cd7b4c3cdc73013d4dcf5f3852149ae83e7219050461d',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('raw', 8, 'float32', 'mixed'): {
        'payloads': '81623f9de610a05eec60aa06629b8e585bd4e274e8f46aadfa679284249f3d0b',
        'recon': '96dcce13377458e0600789ad929b626cb5c20e79c864f0ba9eb083a993ebd9f7',
        'n_outliers': [0, 0],
        'regression_tiles': [7, 4],
    },
    ('raw', 8, 'float32', 'outliers'): {
        'payloads': '45b3839bb43de8b2b0b4f62a6b9acb47860c740ceeb177fc3c1f6985e798c182',
        'recon': '9cec99fd546d7cfb6f4f548d66ba338c52f11ccf07d60e4fae4d35418fe89813',
        'n_outliers': [8, 4],
        'regression_tiles': [1, 2],
    },
    ('raw', 8, 'float64', 'lorenzo'): {
        'payloads': '08ef0c807b56c79b452afceabda2496206a6613075a4fe9e84e52bc002c092f6',
        'recon': 'eeaab3b651fb7b8db9fc4517e3d80bb73cbf6ee58e233a4f9a5b63a4dbf03e7b',
        'n_outliers': [0, 0],
        'regression_tiles': [0, 0],
    },
    ('raw', 8, 'float64', 'mixed'): {
        'payloads': 'a1b20f1cadf4dc97db92890e91640247ac0d0025502a45fce8b9a6839fd9e770',
        'recon': '768c906c1655ba5ef061b88ab4dfa7fa3f15ae067b82f52dcba8f25cd8c405f5',
        'n_outliers': [0, 0],
        'regression_tiles': [7, 4],
    },
    ('raw', 8, 'float64', 'outliers'): {
        'payloads': 'fbb2a8fcbfa8074a6c14bd56e91c07562e409b0298075bf4cef005b5103e0305',
        'recon': '95432ff826ed230d9f9a1f6c3e091634fc08ece02c1f8815b206517f92e67dd9',
        'n_outliers': [8, 4],
        'regression_tiles': [1, 2],
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("codec", CODECS)
def test_adaptive_outputs_match_their_pins(codec, block, dtype, case, monkeypatch):
    from repro.compression import regression

    def no_decode(stream):
        raise AssertionError("compress_many(out=) decoded a stream")

    # ``out=`` is written from the encoder's lattice, not by decoding.
    monkeypatch.setattr(regression, "decompress", no_decode)
    got = adaptive_digests(codec, block, dtype, case)
    assert got == ADAPTIVE_PINS[(codec, block, np.dtype(dtype).name, case)]
    # The regime is what the case says it is.
    regression = CASES[case][2]
    n_tiles = [v.size // block**3 for v in _views(dtype)]
    if regression == "none":
        assert got["regression_tiles"] == [0, 0]
    else:
        assert all(0 < r < n for r, n in zip(got["regression_tiles"], n_tiles))
    assert (min(got["n_outliers"]) > 0) == (case == "outliers")
