"""Pins for the SZ batched front's map step (copy, checks, ``log``,
divide) and what reads it: estimates, payloads, ``out=``
reconstructions and model-mode sweep records.

Each digest is a sha256 over the outputs, computed before the front
mapped its chunk as one stack (one ``copyto`` per block into the
float64 work array, then each check and transform once over the stack);
the front must give them back bit for bit — f32 and f64, ``abs`` and
``pw_rel``, partition views of one field and an odd-shape batch whose
groups include one-block chunks.  Bad input raises the same
``ValueError`` text, before any lattice work.

The ``estimates`` digests and :data:`MODEL_SWEEP_PIN` were recomputed
when the probe's ``predicted_mse`` became the MSE of the decoded values
(outlier cells and ``pw_rel`` included); every other field of the
estimates, the payload and the reconstruction digests kept their pins.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compression import sz
from repro.compression.sz import SZCompressor
from repro.foresight.quality import QualityCriteria
from repro.foresight.sweep import run_sweep
from repro.parallel.decomposition import BlockDecomposition

DTYPES = (np.float32, np.float64)
MODES = ("abs", "pw_rel")


def _positive(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A smooth, strictly positive lognormal-like field."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(np.cumsum(rng.normal(0, 0.1, shape), axis=0), axis=-1)
    return np.exp(walk - walk.mean()) * 3.0


def _partitioned(dtype) -> list[np.ndarray]:
    """Eight strided 16^3 partition views of one 32^3 field."""
    field = _positive((32, 32, 32), 11).astype(dtype)
    return BlockDecomposition(field.shape, (2, 2, 2)).partition_views(field)


def _odd(dtype) -> list[np.ndarray]:
    """Mixed shapes and layouts; every group but one is a lone block."""
    base = _positive((23, 17, 11), 12).astype(dtype)
    return [
        base[:7, :5, :3],
        base[3:10, 2:7, 1:4],
        np.asfortranarray(base[9:16, 10:15, 6:9]),
        base[::2, ::3, 0],
        base[1, 2, :],
        base[:5, :6, :7],
        np.ascontiguousarray(base[4:9, 1:7, 2:9]),
    ]


BATCHES = {"partitioned": _partitioned, "odd": _odd}


def _ebs(views: list[np.ndarray], mode: str) -> np.ndarray:
    """A spread of bounds, per view."""
    if mode == "pw_rel":
        return np.array([1e-3 * (1 + 3 * (i % 4)) for i in range(len(views))])
    return np.array([float(np.ptp(v)) * 2e-3 * (1 + i % 3) for i, v in enumerate(views)])


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def front_digests(batch: str, dtype, mode: str) -> dict[str, str]:
    """sha256 of the estimates, the payloads and the ``out=``
    reconstructions of one batch."""
    views = BATCHES[batch](dtype)
    ebs = _ebs(views, mode)
    comp = SZCompressor(mode=mode)
    outs = [np.empty(v.shape) for v in views]
    blocks = comp.compress_many(views, ebs, out=outs)
    return {
        "estimates": _sha(comp.estimate_ladder([v], [e])[0][0] for v, e in zip(views, ebs)),
        "payloads": _sha(
            piece
            for b in blocks
            for piece in (repr(b), *(b.payloads[k] for k in sorted(b.payloads)))
        ),
        "recon": _sha(o.tobytes() for o in outs),
    }


def model_sweep_digest() -> str:
    """sha256 of a model-mode sweep's record reprs on a small snapshot."""
    from repro.sim.nyx import NyxSimulator

    snap = NyxSimulator(shape=(32, 32, 32), box_size=32.0, seed=3, sigma_delta0=2.5).snapshot(z=0.5)
    fields = {name: snap.fields[name] for name in ("baryon_density", "temperature", "velocity_x")}
    crit = {name: QualityCriteria(spectrum_tolerance=0.01, spectrum_k_max=6) for name in fields}
    records = run_sweep(
        fields,
        [1e-3, 1e-2, 1e-1],
        crit,
        decomposition=BlockDecomposition((32, 32, 32), (2, 2, 2)),
        probe_mode="model",
    )
    return _sha(records)


#: (batch, dtype, mode) -> digests, computed before the stack-wide map.
FRONT_PINS = {
    ('odd', 'float32', 'abs'): {
        "estimates": "ab608022a68d6689b7d316a072f013cd7682c8ad5dac5dfef1b5d67b35c0843a",
        "payloads": "92b13b932902b0d1675948e0ae9c1c657f49dd18d72b6b052cc5e8b780e7d5f6",
        "recon": "08ccf98f67b8b02a3819fb249472000f0eda0287048fa3d29acc90af2d5c27fd",
    },
    ('odd', 'float32', 'pw_rel'): {
        "estimates": "730b9f730563741fecbe8fa59b75405f2b8a3669bacb3239f924ff1a87abbacf",
        "payloads": "0288ed51c72701e4ea41ce1ad71623677b8c1fb7957b676c370cbd0886230d69",
        "recon": "78433694ba9a2f8aac9043949699171224cd08a5d2bfe18fc39d71e847dc5698",
    },
    ('odd', 'float64', 'abs'): {
        "estimates": "4796af907485291146d3397ecb36041fa8bedd8f956b1eb1dc57f6b2121f82b9",
        "payloads": "b9aa8604705f3a919850a24040580b9a619d316662768f20bc93cf68b9326379",
        "recon": "67ecdd1e9918ecb0d32e896983ab63d99c00fe2e5cc2b30f47f6094a72e03ce1",
    },
    ('odd', 'float64', 'pw_rel'): {
        "estimates": "56e90337eca106f049fca8f400efa8e328f8a8f9199e012d64d7c76f24cf890e",
        "payloads": "150f33f24fde7d0b49b62e5643453097d54f7122f039d890abed4e5c08eabdfb",
        "recon": "78433694ba9a2f8aac9043949699171224cd08a5d2bfe18fc39d71e847dc5698",
    },
    ('partitioned', 'float32', 'abs'): {
        "estimates": "2c505aa895af69468d8aa4ada9c222ce2abd65eb975c46ca05ad5870b581a2ca",
        "payloads": "bceef1f41acdf6188f10573a05bb506c214c804b7878f046c0a75315cd474502",
        "recon": "3d7bf0b206415ad9ed59da64d8fc9bfb359d9a38b71e6aecff7d80f36cb3f5e6",
    },
    ('partitioned', 'float32', 'pw_rel'): {
        "estimates": "7d80919adb0727fb79be242112fd7ad6e239e4c70ea0f5a4590f6b5b066627aa",
        "payloads": "8f7da1cbe7bd259a9a8f9223c67a4f6228c7ded36dc5bb07d746c516c9990835",
        "recon": "a6069710b6f36980526998f3e932d634041ced9951a5afae85166edf55d1398d",
    },
    ('partitioned', 'float64', 'abs'): {
        "estimates": "aca2a2936beed9e45288701b563eda97d49cccc84bbd78c449c6d86760809c7f",
        "payloads": "05ca2e91076e7f1b221163faa5ed516926424eaa6f430b70a7d6e7a56d3c3e8e",
        "recon": "2588f3eeeb11b9c8a3d76999290012f4b0497474418460884f84214bcdf4c6fe",
    },
    ('partitioned', 'float64', 'pw_rel'): {
        "estimates": "f29af0050480cb4d458ab0972bdb7bbee9c2f30597b819dabeb758d58c0c2399",
        "payloads": "1ceaaf8b505f6ae846203b1044d1599a6930d0c35d43a2a1f78ec5397fa86527",
        "recon": "a6069710b6f36980526998f3e932d634041ced9951a5afae85166edf55d1398d",
    },
}

MODEL_SWEEP_PIN = "21fba29de3604c1343bd84f0b1be9dee312cbc1062c5ef9446b61ae22a6dfa04"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_front_outputs_match_their_pins(batch, dtype, mode):
    assert front_digests(batch, dtype, mode) == FRONT_PINS[(batch, np.dtype(dtype).name, mode)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_one_ladder_over_the_batch_matches_the_estimate_pins(batch, dtype, mode):
    """The batched probe: one ``estimate_ladder`` of every view at the
    batch's distinct bounds, each view read at its own bound."""
    views = BATCHES[batch](dtype)
    ebs = _ebs(views, mode).tolist()
    rungs = sorted(set(ebs))
    ladder = SZCompressor(mode=mode).estimate_ladder(views, rungs)
    picked = (ladder[rungs.index(eb)][i] for i, eb in enumerate(ebs))
    assert _sha(picked) == FRONT_PINS[(batch, np.dtype(dtype).name, mode)]["estimates"]


def test_model_sweep_records_match_their_pin():
    assert model_sweep_digest() == MODEL_SWEEP_PIN


def _no_lattice(monkeypatch) -> None:
    """Fail the test if the front reaches its quantize step."""

    def refuse(*args, **kwargs):
        raise AssertionError("bad input reached the lattice")

    monkeypatch.setattr(sz, "quantize_lattice_batch", refuse)


NON_FINITE = "data contains non-finite values (NaN or Inf)"
NON_POSITIVE = "pw_rel mode requires strictly positive data"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("probe", [False, True], ids=["compress", "estimate"])
def test_non_finite_block_raises_before_the_lattice(monkeypatch, probe, dtype, mode, bad):
    views = [np.array(v) for v in _partitioned(dtype)]
    ebs = _ebs(views, mode)
    views[5][3, 4, 5] = bad
    _no_lattice(monkeypatch)
    comp = SZCompressor(mode=mode)
    run = comp.estimate_ladder if probe else comp.compress_many
    # -Inf is not positive: pw_rel refuses it as such, as it always has.
    message = NON_POSITIVE if mode == "pw_rel" and bad < 0 else NON_FINITE
    with pytest.raises(ValueError) as err:
        run(views, ebs)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [0.0, -1.5])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("probe", [False, True], ids=["compress", "estimate"])
def test_non_positive_block_under_pw_rel_raises_before_the_lattice(
    monkeypatch, probe, dtype, value
):
    views = [np.array(v) for v in _odd(dtype)]
    ebs = _ebs(views, "pw_rel")
    # Both in the first group, the NaN a row earlier: the positivity
    # check covers the whole chunk before the finite check does.
    views[2][4, 1, 2] = value
    views[0][0, 0, 0] = np.nan
    _no_lattice(monkeypatch)
    comp = SZCompressor(mode="pw_rel")
    run = comp.estimate_ladder if probe else comp.compress_many
    with pytest.raises(ValueError) as err:
        run(views, ebs)
    assert str(err.value) == NON_POSITIVE
