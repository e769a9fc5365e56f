"""The sweep trials a field's bounds side by side: its records, its
reference-cache counters and its errors are those of a bound-by-bound
run, whatever the usable CPU count."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.compression import sz
from repro.foresight.quality import QualityCriteria
from repro.foresight.sweep import run_sweep
from repro.parallel.decomposition import BlockDecomposition
from repro.util import fanout

EBS = [2e-3, 5e-3, 1e-2, 3e-2, 8e-2]


def _cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)


@pytest.fixture(scope="module")
def fields():
    rng = np.random.default_rng(5)
    smooth = np.cumsum(np.cumsum(rng.normal(0, 0.05, (32, 32, 32)), axis=0), axis=1)
    density = np.exp(smooth - smooth.mean())
    return {
        "density": density.astype(np.float32),
        "temperature": (smooth + 10.0).astype(np.float64),
    }


@pytest.fixture(scope="module")
def criteria(fields):
    t_boundary = float(np.percentile(fields["density"], 97))
    return {
        "density": QualityCriteria(
            spectrum_tolerance=0.01, check_halos=True, t_boundary=t_boundary
        ),
        "temperature": QualityCriteria(spectrum_tolerance=0.005),
    }


DEC = BlockDecomposition((32, 32, 32), (2, 2, 2))

CONFIGS = {
    "exact": dict(decomposition=DEC),
    "model-never": dict(decomposition=DEC, probe_mode="model"),
    "model-boundary": dict(decomposition=DEC, probe_mode="model", confirm="boundary"),
    "exact-rate-only": dict(decomposition=DEC, rate_only=True),
    "model-rate-only": dict(decomposition=DEC, probe_mode="model", rate_only=True),
    "compressors": dict(decomposition=DEC, compressors=["sz", "sz:codec=huffman", "zfp_like"]),
    "whole-field": dict(decomposition=None),
    "whole-field-model": dict(decomposition=None, probe_mode="model", confirm="boundary"),
}


#: sha256 of each config's ``repr(records)``, as the sweep wrote them
#: when every measured cell still decoded its blocks; "compressors"
#: covers ``zfp_like`` and Huffman, "whole-field" ``decomposition=None``.
#: "whole-field-model" (trusted and confirmed cells mixed) was taken
#: before the R-Q engine returned each cell's report itself.
PINS = {
    "compressors": "f688427c74764402bbe953225827a01ec5aee4ac498b7d09411e10fd323b80c0",
    "exact": "93fcd0bf7355dba08c2317555df9e5cfe4b0e30c3f064adb79f2671fb60a8583",
    "exact-rate-only": "a2da7af0877ab307dca74d372f872fed2eefb39a79ce68cae909e0585bd174f1",
    "model-boundary": "e09ff4001c6d5b6402abdde1c94c78035e31447ef70b5ffeea271520bb599e0e",
    "model-never": "5f245f60aa43719a7c43e40d4398ba54d3c3f0ea1edc3a7e0bb5f6f1e4b08796",
    "model-rate-only": "cc37a5e6aad63b590bfaf016331e3a27a9da24d6004218e26b4213a73b7065a4",
    "whole-field": "1cc8bd646c670f1f8df34634963e811c7736eba15352a8cbfc65cb27c87b454d",
    "whole-field-model": "9df680841b5a93042c462db3846c632ff8dbb379b6b86bfc3a8e2ae936877e27",
}


def _sweep(fields, criteria, config: str) -> str:
    # repr: floats to the last bit, and a NaN equals itself
    return repr(run_sweep(fields, EBS, criteria, **CONFIGS[config]))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_records_are_pinned(fields, criteria, config):
    assert hashlib.sha256(_sweep(fields, criteria, config).encode()).hexdigest() == PINS[config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_records_do_not_depend_on_the_cpu_count(fields, criteria, config, monkeypatch):
    got = {}
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        got[cpus] = _sweep(fields, criteria, config)
    assert got[2] == got[1] and got[4] == got[1]


def test_the_boundary_sweep_confirms_some_cells_and_trusts_others(fields, criteria):
    # The boundary case above is only meaningful if it mixes both.
    records = run_sweep(fields, EBS, criteria, **CONFIGS["model-boundary"])
    trusted = run_sweep(fields, EBS, criteria, **CONFIGS["model-never"])
    confirmed = [r != t for r, t in zip(records, trusted)]
    assert any(confirmed) and not all(confirmed)


@pytest.mark.parametrize("config", ["exact", "model-boundary", "whole-field-model", "compressors"])
def test_reference_cache_counters_are_a_one_cpu_runs(fields, criteria, config, monkeypatch):
    counts = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with telemetry.armed():
            _sweep(fields, criteria, config)
            counts[cpus] = [
                (m["name"], m["value"])
                for m in telemetry.get_registry().snapshot()
                if m["name"].startswith("foresight.cache.")
            ]
    assert counts[1] and counts[2] == counts[1]


@pytest.mark.parametrize("probe_mode", ["exact", "model"])
def test_an_error_in_one_bounds_cell_propagates(fields, criteria, probe_mode, monkeypatch):
    _cpus(monkeypatch, 2)
    # a bound so small the lattice overflows int64: that cell alone fails
    ebs = EBS[:2] + [1e-300] + EBS[2:]
    with pytest.raises(ValueError, match="error bound too small"):
        run_sweep(fields, ebs, criteria, decomposition=DEC, probe_mode=probe_mode)
