"""One CPU budget: importing ``repro`` sets NumPy's BLAS to one thread,
whatever ``OPENBLAS_NUM_THREADS`` says, so records do not follow it.

A threaded ``ddot`` splits its sum, so the PSNR of a 32^3 field (past
OpenBLAS's threading size) moved in its last bits with the BLAS thread
count.  Each run here is a fresh interpreter, started with
``OPENBLAS_NUM_THREADS`` unset, 1 and 4: a small exact sweep (spectra,
halos, PSNR) and a short governed stream must give the same record
reprs and ledger bytes in every one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.util.fanout import blas_threads

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints the BLAS thread count, then sha256s of a sweep's record reprs
#: and of a governed stream's ledger bytes, as one JSON line.
RUN = """
import hashlib, json, sys, tempfile
from pathlib import Path

import numpy as np

import repro
from repro.core.config import FieldSpec
from repro.foresight.quality import QualityCriteria
from repro.foresight.sweep import run_sweep
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator
from repro.stream import InSituController, SimulatorStream
from repro.util.fanout import blas_threads

sim = NyxSimulator((32, 32, 32), box_size=32.0, seed=4, sigma_delta0=2.5)
dec = BlockDecomposition((32, 32, 32), blocks=2)
snap = sim.snapshot(z=0.5)
fields = {name: snap.fields[name] for name in ("baryon_density", "temperature")}
density = fields["baryon_density"].astype(np.float64)
crit = {
    "baryon_density": QualityCriteria(
        spectrum_tolerance=0.02, check_halos=True,
        t_boundary=float(np.percentile(density, 99.5)),
    ),
    "temperature": QualityCriteria(),
}
ebs = [float(x) for x in np.geomspace(1e-3, 1e-1, 3)]
records = run_sweep(
    {name: data for name, data in fields.items()},
    ebs, crit, decomposition=dec,
)
sweep = hashlib.sha256("".join(map(repr, records)).encode()).hexdigest()

ledger = Path(tempfile.mkdtemp()) / "run.jsonl"
ctl = InSituController(
    dec,
    field_specs={"baryon_density": FieldSpec(halo_aware=True)},
    check_quality=True,
    byte_budget=400_000,
    ledger=ledger,
    retain_results=False,
)
ctl.run(SimulatorStream(sim, [3.0, 2.0, 1.0], fields=tuple(fields)))
ctl.close()
stream = hashlib.sha256(ledger.read_bytes()).hexdigest()
print(json.dumps({"blas_threads": blas_threads(), "sweep": sweep, "stream": stream}))
"""


def _run(threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower()


def test_importing_repro_sets_blas_to_one_thread():
    assert blas_threads() == (1 if _numpy_blas_is_openblas() else None)


@pytest.fixture(scope="module")
def runs() -> dict:
    return {threads: _run(threads) for threads in (None, "1", "4")}


def test_one_thread_whatever_the_environment_asks_for(runs):
    expected = 1 if _numpy_blas_is_openblas() else None
    assert [run["blas_threads"] for run in runs.values()] == [expected] * 3


def test_sweep_records_do_not_follow_the_blas_thread_count(runs):
    assert len({run["sweep"] for run in runs.values()}) == 1


def test_stream_ledger_does_not_follow_the_blas_thread_count(runs):
    assert len({run["stream"] for run in runs.values()}) == 1
