"""Simulated MPI runtime, domain decomposition and execution backends.

Nyx partitions its grid across MPI ranks; the paper's in situ protocol
is "every rank extracts its partition's features, one ``MPI_Allreduce``
shares the global mean, every rank solves for its own bound and
compresses".  This package reproduces that pattern without real MPI:

- :mod:`repro.parallel.comm` — the communicator interface plus the
  trivial serial implementation,
- :mod:`repro.parallel.simcomm` — a thread-backed SPMD communicator with
  barrier-synchronized collectives (allreduce/allgather/bcast/gather),
- :mod:`repro.parallel.executor` — ``run_spmd(nranks, fn)`` launching one
  thread per rank,
- :mod:`repro.parallel.decomposition` — 3-D block decomposition mapping
  ranks to grid partitions (views, no copies),
- :mod:`repro.parallel.backends` — the pluggable execution layer: a
  registry of serial / thread / process backends that all run the same
  snapshot task, with a batched compression hot path.
"""

from repro.parallel.comm import Communicator, SerialComm
from repro.parallel.simcomm import ThreadComm
from repro.parallel.executor import run_spmd
from repro.parallel.decomposition import BlockDecomposition, Partition

# Imported last: backends pulls in repro.core feature/optimizer modules,
# which themselves import the siblings above.
from repro.parallel.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SnapshotResult,
    SnapshotTask,
    ThreadBackend,
    get_backend,
    register_backend,
)

__all__ = [
    "Communicator",
    "SerialComm",
    "ThreadComm",
    "run_spmd",
    "BlockDecomposition",
    "Partition",
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SnapshotResult",
    "SnapshotTask",
    "ThreadBackend",
    "get_backend",
    "register_backend",
]
