"""Domain decomposition and execution backends.

Nyx partitions its grid across MPI ranks; the paper's in situ protocol
is "every rank extracts its partition's features, one ``MPI_Allreduce``
shares the global mean, every rank solves for its own bound and
compresses".  This package runs that protocol on one node:

- :mod:`repro.parallel.decomposition` — 3-D block decomposition mapping
  ranks to grid partitions (views, no copies),
- :mod:`repro.parallel.backends` — the execution layer: a serial rank
  loop and a process pool that run the same snapshot task to the same
  bytes, with a batched compression hot path.
"""

from repro.parallel.decomposition import BlockDecomposition, Partition

# Imported last: backends pulls in repro.core feature/optimizer modules,
# which themselves import decomposition above.
from repro.parallel.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SnapshotResult,
    SnapshotTask,
    get_backend,
)

__all__ = [
    "BlockDecomposition",
    "Partition",
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SnapshotResult",
    "SnapshotTask",
    "get_backend",
]
