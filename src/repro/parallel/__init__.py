"""Domain decomposition and the rank loop.

Nyx partitions its grid across MPI ranks; the paper's in situ protocol
is "every rank extracts its partition's features, one ``MPI_Allreduce``
shares the global mean, every rank solves for its own bound and
compresses".  This package runs that protocol in one process:

- :mod:`repro.parallel.decomposition` — 3-D block decomposition mapping
  ranks to grid partitions (views, no copies),
- :mod:`repro.parallel.backends` — :func:`run_snapshot`, the rank loop
  with a batched compression hot path.
"""

from repro.parallel.decomposition import BlockDecomposition, Partition

# Imported last: backends pulls in repro.core feature/optimizer modules,
# which themselves import decomposition above.
from repro.parallel.backends import SnapshotResult, SnapshotTask, run_snapshot

__all__ = [
    "BlockDecomposition",
    "Partition",
    "SnapshotResult",
    "SnapshotTask",
    "run_snapshot",
]
