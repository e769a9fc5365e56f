"""Domain decomposition.

Nyx partitions its grid across MPI ranks; the paper's in situ protocol
is "every rank extracts its partition's features, one ``MPI_Allreduce``
shares the global mean, every rank solves for its own bound and
compresses".  The reproduction runs that protocol in one process, in
:meth:`repro.core.pipeline.AdaptiveCompressionPipeline.run` (the rank
loop).  This package maps ranks to grid partitions:
:mod:`repro.parallel.decomposition` is the 3-D block decomposition
(views, no copies).
"""

from repro.parallel.decomposition import BlockDecomposition, Partition

__all__ = ["BlockDecomposition", "Partition"]
