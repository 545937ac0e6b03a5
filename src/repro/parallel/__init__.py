"""Real-parallel execution helpers.

Python's GIL rules out the paper's shared-memory threading, so this
subpackage provides the two standard workarounds the HPC-Python guides
recommend: vectorized whole-array kernels (see :mod:`repro.parallel.primitives`
and :mod:`repro.parallel.chunks`) and a process pool over shared memory
(:mod:`repro.parallel.pool`) for multi-core machines.
"""

from repro.parallel.chunks import chunk_ranges, balanced_chunks
from repro.parallel.primitives import (
    segmented_max_at,
    segmented_min_at,
    prefix_sum,
)
from repro.parallel.pool import (
    ParallelModularityScorer,
    SharedArrayPool,
    SharedOutput,
    parallel_edge_scores,
)
from repro.parallel.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    as_backend,
    backend_names,
    create_backend,
    register_backend,
)

__all__ = [
    "chunk_ranges",
    "balanced_chunks",
    "segmented_max_at",
    "segmented_min_at",
    "prefix_sum",
    "SharedArrayPool",
    "SharedOutput",
    "parallel_edge_scores",
    "ParallelModularityScorer",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "register_backend",
    "backend_names",
    "create_backend",
    "as_backend",
]
