"""Process-parallel execution of independent coverage work.

See :mod:`repro.parallel.runner` for the determinism contract (ordered
submission/consumption, persistent shard workers, observation merging).
"""

from repro.parallel.runner import (
    ShardWorkerPool,
    chunk_evenly,
    parallel_starmap,
    resolve_workers,
)

__all__ = [
    "ShardWorkerPool",
    "chunk_evenly",
    "parallel_starmap",
    "resolve_workers",
]
