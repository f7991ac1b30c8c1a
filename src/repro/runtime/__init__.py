"""Process-based SPMD runtime: true multi-core execution of the MPI world.

The thread world (:class:`repro.interp.SimulatedMPI`) is concurrency-correct
but serialized by the GIL outside NumPy; this package runs every rank in its
own OS process so the paper's strong-scaling shape (figs. 8 and 11) is
measurable in wall-clock time rather than only modeled:

* :mod:`repro.runtime.mp_world` — shared-memory field buffers, the queue
  mailbox transport, and :class:`ProcessRankCommunicator`, which implements
  the same :class:`~repro.interp.mpi_runtime.CommunicatorBase` interface (and
  therefore the same collective algorithms and tag discipline) as the thread
  world;
* :mod:`repro.runtime.channels` — shared-memory rings and doorbells that
  carry halo strips between the workers of one pool;
* :mod:`repro.runtime.worker_pool` — a persistent worker pool: programs are
  compiled once in the parent, shipped once per worker, and cached worker-side
  so repeated runs amortize all startup;
* :mod:`repro.runtime.stats` — picklable per-rank statistics merged
  deterministically in the parent.

Select it with ``run_distributed(..., runtime="processes")``; results are
bit-identical to ``runtime="threads"`` and the executor falls back to threads
automatically when shared memory is unavailable.
"""

from .mp_world import (
    MPRequest,
    ProcessRankCommunicator,
    SharedField,
    SharedFieldSpec,
    default_context,
    processes_available,
)
from .shared_pool import (
    LeasedField,
    SharedFieldPool,
    shared_field_pool,
)
from .stats import (
    RankStats,
    combine_exec_statistics,
    merge_comm_statistics,
    sort_rank_stats,
)
from .worker_pool import (
    PoolManager,
    WorkerError,
    WorkerFailure,
    WorkerPool,
    default_pool_manager,
    get_worker_pool,
    run_program_processes,
    run_spmd_processes,
    shutdown_worker_pool,
)

__all__ = [
    "ProcessRankCommunicator", "MPRequest",
    "SharedField", "SharedFieldSpec",
    "processes_available", "default_context",
    "WorkerPool", "WorkerError", "WorkerFailure", "PoolManager",
    "get_worker_pool", "shutdown_worker_pool", "default_pool_manager",
    "run_program_processes", "run_spmd_processes",
    "RankStats", "merge_comm_statistics", "combine_exec_statistics",
    "sort_rank_stats",
    "LeasedField", "SharedFieldPool", "shared_field_pool",
]
