"""Explicit execution lifecycle: sessions own runtime resources, plans own
the per-program hot path.

The paper's stack compiles once and runs many times; this module gives that
shape a first-class API:

* :class:`~repro.core.config.ExecutionConfig` — one validated configuration
  object shared by every frontend (see :mod:`repro.core.config`);
* :class:`Session` — a context manager that *owns* the execution resources
  previously hidden behind module globals: the persistent OS-process worker
  pool, the shared-memory field-block pool, the intra-rank thread teams and
  the thread-world rank executor.  ``warmup()`` pre-spawns them, ``close()``
  releases them, and every plan of the session reuses them across runs;
* :class:`Plan` — returned by :meth:`Session.plan`; pre-resolves everything
  per-run work used to recompute: the default-function lookup, the kernel
  selection, the decomposition strategy and halo/margin geometry, the
  scatter/gather slice plans, the shared-memory block leases, and the
  cast/constant lookups of the interpreted time loop
  (:func:`repro.interp.compile_block_plans`).  ``plan.run(fields, scalars)``
  is therefore a thin hot path suitable for serving many requests.

The legacy ``run_local`` / ``run_distributed`` helpers in
:mod:`repro.core.executor` remain as deprecated shims delegating to a
process-wide default session; they produce bit-identical fields and
statistics, just without the amortization.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .. import runtime as _process_runtime
from ..interp import Interpreter, SimulatedMPI, compile_block_plans
from ..interp.codegen import (
    CodegenError,
    CodegenFallback,
    CompiledMegakernel,
    emit_megakernel,
    megakernel_signature,
    trace_program,
)
from ..interp.interpreter import ExecStatistics, wrap_argument
from ..interp.mpi_runtime import CommStatistics, MPIRuntimeError
from ..interp.thread_team import ThreadTeam
from ..interp.vectorize import CompiledKernel
from ..obs import MetricsRegistry, Tracer, TraceTimeline
from ..runtime.stats import merge_comm_statistics, sort_rank_stats
from ..transforms.distribute import GridSlicingStrategy
from .config import (
    ExecutionConfig,
    ExecutionError,
    RuntimeFallbackWarning,
    normalize_margin,
)
from .executor import (
    ExecutionResult,
    _kernel_for_backend,
    local_field_slices,
)
from .pipeline import CompiledProgram


def _default_function(program: CompiledProgram) -> str:
    names = sorted(program.function_names)
    if not names:
        raise ExecutionError("compiled module contains no function definitions")
    if "kernel" in names:
        return "kernel"
    if len(names) == 1:
        return names[0]
    raise ExecutionError(
        "compiled module defines several functions "
        f"({', '.join(repr(n) for n in names)}) and none is named 'kernel'; "
        "pass function=... to select one"
    )


@dataclass
class SessionCounters:
    """Observable lifecycle counters (tests assert reuse across runs)."""

    plans_created: int = 0
    runs_completed: int = 0
    warmups: int = 0
    #: Thread-world rank executors constructed (reuse keeps this at 1).
    rank_executors_created: int = 0
    #: Session-owned intra-rank thread teams constructed.
    thread_teams_created: int = 0


class Session:
    """Owns the execution runtime: worker pool, shared blocks, thread teams.

    ::

        with Session(ExecutionConfig(runtime="processes", ranks=4)) as session:
            plan = session.plan(program)
            for request in requests:
                plan.run([u0, u1], [timesteps])   # thin, amortized hot path

    A session is cheap to construct — resources are spawned on first use, or
    ahead of time by :meth:`warmup` (also triggered by entering a session
    whose config has ``warm_start=True``).  ``close()`` (or leaving the
    ``with`` block) releases everything the session created; a closed session
    rejects further work.  One-shot callers can use :meth:`run`, which builds
    and disposes a plan around a single execution.
    """

    def __init__(self, config: Optional[ExecutionConfig] = None, **overrides):
        self.config = ExecutionConfig.coerce(config, **overrides)
        self.counters = SessionCounters()
        #: Unified counter registry: every run's ExecStatistics/CommStatistics
        #: are ingested here (``exec.*`` / ``comm.*``) alongside session-level
        #: counters such as megakernel cache hits and worker errors.
        self.metrics = MetricsRegistry()
        #: Lifecycle tracer ("session" track) when the session config traces.
        self.tracer: Optional[Tracer] = (
            Tracer(self.config.trace, track="session")
            if self.config.trace != "off" else None
        )
        self._last_trace: Optional[TraceTimeline] = None
        self._closed = False
        self._lock = threading.Lock()
        #: Serializes thread-world runs: interleaving two SPMD worlds on one
        #: bounded executor could starve ranks of a partially-admitted run.
        self._thread_run_lock = threading.Lock()
        self._plans: list[Plan] = []
        self._teams: dict[int, ThreadTeam] = {}
        self._rank_executor: Optional[ThreadPoolExecutor] = None
        self._rank_executor_size = 0
        #: Worker-pool ownership; per-session by default, the process-wide
        #: manager/pool pair for the default (shim-compatibility) session.
        self._pool_manager = _process_runtime.PoolManager()
        self._field_pool = _process_runtime.SharedFieldPool()
        self._owns_runtime = True
        #: Cross-run megakernel cache shared by every plan of this session,
        #: keyed by (program fingerprint, function, rank, size, argument
        #: signature, overlap flag, traced flag); values are CompiledMegakernel
        #: or the CodegenFallback that explains why none could be built.
        self._megakernel_cache: dict[tuple, Any] = {}

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_pools_created(self) -> int:
        """How many OS-process worker pools this session's manager spawned."""
        return self._pool_manager.pools_created

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is closed; create a new Session")

    def __enter__(self) -> "Session":
        self._ensure_open()
        if self.config.warm_start:
            self.warmup()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release every resource this session created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for plan in list(self._plans):
            plan.close()
        with self._lock:
            if self._rank_executor is not None:
                self._rank_executor.shutdown(wait=False)
                self._rank_executor = None
                self._rank_executor_size = 0
            for team in self._teams.values():
                team.shutdown()
            self._teams.clear()
        if self._owns_runtime:
            self._pool_manager.shutdown()
            self._field_pool.clear()

    def warmup(
        self,
        program: Optional[CompiledProgram] = None,
        *,
        ranks: Optional[int] = None,
        threads_per_rank: Optional[int] = None,
        runtime: Optional[str] = None,
    ) -> None:
        """Pre-spawn the runtime so the first ``plan.run()`` pays no latency.

        Spawns the worker processes (``runtime="processes"``) or the rank
        threads (``runtime="threads"``), the intra-rank thread teams on both
        sides, and — when ``program`` is given — ships the pickled program to
        the workers ahead of the first run.  ``ranks`` defaults to the
        program's rank grid, then to ``config.ranks``; ``runtime`` defaults to
        the session config's (``Plan.warmup`` passes the plan's resolved
        runtime, which may override the session's).
        """
        self._ensure_open()
        config = self.config
        span = self.tracer.begin("session.warmup") if self.tracer is not None else 0.0
        if ranks is None:
            if program is not None and program.target.rank_grid is not None:
                ranks = GridSlicingStrategy(program.target.rank_grid).rank_count
            else:
                ranks = config.ranks
        threads = threads_per_rank if threads_per_rank is not None \
            else config.threads_per_rank
        runtime = runtime if runtime is not None else config.runtime
        if ranks is not None and ranks >= 1:
            if runtime == "processes" and \
                    _process_runtime.processes_available():
                self._pool_manager.warmup(ranks, threads, timeout=config.timeout)
                if program is not None:
                    pool = self._pool_manager.acquire(ranks)
                    pool.ship_program(program, ranks)
            else:
                self._prespawn_rank_threads(ranks)
                if threads > 1:
                    self._team(threads)
        elif threads > 1:
            self._team(threads)
        if self.tracer is not None:
            self.tracer.end("session.warmup", span)
        self.counters.warmups += 1

    def dump_trace(self, path: str) -> str:
        """Write the most recent traced run's timeline as Chrome trace JSON.

        The file loads directly in Perfetto (ui.perfetto.dev) or
        ``chrome://tracing``: one track per rank plus the compile, session and
        plan tracks.  Requires a prior run with ``trace="timeline"`` or
        ``trace="summary"`` on this session.
        """
        if self._last_trace is None:
            raise ExecutionError(
                "no traced run to dump; run a plan with "
                "ExecutionConfig(trace='timeline') (or REPRO_TRACE=timeline) "
                "first"
            )
        self._last_trace.dump(path)
        return path

    # -- planning and running -------------------------------------------------
    def plan(
        self,
        program: CompiledProgram,
        function: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> "Plan":
        """Pre-resolve one program/function pair for repeated execution.

        ``config`` (default: the session's) with ``overrides`` applied
        configures the plan; the plan is tracked by the session and released
        with it (or earlier via ``plan.close()``).
        """
        self._ensure_open()
        resolved = ExecutionConfig.coerce(config or self.config, **overrides)
        plan = Plan(self, program, function, resolved)
        self._plans.append(plan)
        self.counters.plans_created += 1
        return plan

    def run(
        self,
        program: CompiledProgram,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any] = (),
        *,
        function: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> ExecutionResult:
        """One-shot convenience: plan, run once, dispose the plan.

        One-shot runs keep the legacy execution discipline — fresh daemon
        rank threads per run, no shared gang — so the deprecated shims built
        on this method behave (and scale under caller concurrency) exactly
        like the pre-session helpers.  Hold a :meth:`plan` to amortize.
        """
        self._ensure_open()
        resolved = ExecutionConfig.coerce(config or self.config, **overrides)
        plan = Plan(self, program, function, resolved, one_shot=True)
        self._plans.append(plan)
        self.counters.plans_created += 1
        try:
            return plan.run(fields, scalars)
        finally:
            plan.close()

    # -- session-owned resources ----------------------------------------------
    def _team(self, size: int) -> Optional[ThreadTeam]:
        """The session-owned intra-rank thread team of ``size`` threads."""
        if size <= 1:
            return None
        with self._lock:
            team = self._teams.get(size)
            if team is None:
                team = ThreadTeam(size)
                self._teams[size] = team
                self.counters.thread_teams_created += 1
            return team

    def _acquire_rank_executor(self, size: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._rank_executor is None or self._rank_executor_size < size:
                if self._rank_executor is not None:
                    self._rank_executor.shutdown(wait=False)
                self._rank_executor = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-session-rank"
                )
                self._rank_executor_size = size
                self.counters.rank_executors_created += 1
            return self._rank_executor

    def _discard_rank_executor(self) -> None:
        """Drop a poisoned executor (stale blocked rank threads occupy it)."""
        with self._lock:
            if self._rank_executor is not None:
                self._rank_executor.shutdown(wait=False)
                self._rank_executor = None
                self._rank_executor_size = 0

    def _prespawn_rank_threads(self, size: int) -> None:
        """Force the rank executor to actually start ``size`` worker threads."""
        executor = self._acquire_rank_executor(size)
        barrier = threading.Barrier(size)
        futures = [executor.submit(barrier.wait, 30.0) for _ in range(size)]
        done, pending = futures_wait(futures, timeout=60.0)
        if pending or any(f.exception() is not None for f in done):
            self._discard_rank_executor()
            raise ExecutionError("session warm-up failed to start rank threads")

    def _run_threads_world(self, size: int, body, timeout: float) -> SimulatedMPI:
        """Run ``body(comm)`` per rank on the persistent rank executor.

        Same semantics as ``SimulatedMPI.run_spmd`` — shared join deadline,
        fail-fast on the first rank error — but without spawning ``size``
        fresh OS threads per run.  A failed or timed-out run discards the
        executor (its blocked rank threads die on their own communication
        timeouts); the next run starts a fresh one.
        """
        with self._thread_run_lock:
            world = SimulatedMPI(size, timeout=timeout)
            executor = self._acquire_rank_executor(size)
            futures = [
                executor.submit(body, world.communicator(rank))
                for rank in range(size)
            ]
            done, pending = futures_wait(
                futures, timeout=timeout, return_when=FIRST_EXCEPTION
            )
            for future in done:
                error = future.exception()
                if error is not None:
                    self._discard_rank_executor()
                    raise error
            if pending:
                self._discard_rank_executor()
                raise MPIRuntimeError(
                    f"{len(pending)} rank(s) did not finish within {timeout}s "
                    "(deadlock?)"
                )
            return world

    def execute_batch(
        self,
        prepared: Sequence["PreparedRun"],
        timeout: Optional[float] = None,
    ) -> None:
        """Run many independent prepared runs in ONE rank-executor round.

        The batched-dispatch primitive of the serving layer
        (:mod:`repro.serve`): the persistent rank executor is partitioned
        across jobs — each distributed thread-world job gets a private
        :class:`SimulatedMPI` world of its own size, each local job one
        executor slot — and a single ``futures_wait`` covers the whole round,
        so N small jobs pay the dispatch latency (lock handoff, executor
        round trip, join) once instead of N times.

        Error isolation is per job: a failing rank records its exception on
        *its* :class:`PreparedRun` (``finish()`` re-raises it) and never
        touches sibling jobs; its own peer ranks terminate on their
        communication deadlines.  Only rank threads that are still stuck
        after the round deadline poison the executor, which is then discarded
        exactly as a failed standalone run would.

        Process-world jobs are not handled here — the serving layer routes
        them through ``PoolManager.run_program_batch``, which partitions the
        worker pool the same way.
        """
        self._ensure_open()
        jobs = [job for job in prepared if job.runtime != "processes"]
        if not jobs:
            return
        if timeout is None:
            timeout = max(job.plan.config.timeout for job in jobs)
        with self._thread_run_lock:
            total = sum(job.size for job in jobs)
            executor = self._acquire_rank_executor(total)
            groups: list[list] = []
            for job in jobs:
                if job.distributed:
                    world = SimulatedMPI(job.size, timeout=timeout)
                    job.world = world
                    futures = [
                        executor.submit(job.body, world.communicator(rank))
                        for rank in range(job.size)
                    ]
                else:
                    futures = [executor.submit(job.body, None)]
                groups.append(futures)
            pending = futures_wait(
                [future for futures in groups for future in futures],
                timeout=timeout + 10.0,
            )[1]
            if pending:
                # Stuck rank threads occupy the executor past the round:
                # discard it (they die on their own communication timeouts)
                # exactly as a failed standalone threads run would.
                self._discard_rank_executor()
            for job, futures in zip(jobs, groups):
                for future in futures:
                    if future in pending:
                        if job.error is None:
                            job.error = MPIRuntimeError(
                                f"job rank(s) did not finish within {timeout}s "
                                "(deadlock?)"
                            )
                        continue
                    error = future.exception()
                    if error is not None and job.error is None:
                        job.error = error


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _field_signature(fields: Sequence[np.ndarray]) -> tuple:
    """The layout key of a field list: per-array (shape, dtype)."""
    return tuple((array.shape, array.dtype.str) for array in fields)


class _RunBuffers:
    """Per-field-signature state a plan reuses across runs.

    Holds the pre-computed scatter/gather slice tuples for every
    (rank, field) pair plus the per-rank local buffers: preallocated NumPy
    arrays for the thread world, leased shared-memory blocks (kept across
    runs) for the process world.
    """

    __slots__ = ("signature", "scatter_slices", "gather_slices", "locals",
                 "wrapped", "leases", "specs", "pool_generation",
                 "fresh_reused", "runs")

    def __init__(self):
        self.signature = None
        self.scatter_slices: list[list[tuple]] = []
        self.gather_slices: list[list[tuple[tuple, tuple]]] = []
        self.locals: list[list[np.ndarray]] = []
        self.wrapped: list[list] = []
        self.leases: list[list] = []
        self.specs: list[list] = []
        self.pool_generation = -1
        self.fresh_reused = 0
        self.runs = 0


class Plan:
    """A pre-resolved execution of one function of one compiled program.

    Construction performs every piece of work the legacy helpers repeated on
    each call — function lookup, kernel compilation/selection, decomposition
    geometry, interpreter block plans, runtime fallback resolution — and the
    first :meth:`run` additionally fixes the scatter/gather slice plans and
    buffers for the observed field shapes.  Subsequent runs only scatter,
    execute and gather.
    """

    def __init__(
        self,
        session: Session,
        program: CompiledProgram,
        function: Optional[str],
        config: ExecutionConfig,
        one_shot: bool = False,
    ):
        self.session = session
        self.program = program
        self.config = config
        #: Lifecycle tracer ("plan" track): plan.build, run.scatter/run.gather
        #: spans land here when the plan's config traces.
        self.tracer: Optional[Tracer] = (
            Tracer(config.trace, track="plan") if config.trace != "off" else None
        )
        build_span = self.tracer.begin("plan.build") if self.tracer is not None else 0.0
        #: One-shot plans (built by :meth:`Session.run` and the deprecated
        #: shims) keep the legacy thread-per-run discipline instead of the
        #: session's persistent rank gang.
        self.one_shot = one_shot
        self.function = function or _default_function(program)
        self.distributed = (
            program.distribution is not None and program.target.rank_grid is not None
        )
        self.runs_completed = 0
        self._closed = False
        self._buffers: Optional[_RunBuffers] = None
        #: Serializes the scatter-execute-gather span: the plan's local
        #: buffers are shared state, so two threads racing the same plan
        #: would overwrite each other's inputs mid-run.
        self._run_lock = threading.Lock()

        if self.distributed:
            self.runtime_requested = config.runtime
            runtime = config.runtime
            if runtime == "processes" and not _process_runtime.processes_available():
                runtime = "threads"
                warnings.warn(
                    "runtime='processes' was requested but the process runtime "
                    "is unavailable on this platform; falling back to "
                    "runtime='threads' (bit-identical results, no multi-core "
                    "scaling). Compare ExecutionResult.runtime_requested with "
                    ".runtime to detect degraded runs.",
                    RuntimeFallbackWarning,
                    stacklevel=3,
                )
            self.runtime = runtime
        else:
            self.runtime = self.runtime_requested = "local"

        # Kernel selection: the thread world and local runs share one
        # parent-compiled kernel; process workers rebuild their own, so the
        # parent only compiles when the kernel is used here — or when the
        # backend="vectorized" nest-count validation requires it.
        self.kernel: Optional[CompiledKernel] = None
        if self.runtime in ("local", "threads") or config.backend == "vectorized":
            self.kernel = _kernel_for_backend(program, self.function, config.backend)
        self.overlap = config.resolved_overlap()

        # Interpreter pre-resolution: the function table (built once instead
        # of once per rank per run) and the pre-resolved block plans of the
        # time loop (constants materialized, casts and handlers pre-bound).
        self._functions = {}
        from ..dialects import func as _func

        for op in program.module.walk():
            if isinstance(op, _func.FuncOp):
                self._functions[op.sym_name] = op
        self._func_op = self._functions[self.function]
        self._block_plans = compile_block_plans(self._func_op)

        # Megakernel codegen: trace the time loop once at plan construction.
        # "auto" engages for held plans on the flat (threads_per_rank == 1)
        # compiled backends — the dispatch-bound regime the megakernel is
        # for — and records its fallback reason otherwise; "megakernel"
        # forces the path and raises when it cannot be built.  Process-world
        # plans skip the parent-side trace: workers build (and cache) their
        # own megakernels from the shipped program.
        self.codegen_fallback: Optional[CodegenFallback] = None
        self._trace = None
        self._codegen_active = False
        if config.codegen == "megakernel":
            wanted = config.backend != "interpreter"
        else:
            wanted = (
                config.codegen == "auto"
                and not one_shot
                and config.threads_per_rank == 1
                and config.backend != "interpreter"
            )
        if wanted and self.runtime == "processes":
            self._codegen_active = True  # resolved worker-side
        elif wanted:
            self.compile()

        if self.distributed:
            self.strategy = GridSlicingStrategy(program.target.rank_grid)
            if config.ranks is not None and config.ranks != self.strategy.rank_count:
                raise ExecutionError(
                    f"config.ranks={config.ranks} conflicts with the program's "
                    f"rank grid {program.target.rank_grid} "
                    f"({self.strategy.rank_count} ranks)"
                )
            domain = program.distribution.local_domain
            self.halo_lower = domain.halo_lower
            self.halo_upper = domain.halo_upper
            self.margin = normalize_margin(config.margin, self.halo_lower)
        if self.tracer is not None:
            self.tracer.end("plan.build", build_span)

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the plan's buffers (leased shared blocks return to the pool)."""
        if self._closed:
            return
        self._closed = True
        self._release_buffers()
        try:
            self.session._plans.remove(self)
        except ValueError:
            pass

    def _release_buffers(self) -> None:
        buffers = self._buffers
        self._buffers = None
        if buffers is not None:
            _release_run_buffers(buffers)

    def warmup(self) -> None:
        """Pre-spawn this plan's runtime (workers, teams) and ship the program."""
        ranks = self.strategy.rank_count if self.distributed else None
        self.session.warmup(
            self.program if self.runtime == "processes" else None,
            ranks=ranks,
            threads_per_rank=self.config.threads_per_rank,
            # The plan's *resolved* runtime: it may override the session's,
            # and a processes->threads fallback must warm threads instead.
            runtime=self.runtime if self.distributed else "threads",
        )

    # -- megakernel codegen ---------------------------------------------------
    def compile(self):
        """Trace the plan's time loop for megakernel execution.

        Called automatically at construction whenever the configuration
        engages codegen; callable explicitly to force (re-)tracing.  Returns
        the trace, or None with the reason recorded on
        :attr:`codegen_fallback` — unless ``codegen="megakernel"`` is forced,
        in which case failure raises :class:`ExecutionError`.  The generated
        function itself is emitted (and cached on the session, keyed by
        program fingerprint) on first run, when the concrete buffer layout
        is known.
        """
        if self._trace is not None:
            return self._trace
        try:
            if self.kernel is None:
                raise CodegenError(
                    "no compiled vectorized kernel to trace against"
                )
            self._trace = trace_program(
                self._func_op, self.kernel, overlap=self.overlap
            )
            self._codegen_active = True
            return self._trace
        except CodegenError as err:
            self._codegen_active = False
            self.codegen_fallback = CodegenFallback(self.function, str(err))
            if self.config.codegen == "megakernel":
                raise ExecutionError(
                    f"codegen='megakernel' was forced but {self.function!r} "
                    f"cannot be megakernel-compiled: {err}"
                ) from err
            return None

    def _megakernel_for(
        self, args: Sequence[Any], rank: int, size: int
    ) -> Optional[CompiledMegakernel]:
        """The cached megakernel for one rank's concrete argument layout.

        Emission failures are cached too (as CodegenFallback) so a layout
        that cannot be emitted is not re-attempted every run; in auto mode
        they deactivate codegen for this plan, in forced mode they raise.
        """
        traced = self.config.trace != "off"
        key = (
            self.program.fingerprint, self.function, rank, size,
            megakernel_signature(args), self.overlap, traced,
        )
        cache = self.session._megakernel_cache
        cached = cache.get(key)
        if cached is None:
            self.session.metrics.inc("megakernel.cache_miss")
            try:
                cached = emit_megakernel(
                    self._trace, args, rank=rank, size=size, traced=traced
                )
            except CodegenError as err:
                cached = CodegenFallback(self.function, str(err))
            cache[key] = cached
        else:
            self.session.metrics.inc("megakernel.cache_hit")
        if isinstance(cached, CodegenFallback):
            if self.config.codegen == "megakernel":
                raise ExecutionError(
                    f"codegen='megakernel' was forced but {self.function!r} "
                    f"cannot be emitted for rank {rank}/{size}: "
                    f"{cached.reason}"
                )
            self.codegen_fallback = cached
            self._codegen_active = False
            return None
        return cached

    # -- batched dispatch (the repro.serve substrate) -------------------------
    def prepare(
        self,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any] = (),
        buffers: Optional[_RunBuffers] = None,
    ) -> "PreparedRun":
        """Stage one run for a shared batched round (see :mod:`repro.serve`).

        Unlike :meth:`run`, the returned :class:`PreparedRun` owns *its own*
        buffer set, so many jobs of the same plan can be in flight inside one
        :meth:`Session.execute_batch` round.  ``buffers`` recycles a previous
        job's set when its signature still matches (the serving layer keeps a
        small free list per plan).
        """
        if self._closed:
            raise ExecutionError("plan is closed; create a new plan")
        self.session._ensure_open()
        return PreparedRun(self, fields, scalars, buffers)

    # -- the hot path ---------------------------------------------------------
    def run(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any] = ()
    ) -> ExecutionResult:
        """Execute once: scatter, run every rank, gather.  Repeatable."""
        if self._closed:
            raise ExecutionError("plan is closed; create a new plan")
        self.session._ensure_open()
        if not self.distributed:
            result = self._run_local(fields, scalars)
        else:
            for index, array in enumerate(fields):
                if not isinstance(array, np.ndarray):
                    raise ExecutionError(
                        f"distributed field {index} is {type(array).__name__}, "
                        "not a numpy array; pass scalar arguments (e.g. the "
                        "timestep count) via the scalars sequence"
                    )
            # The plan's buffers are shared state: serialize the whole
            # scatter-execute-gather span against concurrent callers.
            with self._run_lock:
                if self.runtime == "processes":
                    result = self._run_processes(fields, scalars)
                else:
                    result = self._run_threads(fields, scalars)
        self._finish_run(result)
        return result

    def _finish_run(self, result: ExecutionResult) -> None:
        """Post-run bookkeeping shared by :meth:`run` and batched dispatch."""
        self.runs_completed += 1
        self.session.counters.runs_completed += 1
        metrics = self.session.metrics
        metrics.inc("runs")
        metrics.ingest_all(result.statistics, "exec.")
        if result.comm_statistics is not None:
            metrics.ingest(result.comm_statistics, "comm.")

    def _run_local(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ) -> ExecutionResult:
        config = self.config
        tracer = (
            Tracer(config.trace, track="rank 0")
            if config.trace != "off" else None
        )
        stats = self._execute_local(fields, scalars, tracer)
        return self._attach_trace(
            ExecutionResult(
                statistics=[stats],
                runtime="local",
                runtime_requested="local",
                threads_per_rank=config.threads_per_rank,
            ),
            [tracer],
        )

    def _execute_local(
        self, fields: Sequence[Any], scalars: Sequence[Any],
        tracer: Optional[Tracer],
    ) -> ExecStatistics:
        """Execute one non-distributed run in the calling thread.

        The megakernel fast path (when codegen engaged) with the planned
        interpreter fallback; shared verbatim by :meth:`_run_local` and the
        serving layer's batched dispatch so both produce identical statistics
        and metrics.
        """
        config = self.config
        if self._codegen_active and self._trace is not None:
            args = [*fields, *scalars]
            megakernel = self._megakernel_for(args, rank=0, size=1)
            if megakernel is not None and megakernel.matches(args):
                stats = ExecStatistics()
                if megakernel.run(args, stats, None, tracer):
                    self.session.metrics.inc("megakernel.engaged")
                    return stats
                # Aliased buffers this run: bounce to the planned path.
            self.session.metrics.inc("megakernel.fallback")
        interpreter = Interpreter(
            self.program.module,
            kernel=self.kernel,
            threads=config.threads_per_rank,
            overlap_halos=self.overlap,
            functions=self._functions,
            block_plans=self._block_plans,
            team=self.session._team(config.threads_per_rank),
            tracer=tracer,
        )
        interpreter.call(self.function, *fields, *scalars)
        return interpreter.stats

    def _buffers_for(self, fields: Sequence[np.ndarray]) -> _RunBuffers:
        """The cached slice plans and local buffers for these field shapes."""
        buffers = self._buffers
        if self._buffers_valid(buffers, fields):
            return buffers
        self._release_buffers()
        buffers = self._build_buffers(fields)
        self._buffers = buffers
        return buffers

    def _buffers_valid(
        self, buffers: Optional[_RunBuffers], fields: Sequence[np.ndarray]
    ) -> bool:
        """Whether a buffer set still matches these fields (and the pool)."""
        if buffers is None or buffers.signature != _field_signature(fields):
            return False
        return self.runtime != "processes" or \
            buffers.pool_generation == self.session._field_pool.generation

    def _build_buffers(self, fields: Sequence[np.ndarray]) -> _RunBuffers:
        """Fresh slice plans and local buffers for these field shapes.

        Uncached — the serving layer builds one set per in-flight job so a
        batch can run several jobs of the *same* plan concurrently; the plan's
        own :meth:`_buffers_for` wraps this with its per-signature cache.
        """
        buffers = _RunBuffers()
        buffers.signature = _field_signature(fields)
        strategy, margin = self.strategy, self.margin
        halo_lower, halo_upper = self.halo_lower, self.halo_upper
        leased = self.runtime == "processes"
        if leased:
            pool = self.session._field_pool
            buffers.pool_generation = pool.generation
        for rank in range(strategy.rank_count):
            scatter_row, gather_row, local_row = [], [], []
            lease_row, spec_row = [], []
            for array in fields:
                slices = local_field_slices(
                    array, strategy, rank, halo_lower, halo_upper, margin
                )
                scatter_row.append(slices)
                shape = tuple(s.stop - s.start for s in slices)
                core_shape = tuple(
                    int(extent) - 2 * int(m)
                    for extent, m in zip(array.shape, margin)
                )
                start, end = strategy.global_slab(core_shape, rank)
                gather_row.append((
                    tuple(
                        slice(start[d] + margin[d], end[d] + margin[d])
                        for d in range(array.ndim)
                    ),
                    tuple(
                        slice(halo_lower[d], halo_lower[d] + (end[d] - start[d]))
                        for d in range(array.ndim)
                    ),
                ))
                if leased:
                    lease = pool.lease(shape, array.dtype)
                    lease_row.append(lease)
                    spec_row.append(lease.spec)
                    local_row.append(lease.array)
                    if lease.reused:
                        buffers.fresh_reused += 1
                else:
                    local_row.append(np.empty(shape, dtype=array.dtype))
            buffers.scatter_slices.append(scatter_row)
            buffers.gather_slices.append(gather_row)
            buffers.locals.append(local_row)
            # Pre-wrap the stable local buffers into interpreter values once;
            # every later run replays them through call_prepared.
            buffers.wrapped.append([
                wrap_argument(local, block_arg.type)
                for local, block_arg in zip(
                    local_row, self._func_op.body.block.args
                )
            ])
            if leased:
                buffers.leases.append(lease_row)
                buffers.specs.append(spec_row)
        return buffers

    def _scatter(self, buffers: _RunBuffers, fields: Sequence[np.ndarray]) -> None:
        for rank in range(self.strategy.rank_count):
            slices_row = buffers.scatter_slices[rank]
            local_row = buffers.locals[rank]
            for index, array in enumerate(fields):
                local_row[index][...] = array[slices_row[index]]

    def _gather(self, buffers: _RunBuffers, fields: Sequence[np.ndarray]) -> None:
        for rank in range(self.strategy.rank_count):
            gather_row = buffers.gather_slices[rank]
            local_row = buffers.locals[rank]
            for index, array in enumerate(fields):
                global_slices, local_slices = gather_row[index]
                array[global_slices] = local_row[index][local_slices]

    def _run_threads(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ) -> ExecutionResult:
        config = self.config
        buffers = self._buffers_for(fields)
        expected = len(self._func_op.body.block.args)
        provided = len(fields) + len(scalars)
        if provided != expected:
            raise ExecutionError(
                f"{self.function} expects {expected} arguments, got {provided}"
            )
        self._traced_move("run.scatter", self._scatter, buffers, fields)
        size = self.strategy.rank_count
        statistics: list = [None] * size
        scalars = list(scalars)
        tracers = self._rank_tracers(size)
        engaged = [False] * size
        megakernels = self._rank_megakernels(buffers, scalars, size)
        body = self._rank_body(
            buffers, scalars, statistics, engaged, tracers, megakernels
        )

        if self.one_shot:
            # Legacy discipline: fresh daemon rank threads, one shared join
            # deadline, fail-fast on the first rank error.
            world = SimulatedMPI(size, timeout=config.timeout)
            world.run_spmd(body, timeout=config.timeout)
        else:
            world = self.session._run_threads_world(size, body, config.timeout)
        missing = [rank for rank, stats in enumerate(statistics) if stats is None]
        if missing:
            raise ExecutionError(
                f"ranks {missing} finished without reporting statistics; "
                "the SPMD execution did not complete"
            )
        self._ingest_engagement(engaged)
        self._traced_move("run.gather", self._gather, buffers, fields)
        return self._attach_trace(
            self._result(list(statistics), world.statistics), tracers
        )

    def _rank_tracers(self, size: int) -> Optional[list[Tracer]]:
        if self.config.trace == "off":
            return None
        return [
            Tracer(self.config.trace, track=f"rank {rank}")
            for rank in range(size)
        ]

    def _rank_megakernels(
        self, buffers: _RunBuffers, scalars: Sequence[Any], size: int
    ) -> Optional[list[CompiledMegakernel]]:
        """Per-rank megakernels against these buffers, or None for all-planned.

        Megakernels are emitted per rank (each rank's halo plan differs)
        against the run's local buffers, before the world launches; if any
        rank cannot be emitted, every rank keeps the planned path so the SPMD
        communication pattern stays uniform.
        """
        if not (self._codegen_active and self._trace is not None):
            return None
        candidates: Optional[list[CompiledMegakernel]] = []
        for rank in range(size):
            args = [*buffers.locals[rank], *scalars]
            megakernel = self._megakernel_for(args, rank, size)
            if megakernel is None or not megakernel.matches(args):
                candidates = None
                break
            candidates.append(megakernel)
        return candidates

    def _rank_body(
        self,
        buffers: _RunBuffers,
        scalars: Sequence[Any],
        statistics: list,
        engaged: list,
        tracers: Optional[list[Tracer]],
        megakernels: Optional[list[CompiledMegakernel]],
    ):
        """One rank's SPMD body over these buffers (thread world).

        Shared verbatim by :meth:`_run_threads` and the serving layer's
        batched dispatch, so a batched job is bit-identical — fields,
        statistics, megakernel engagement — to a standalone run.
        """
        config = self.config
        team = self.session._team(config.threads_per_rank)

        def body(comm) -> None:
            tracer = tracers[comm.rank] if tracers is not None else None
            if megakernels is not None:
                args = [*buffers.locals[comm.rank], *scalars]
                stats = ExecStatistics()
                if megakernels[comm.rank].run(args, stats, comm, tracer):
                    statistics[comm.rank] = stats
                    engaged[comm.rank] = True
                    return
            interpreter = Interpreter(
                self.program.module,
                comm=comm,
                kernel=self.kernel,
                threads=config.threads_per_rank,
                overlap_halos=self.overlap,
                functions=self._functions,
                block_plans=self._block_plans,
                team=team,
                tracer=tracer,
            )
            interpreter.call_prepared(
                self._func_op, [*buffers.wrapped[comm.rank], *scalars]
            )
            statistics[comm.rank] = interpreter.stats

        return body

    def _ingest_engagement(self, engaged: Sequence[bool]) -> None:
        metrics = self.session.metrics
        metrics.inc("megakernel.engaged", sum(engaged))
        if self._codegen_active and not all(engaged):
            metrics.inc("megakernel.fallback", len(engaged) - sum(engaged))

    def _run_processes(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ) -> ExecutionResult:
        config = self.config
        buffers = self._buffers_for(fields)
        self._traced_move("run.scatter", self._scatter, buffers, fields)
        try:
            reports = self.session._pool_manager.run_program_specs(
                self.program, self.function, config.backend, buffers.specs,
                list(scalars), config.timeout, config.threads_per_rank,
                config.codegen if self._codegen_active else "planned",
                trace=config.trace, overlap=self.overlap,
            )
        except _process_runtime.WorkerError:
            self.session.metrics.inc("worker.errors")
            if self.tracer is not None:
                self.tracer.instant("worker.error")
            raise
        statistics, comm, rank_traces = self._process_result(buffers, reports)
        self._traced_move("run.gather", self._gather, buffers, fields)
        return self._attach_trace(self._result(statistics, comm), rank_traces)

    def _process_result(
        self, buffers: _RunBuffers, reports: Sequence[Any]
    ) -> tuple[list, CommStatistics, list]:
        """Rank statistics + merged comm (with elision accounting) from reports.

        Shared by :meth:`_run_processes` and the serving layer's process-world
        batched dispatch so both account identically — megakernel engagement
        included, counted from the workers' reports as the thread world
        counts it from its rank bodies.
        """
        ordered = sort_rank_stats(reports)
        self._ingest_engagement([report.engaged for report in ordered])
        statistics = [report.exec_stats for report in ordered]
        comm = merge_comm_statistics([report.comm_stats for report in ordered])
        # Copy-elision accounting: scatter wrote straight into (and gather
        # reads straight out of) the leased blocks — two memcpys per field
        # per rank elided.  On the first run of a buffer set the reuse count
        # reflects the pool's free list; afterwards every held lease is by
        # definition recycled across runs.
        comm.bytes_elided = sum(
            2 * local.nbytes for row in buffers.locals for local in row
        )
        if buffers.runs > 0:
            comm.shared_blocks_reused = self._lease_count(buffers)
        else:
            comm.shared_blocks_reused = buffers.fresh_reused
        buffers.runs += 1
        return statistics, comm, [report.trace for report in ordered]

    @staticmethod
    def _lease_count(buffers: _RunBuffers) -> int:
        return sum(len(row) for row in buffers.leases)

    def _traced_move(self, name: str, move, buffers: _RunBuffers, fields) -> None:
        """Run a scatter/gather helper under a plan-track span when tracing."""
        if self.tracer is None:
            move(buffers, fields)
            return
        span = self.tracer.begin(name)
        try:
            move(buffers, fields)
        finally:
            self.tracer.end(name, span)

    def _attach_trace(
        self, result: ExecutionResult, rank_traces: Optional[Sequence[Any]]
    ) -> ExecutionResult:
        """Merge the run's records into one timeline on ``result.trace``.

        Tracks, in order: the compile pipeline's record (captured at
        ``compile_stencil_program`` time and carried on the program), the
        session and plan lifecycle tracers, then one track per rank.  Rank
        entries may be live :class:`Tracer` instances (local/thread worlds)
        or picklable :class:`TraceRecord` payloads shipped back by process
        workers; either way their monotonic clocks are re-aligned against
        wall time by the timeline merge.
        """
        if self.config.trace == "off":
            return result
        timeline = TraceTimeline()
        timeline.add(getattr(self.program, "compile_record", None))
        session_tracer = self.session.tracer
        if session_tracer is not None:
            timeline.add(session_tracer.record())
        if self.tracer is not None:
            timeline.add(self.tracer.record())
        for entry in rank_traces or ():
            if isinstance(entry, Tracer):
                entry = entry.record()
            timeline.add(entry)
        result.trace = timeline
        self.session._last_trace = timeline
        return result

    def _result(
        self, statistics: list, comm: CommStatistics
    ) -> ExecutionResult:
        return ExecutionResult(
            statistics=statistics,
            messages_sent=comm.messages_sent,
            bytes_sent=comm.bytes_sent,
            comm_statistics=comm,
            runtime=self.runtime,
            threads_per_rank=self.config.threads_per_rank,
            runtime_requested=self.runtime_requested,
        )


class PreparedRun:
    """One job of a batched dispatch round, staged and self-contained.

    Built by :meth:`Plan.prepare`.  Construction performs the per-job front
    half of :meth:`Plan.run` — argument validation, buffer building (fresh or
    recycled, *never* the plan's shared cache), scatter, per-rank megakernel
    lookup and body construction — so a batch round only has to launch
    bodies.  After the round, :meth:`finish` replays the back half: missing-
    statistics checks, megakernel-engagement accounting, gather, trace
    attachment and the session metric ingest.  Every step calls the same
    ``Plan`` helpers the standalone path uses, so a batched job is
    bit-identical — fields, ``ExecStatistics``, ``CommStatistics`` — to the
    same job on a standalone plan.

    Thread-world (and local) jobs carry per-rank ``body(comm)`` callables for
    :meth:`Session.execute_batch`; process-world jobs carry the leased
    shared-memory ``specs`` for ``PoolManager.run_program_batch``, with the
    worker reports assigned to :attr:`reports` before ``finish()``.
    """

    def __init__(
        self,
        plan: Plan,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any],
        buffers: Optional[_RunBuffers] = None,
    ):
        self.plan = plan
        self.fields = list(fields)
        self.scalars = list(scalars)
        self.distributed = plan.distributed
        self.runtime = plan.runtime
        self.size = plan.strategy.rank_count if plan.distributed else 1
        #: The job's SimulatedMPI world (thread-world jobs; set at dispatch).
        self.world: Optional[SimulatedMPI] = None
        #: Worker reports (process-world jobs; set by the batch runner).
        self.reports: Optional[list] = None
        #: The first error of any rank of this job (leaves siblings alone).
        self.error: Optional[BaseException] = None
        self.buffers: Optional[_RunBuffers] = None

        expected = len(plan._func_op.body.block.args)
        provided = len(self.fields) + len(self.scalars)
        if provided != expected:
            raise ExecutionError(
                f"{plan.function} expects {expected} arguments, got {provided}"
            )
        self.statistics: list = [None] * self.size
        self.engaged = [False] * self.size
        self.tracers = plan._rank_tracers(self.size)

        if not self.distributed:
            tracer = self.tracers[0] if self.tracers is not None else None

            def local_body(comm=None) -> None:
                self.statistics[0] = plan._execute_local(
                    self.fields, self.scalars, tracer
                )

            self.body = local_body
            return

        for index, array in enumerate(self.fields):
            if not isinstance(array, np.ndarray):
                raise ExecutionError(
                    f"distributed field {index} is {type(array).__name__}, "
                    "not a numpy array; pass scalar arguments (e.g. the "
                    "timestep count) via the scalars sequence"
                )
        if buffers is not None and plan._buffers_valid(buffers, self.fields):
            self.buffers = buffers
        else:
            if buffers is not None:
                _release_run_buffers(buffers)
            self.buffers = plan._build_buffers(self.fields)
        plan._scatter(self.buffers, self.fields)
        if self.runtime == "processes":
            self.body = None
        else:
            megakernels = plan._rank_megakernels(
                self.buffers, self.scalars, self.size
            )
            self.body = plan._rank_body(
                self.buffers, self.scalars, self.statistics, self.engaged,
                self.tracers, megakernels,
            )

    def finish(self) -> ExecutionResult:
        """Gather and assemble the result; raises the job's recorded error."""
        if self.error is not None:
            raise self.error
        plan = self.plan
        if not self.distributed:
            stats = self.statistics[0]
            if stats is None:
                raise ExecutionError(
                    "the job finished without reporting statistics; "
                    "the batched execution did not complete"
                )
            result = plan._attach_trace(
                ExecutionResult(
                    statistics=[stats],
                    runtime="local",
                    runtime_requested="local",
                    threads_per_rank=plan.config.threads_per_rank,
                ),
                self.tracers,
            )
        elif self.runtime == "processes":
            if self.reports is None:
                raise ExecutionError(
                    "the job finished without worker reports; "
                    "the batched execution did not complete"
                )
            statistics, comm, rank_traces = plan._process_result(
                self.buffers, self.reports
            )
            plan._traced_move("run.gather", plan._gather, self.buffers, self.fields)
            result = plan._attach_trace(plan._result(statistics, comm), rank_traces)
        else:
            missing = [
                rank for rank, stats in enumerate(self.statistics)
                if stats is None
            ]
            if missing:
                raise ExecutionError(
                    f"ranks {missing} finished without reporting statistics; "
                    "the SPMD execution did not complete"
                )
            plan._ingest_engagement(self.engaged)
            plan._traced_move("run.gather", plan._gather, self.buffers, self.fields)
            result = plan._attach_trace(
                plan._result(list(self.statistics), self.world.statistics),
                self.tracers,
            )
        plan._finish_run(result)
        return result

    def release(self) -> None:
        """Release leased shared blocks (no-op for thread-world buffers)."""
        buffers = self.buffers
        self.buffers = None
        if buffers is not None:
            _release_run_buffers(buffers)


def _release_run_buffers(buffers: _RunBuffers) -> None:
    for rank_leases in buffers.leases:
        for lease in rank_leases:
            lease.release()


# ---------------------------------------------------------------------------
# the default session (compatibility surface for the deprecated shims)
# ---------------------------------------------------------------------------

_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session behind ``run_local`` / ``run_distributed``.

    Shares the process-wide worker-pool manager and shared-memory field pool
    (so legacy callers keep the PR 2-4 amortization and the existing
    ``shutdown_worker_pool()`` teardown keeps working), and is replaced
    transparently if something closed it.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        session = _DEFAULT_SESSION
        if session is None or session.closed:
            session = Session()
            session._pool_manager = _process_runtime.default_pool_manager()
            session._field_pool = _process_runtime.shared_field_pool()
            session._owns_runtime = False
            _DEFAULT_SESSION = session
        return session
