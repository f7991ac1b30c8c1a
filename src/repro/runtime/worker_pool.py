"""A persistent pool of SPMD worker processes.

Spawning an OS process and importing the compiler stack costs far more than
one small stencil run, so the pool is *persistent*: workers are started once
per interpreter session and reused by every subsequent
``run_distributed(runtime="processes")`` call.  Programs are compiled once in
the parent, pickled once per worker (the vectorized-kernel cache is dropped on
the wire and rebuilt lazily), and cached worker-side on the unpickled
:class:`~repro.core.CompiledProgram` itself — so repeated runs, e.g. a
benchmark's timing loop, ship nothing and recompile nothing.

Protocol (all tuples over per-worker command queues and one shared result
queue; halo strips between ranks travel through the pool's shared-memory
channels, created before the fork so the workers inherit them):

* ``("program", key, payload)`` — cache a pickled program under ``key``;
* ``("run", run_id, key, rank, size, base, function, backend, field_specs,
  scalars, timeout, threads_per_rank, codegen, trace, overlap)`` — attach
  the shared-memory fields and execute one rank (with an intra-rank thread
  team when ``threads_per_rank > 1`` — the OpenMP level of the hybrid
  runtime; ``codegen`` selects the worker-built megakernel fast path, cached
  on the worker's unpickled program like the vectorized kernels; ``trace``
  turns on the rank-local span tracer, whose record ships back with the
  reply; ``overlap`` is the plan's resolved ``overlap_halos`` flag, honoured
  by both the interpreter and the megakernel exactly as in the thread
  world);
* ``("spmd", run_id, rank, size, payload, timeout)`` — run an arbitrary
  picklable ``fn(comm, *args)`` (tests and ad-hoc experiments);
* ``("warmup", run_id, rank, threads_per_rank)`` — pre-spawn the worker's
  intra-rank thread team so the first hybrid run pays no spawn latency;
* ``("stop",)`` — exit the worker loop.

Workers answer ``("done", run_id, rank, result, comm_stats, trace_record,
engaged)`` — ``engaged`` says whether a ``"run"`` took the megakernel — or
``("error", run_id, rank, failure)`` where ``failure`` is a picklable
:class:`WorkerFailure` (rank, phase, exception type, traceback text).  A
failed or timed-out run poisons the pool (peers may still be blocked in
receives), so the pool is shut down and the next run transparently starts a
fresh one.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import pickle
import queue as queue_module
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..interp.interpreter import ExecStatistics, Interpreter
from ..interp.mpi_runtime import CommStatistics
from ..obs import Tracer
from .channels import ChannelEndpoint, HaloChannels
from .mp_world import (
    ProcessRankCommunicator,
    SharedField,
    SharedFieldSpec,
    default_context,
    processes_available,
)
from .stats import RankStats, merge_comm_statistics, sort_rank_stats


@dataclass
class WorkerFailure:
    """Structured, picklable description of one rank's failure.

    Replaces the raw ``traceback.format_exc()`` strings the workers used to
    ship: the parent can now attribute a failure to a rank and phase
    programmatically (it rides on :attr:`WorkerError.failure` and lands in
    session metrics) while :meth:`describe` keeps the full human-readable
    detail, traceback included.
    """

    rank: int
    #: Which worker phase failed: ``"run"``, ``"spmd"`` or ``"warmup"``.
    phase: str
    #: Exception class name (the exception object itself may not pickle).
    exception: str
    message: str
    traceback_text: str

    def describe(self) -> str:
        return (
            f"rank {self.rank} failed during {self.phase}: "
            f"{self.exception}: {self.message}\n{self.traceback_text}"
        )


class WorkerError(RuntimeError):
    """A worker rank failed or the pool timed out; carries the remote detail.

    When the failure came from a worker rank (rather than a parent-side
    timeout), :attr:`failure` holds the structured :class:`WorkerFailure`.
    """

    failure: Optional[WorkerFailure] = None


class _PoolReplacedError(Exception):
    """Internal: the pool was shut down (grown/replaced) before this run
    acquired it; the caller should fetch the current pool and retry."""


@dataclass
class PoolBatchJob:
    """One job of a batched pooled round (``run_program_batch``).

    ``field_specs[rank]`` are the pre-scattered shared-memory specs of that
    rank's fields; the job occupies ``len(field_specs)`` contiguous workers.
    """

    program: Any
    function_name: str
    backend: str
    field_specs: Sequence[Sequence["SharedFieldSpec"]]
    scalars: Sequence[Any]
    threads_per_rank: int = 1
    codegen: str = "planned"
    trace: str = "off"
    overlap: bool = True


@contextlib.contextmanager
def _deep_recursion(limit: int = 10_000):
    """Temporarily raise the recursion limit for (un)pickling IR modules.

    The pickler walks the use-def graph recursively, so serialization depth
    grows with the length of SSA dependency chains — a few thousand frames
    for the larger lowered modules, past the default limit of 1000.
    """
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _failure(rank: int, phase: str, err: BaseException) -> WorkerFailure:
    """Build the structured failure shipped to the parent (must pickle)."""
    return WorkerFailure(
        rank=rank,
        phase=phase,
        exception=type(err).__name__,
        message=str(err),
        traceback_text=traceback.format_exc(),
    )


def _worker_main(worker_index: int, commands, results, inboxes,
                 channels: Optional[HaloChannels] = None) -> None:
    """The worker loop: cache programs, execute ranks, report statistics."""
    programs: dict[int, Any] = {}
    while True:
        command = commands.get()
        kind = command[0]
        if kind == "stop":
            return
        if kind == "program":
            _, key, payload = command
            with _deep_recursion():
                programs[key] = pickle.loads(payload)
            continue
        if kind == "run":
            (_, run_id, key, rank, size, base, function_name, backend,
             field_specs, scalars, timeout, threads_per_rank, codegen,
             trace, overlap) = command
            fields: list[SharedField] = []
            try:
                program = programs[key]
                # Cached on the worker's CompiledProgram: compiled on the
                # first run of this program and shared by every later run.
                kernel = (
                    None if backend == "interpreter"
                    else program.compiled_kernel(function_name)
                )
                fields = [SharedField.attach(spec) for spec in field_specs]
                # ``base`` partitions the pool across the jobs of one batched
                # round: this rank's world is the ``size`` workers starting at
                # ``base``, so its job-local inbox and channel indices stay
                # 0..size-1 and concurrent jobs can never cross-deliver.
                comm = ProcessRankCommunicator(
                    rank, size, inboxes[base:base + size],
                    run_id=run_id, timeout=timeout,
                    channels=_endpoint(channels, base, rank, size),
                )
                args = [field.array for field in fields] + list(scalars)
                # Spans are recorded against this process's monotonic clock;
                # the tracer's paired wall/perf reference lets the parent
                # re-align the record onto the shared timeline axis.
                tracer = (
                    Tracer(trace, track=f"rank {rank}")
                    if trace != "off" else None
                )
                stats = None
                if codegen != "planned" and kernel is not None:
                    megakernel = _worker_megakernel(
                        program, function_name, kernel, args, rank, size,
                        forced=(codegen == "megakernel"), overlap=overlap,
                        traced=tracer is not None,
                    )
                    if megakernel is not None and megakernel.matches(args):
                        candidate = ExecStatistics()
                        if megakernel.run(args, candidate, comm, tracer):
                            stats = candidate
                engaged = stats is not None
                if stats is None:
                    interpreter = Interpreter(
                        program.module, comm=comm, kernel=kernel,
                        threads=threads_per_rank, overlap_halos=overlap,
                        tracer=tracer,
                    )
                    interpreter.call(function_name, *args)
                    stats = interpreter.stats
                results.put(
                    ("done", run_id, rank, stats, comm.statistics,
                     tracer.record() if tracer is not None else None, engaged)
                )
            except BaseException as err:  # noqa: BLE001 - ship to the parent
                results.put(("error", run_id, rank, _failure(rank, "run", err)))
            finally:
                for field in fields:
                    field.release()
            continue
        if kind == "spmd":
            _, run_id, rank, size, payload, timeout = command
            try:
                fn, args = pickle.loads(payload)
                comm = ProcessRankCommunicator(
                    rank, size, inboxes, run_id=run_id, timeout=timeout,
                    channels=_endpoint(channels, 0, rank, size),
                )
                value = fn(comm, *args)
                results.put(
                    ("done", run_id, rank, value, comm.statistics, None, False)
                )
            except BaseException as err:  # noqa: BLE001 - ship to the parent
                results.put(("error", run_id, rank, _failure(rank, "spmd", err)))
            continue
        if kind == "warmup":
            # Pre-spawn the intra-rank thread team (the ROADMAP warm-up item):
            # the first hybrid run then pays no team-spawn latency.
            _, run_id, rank, threads_per_rank = command
            try:
                if threads_per_rank > 1:
                    from ..interp.thread_team import get_thread_team

                    get_thread_team(threads_per_rank)
                results.put(("done", run_id, rank, None, None, None, False))
            except BaseException as err:  # noqa: BLE001 - ship to the parent
                results.put(
                    ("error", run_id, rank, _failure(rank, "warmup", err))
                )
            continue


def _endpoint(channels: Optional[HaloChannels], base: int, rank: int,
              size: int) -> Optional[ChannelEndpoint]:
    """This rank's channel endpoint, or None when the pool has no channels."""
    return None if channels is None else ChannelEndpoint(channels, base, rank, size)


def _worker_megakernel(program, function_name, kernel, args, rank, size, *,
                       forced: bool, overlap: bool, traced: bool = False):
    """This worker's megakernel for one (function, rank, layout) — or None.

    Mirrors the parent-side session cache: built on the first run from the
    shipped program (whose megakernel cache, like the vectorized-kernel
    cache, was dropped on the wire) and kept on the worker's unpickled
    CompiledProgram.  Failures are cached as CodegenFallback so they are not
    re-attempted every run; ``forced`` turns them into errors shipped to the
    parent instead of silent interpreter fallbacks.
    """
    from ..dialects.func import find_function
    from ..interp.codegen import (
        CodegenError,
        CodegenFallback,
        emit_megakernel,
        megakernel_signature,
        trace_program,
    )

    key = (function_name, rank, size, megakernel_signature(args), overlap,
           traced)
    cached = program._megakernel_cache.get(key)
    if cached is None:
        try:
            func_op = find_function(program.module, function_name)
            if func_op is None:
                raise CodegenError(f"no function named {function_name!r}")
            # The plan's overlap flag fixes the completion points, exactly
            # as the session's own megakernel cache does.
            trace = trace_program(func_op, kernel, overlap=overlap)
            cached = emit_megakernel(trace, args, rank=rank, size=size,
                                     traced=traced)
        except CodegenError as err:
            cached = CodegenFallback(function_name, str(err))
        program._megakernel_cache[key] = cached
    if isinstance(cached, CodegenFallback):
        if forced:
            raise WorkerError(
                f"codegen='megakernel' was forced but {function_name!r} "
                f"cannot be megakernel-compiled on rank {rank}/{size}: "
                f"{cached.reason}"
            )
        return None
    return cached


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _rank_stats(report: tuple) -> RankStats:
    """One ``(rank, result, comm_stats, trace_record, engaged)`` report."""
    rank, exec_stats, comm_stats, trace_record, engaged = report
    return RankStats(rank, exec_stats, comm_stats, trace=trace_record,
                     engaged=engaged)


_PROGRAM_KEYS = itertools.count(1)


class WorkerPool:
    """A fixed-size set of long-lived worker processes plus their queues."""

    def __init__(self, size: int):
        self._ctx = default_context()
        self.size = size
        self.alive = True
        # One run at a time: the workers and the result queue are shared
        # state, so concurrent run_program/run_spmd calls (e.g. from two
        # caller threads) must serialize — interleaved rank commands would
        # cross-deadlock and each collector would discard the other run's
        # reports.
        self._run_lock = threading.Lock()
        #: Programs shipped per worker (so re-runs ship nothing).
        self._shipped: list[set[int]] = [set() for _ in range(size)]
        self.programs_shipped = 0
        self._run_ids = itertools.count(1)
        self._inboxes = [self._ctx.Queue() for _ in range(size)]
        self._results = self._ctx.Queue()
        self._commands = [self._ctx.Queue() for _ in range(size)]
        # Created before the fork: the workers inherit the ring slab and the
        # doorbell semaphores (None where channels are unsupported).
        self._channels = HaloChannels.create(self._ctx, size)
        self._processes = [
            self._ctx.Process(
                target=_worker_main,
                args=(index, self._commands[index], self._results,
                      self._inboxes, self._channels),
                daemon=True,
                name=f"repro-spmd-worker-{index}",
            )
            for index in range(size)
        ]
        for process in self._processes:
            process.start()

    # -- program shipping -----------------------------------------------------
    def ship_program(self, program, ranks: int, base: int = 0) -> int:
        """Serialize ``program`` once and send it to ``ranks`` workers at ``base``.

        The key is stashed on the program object, so re-running the same
        compiled program never re-pickles or re-sends it.
        """
        key = getattr(program, "_pool_program_key", None)
        if key is None:
            key = next(_PROGRAM_KEYS)
            program._pool_program_key = key
        payload: Optional[bytes] = None
        for index in range(base, base + ranks):
            if key in self._shipped[index]:
                continue
            if payload is None:
                with _deep_recursion():
                    payload = pickle.dumps(program)
            self._commands[index].put(("program", key, payload))
            self._shipped[index].add(key)
            self.programs_shipped += 1
        return key

    # -- execution ------------------------------------------------------------
    def reap_dead_workers(self) -> list[int]:
        """Indices of workers that died (crashed or were killed) since start."""
        return [
            index for index, process in enumerate(self._processes)
            if not process.is_alive()
        ]

    def _require_healthy(self) -> None:
        """Retire the pool when any worker died between runs.

        A dead worker would silently swallow its rank's command and hang the
        whole run until the collect deadline; replacing the pool up front
        turns that into a transparent retry for the caller (the
        ``_PoolReplacedError`` loop in the entry points fetches a fresh one).
        """
        dead = self.reap_dead_workers()
        if dead:
            self.shutdown()
            raise _PoolReplacedError

    def run_program(
        self,
        program,
        function_name: str,
        backend: str,
        field_specs: Sequence[Sequence[SharedFieldSpec]],
        scalar_arguments: Sequence[Any],
        timeout: float,
        threads_per_rank: int = 1,
        codegen: str = "planned",
        trace: str = "off",
        overlap: bool = True,
    ) -> list[RankStats]:
        """Execute one rank per worker against pre-scattered shared fields."""
        size = len(field_specs)
        if size > self.size:
            raise WorkerError(f"pool of {self.size} workers cannot host {size} ranks")
        with self._run_lock:
            if not self.alive:
                raise _PoolReplacedError
            self._require_healthy()
            key = self.ship_program(program, size)
            run_id = next(self._run_ids)
            scalars = list(scalar_arguments)
            for rank in range(size):
                self._commands[rank].put(
                    ("run", run_id, key, rank, size, 0, function_name, backend,
                     list(field_specs[rank]), scalars, timeout,
                     threads_per_rank, codegen, trace, overlap)
                )
            reports = self._collect(run_id, size, timeout)
        return [_rank_stats(report) for report in reports]

    def run_program_batch(
        self, jobs: Sequence["PoolBatchJob"], timeout: float
    ) -> list[Any]:
        """Run several independent SPMD jobs in ONE pooled round.

        The pool's workers are partitioned across the jobs — job ``i`` of
        ``r_i`` ranks owns the contiguous worker range starting at
        ``sum(r_0..r_{i-1})`` and communicates only within it (its
        communicator sees a job-local inbox window, see ``_worker_main``) —
        so many small runs share one dispatch/collect round instead of
        serializing.  Returns one entry per job, in order: a ``RankStats``
        list on success, or the :class:`WorkerError` that failed the job.
        A failed job never poisons its siblings' results, but it does retire
        the pool after the round (its peer ranks may still be draining their
        communication timeouts), matching the single-run discipline.
        """
        total = sum(len(job.field_specs) for job in jobs)
        if total > self.size:
            raise WorkerError(
                f"pool of {self.size} workers cannot host {total} ranks "
                f"across {len(jobs)} batched jobs"
            )
        with self._run_lock:
            if not self.alive:
                raise _PoolReplacedError
            self._require_healthy()
            run_ids: list[int] = []
            sizes: list[int] = []
            base = 0
            for job in jobs:
                size = len(job.field_specs)
                key = self.ship_program(job.program, size, base)
                run_id = next(self._run_ids)
                scalars = list(job.scalars)
                for rank in range(size):
                    self._commands[base + rank].put(
                        ("run", run_id, key, rank, size, base,
                         job.function_name, job.backend,
                         list(job.field_specs[rank]), scalars, timeout,
                         job.threads_per_rank, job.codegen, job.trace,
                         job.overlap)
                    )
                run_ids.append(run_id)
                sizes.append(size)
                base += size
            outcomes = self._collect_batch(run_ids, sizes, timeout)
        results: list[Any] = []
        for outcome in outcomes:
            if isinstance(outcome, WorkerError):
                results.append(outcome)
            else:
                results.append([_rank_stats(report) for report in outcome])
        return results

    def _collect_batch(
        self, run_ids: Sequence[int], sizes: Sequence[int], timeout: float
    ) -> list[Any]:
        """One report list per job (or its WorkerError), demuxed by run id.

        A job whose rank reports an error is failed immediately — its
        remaining ranks are doomed to their communication timeouts and their
        late reports are ignored by run-id filtering — while sibling jobs
        keep collecting.  Any failure (or a deadline) retires the pool after
        the round, like :meth:`_collect`.
        """
        deadline = time.monotonic() + timeout + 10.0
        by_run = {run_id: index for index, run_id in enumerate(run_ids)}
        reports: list[list] = [[] for _ in run_ids]
        outcomes: list[Any] = [None] * len(run_ids)
        remaining = set(range(len(run_ids)))

        def _fail(index: int, error: WorkerError) -> None:
            outcomes[index] = error
            remaining.discard(index)

        while remaining:
            budget = deadline - time.monotonic()
            if budget <= 0:
                for index in sorted(remaining):
                    _fail(index, WorkerError(
                        f"batched job {index} did not report within "
                        f"{timeout}s (deadlock?)"
                    ))
                break
            try:
                message = self._results.get(timeout=min(budget, 0.5))
            except queue_module.Empty:
                dead = self.reap_dead_workers()
                if dead:
                    for index in sorted(remaining):
                        _fail(index, WorkerError(
                            f"worker processes {dead} died mid-batch"
                        ))
                    break
                continue
            tag, reported_run, rank = message[0], message[1], message[2]
            index = by_run.get(reported_run)
            if index is None or index not in remaining:
                continue  # stale report from a failed earlier run or job
            if tag == "error":
                failure = message[3]
                if isinstance(failure, WorkerFailure):
                    error = WorkerError(failure.describe())
                    error.failure = failure
                else:  # pragma: no cover - legacy payload shape
                    error = WorkerError(f"rank {rank} failed:\n{failure}")
                _fail(index, error)
                continue
            reports[index].append((rank, *message[3:]))
            if len(reports[index]) == sizes[index]:
                outcomes[index] = reports[index]
                remaining.discard(index)
        if any(isinstance(outcome, WorkerError) for outcome in outcomes):
            self.shutdown()
        return outcomes

    def run_spmd(
        self,
        fn: Callable,
        size: int,
        args: Sequence[Any],
        timeout: float,
    ) -> tuple[list[Any], list[CommStatistics]]:
        """Run ``fn(comm, *args)`` on ``size`` ranks; return per-rank results."""
        if size > self.size:
            raise WorkerError(f"pool of {self.size} workers cannot host {size} ranks")
        with self._run_lock:
            if not self.alive:
                raise _PoolReplacedError
            self._require_healthy()
            run_id = next(self._run_ids)
            payload = pickle.dumps((fn, tuple(args)))
            for rank in range(size):
                self._commands[rank].put(("spmd", run_id, rank, size, payload, timeout))
            reports = self._collect(run_id, size, timeout)
        ordered = sorted(reports, key=lambda report: report[0])
        return (
            [report[1] for report in ordered],
            [report[2] for report in ordered],
        )

    def warmup(self, ranks: int, threads_per_rank: int = 1,
               timeout: float = 60.0) -> None:
        """Pre-spawn the first ``ranks`` workers' intra-rank thread teams.

        The workers themselves were spawned by the pool constructor; this
        round-trip additionally forces each of them to build (and cache) its
        ``threads_per_rank``-sized team and proves the command loop is alive,
        so the first real hybrid run pays neither spawn latency.
        """
        if ranks > self.size:
            raise WorkerError(f"pool of {self.size} workers cannot host {ranks} ranks")
        with self._run_lock:
            if not self.alive:
                raise _PoolReplacedError
            self._require_healthy()
            run_id = next(self._run_ids)
            for rank in range(ranks):
                self._commands[rank].put(("warmup", run_id, rank, threads_per_rank))
            self._collect(run_id, ranks, timeout)

    def _collect(self, run_id: int, size: int, timeout: float) -> list[tuple]:
        """Gather one report per rank, failing fast on worker errors."""
        # Workers' own receives already honour ``timeout``; the parent allows
        # a margin on top so the rank-side timeout error arrives first.
        deadline = time.monotonic() + timeout + 10.0
        reports: list[tuple] = []
        seen: set[int] = set()
        while len(reports) < size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.shutdown()
                raise WorkerError(
                    f"ranks {sorted(set(range(size)) - seen)} did not report "
                    f"within {timeout}s (deadlock?)"
                )
            try:
                message = self._results.get(timeout=min(remaining, 0.5))
            except queue_module.Empty:
                dead = [
                    rank for rank in range(size)
                    if rank not in seen and not self._processes[rank].is_alive()
                ]
                if dead:
                    self.shutdown()
                    raise WorkerError(f"worker processes for ranks {dead} died")
                continue
            tag, reported_run, rank = message[0], message[1], message[2]
            if reported_run != run_id:
                continue  # stale report from a failed earlier run
            if tag == "error":
                self.shutdown()
                failure = message[3]
                if isinstance(failure, WorkerFailure):
                    error = WorkerError(failure.describe())
                    error.failure = failure
                    raise error
                raise WorkerError(f"rank {rank} failed:\n{failure}")
            reports.append((rank, *message[3:]))
            seen.add(rank)
        return reports

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker and release the queues; the pool is dead after.

        Workers that already died (crashed mid-run, killed externally) are
        reaped rather than waited on: the stop command is only sent to live
        ones, joins on corpses return immediately, and a worker that ignores
        ``terminate`` is force-killed — shutdown always finishes.
        """
        if not self.alive:
            return
        self.alive = False
        for commands, process in zip(self._commands, self._processes):
            if not process.is_alive():
                continue  # already dead: nobody will read the stop command
            try:
                commands.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=1.0)
        for q in [*self._commands, *self._inboxes, self._results]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - queue already broken
                pass
        if self._channels is not None:
            self._channels.close()


class PoolManager:
    """Owns (at most) one :class:`WorkerPool` and its replacement policy.

    Pool ownership used to be a module global; a manager instance makes it an
    explicit resource a :class:`repro.core.session.Session` can hold, reuse
    across runs, and tear down deterministically.  The module-level functions
    below keep delegating to one process-wide default manager — the
    compatibility surface for ad-hoc callers and the default session.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool: Optional[WorkerPool] = None
        #: How many pools this manager ever constructed (a warmed-up manager
        #: serving repeated runs stays at 1 — asserted by the session tests).
        self.pools_created = 0

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The current pool, if any (no spawning)."""
        return self._pool

    def acquire(self, size: int) -> WorkerPool:
        """The persistent pool, grown (by replacement) when too small."""
        with self._lock:
            pool = self._pool
            if pool is not None and pool.alive and pool.size >= size:
                return pool
            previous = pool.size if pool is not None else 0
            if pool is not None:
                # Replacing a too-small pool must wait for any in-flight run
                # to finish, or the shutdown would terminate its busy workers.
                with pool._run_lock:
                    pool.shutdown()
            self._pool = WorkerPool(max(size, previous))
            self.pools_created += 1
            return self._pool

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    # -- retrying entry points (transparent pool replacement) -----------------
    def run_program_specs(
        self,
        program,
        function_name: str,
        backend: str,
        field_specs: Sequence[Sequence[SharedFieldSpec]],
        scalar_arguments: Sequence[Any],
        timeout: float,
        threads_per_rank: int = 1,
        codegen: str = "planned",
        trace: str = "off",
        overlap: bool = True,
    ) -> list[RankStats]:
        """Run one rank per worker against pre-scattered shared-memory specs."""
        size = len(field_specs)
        for _ in _pool_attempts():
            pool = self.acquire(size)
            try:
                return pool.run_program(
                    program, function_name, backend, field_specs,
                    scalar_arguments, timeout, threads_per_rank, codegen,
                    trace, overlap,
                )
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers

    def run_program_batch(
        self, jobs: Sequence[PoolBatchJob], timeout: float
    ) -> list[Any]:
        """Run several independent jobs in one pooled round (see the pool).

        The pool is grown (by replacement) to the batch's total rank count;
        per-job outcomes are returned in order — ``RankStats`` lists for
        successes, :class:`WorkerError` instances for failed jobs.
        """
        total = sum(len(job.field_specs) for job in jobs)
        for _ in _pool_attempts():
            pool = self.acquire(total)
            try:
                return pool.run_program_batch(jobs, timeout)
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers

    def run_spmd(
        self, fn: Callable, size: int, args: Sequence[Any], timeout: float
    ) -> tuple[list[Any], list[CommStatistics]]:
        for _ in _pool_attempts():
            pool = self.acquire(size)
            try:
                return pool.run_spmd(fn, size, args, timeout)
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers

    def warmup(self, ranks: int, threads_per_rank: int = 1,
               timeout: float = 60.0) -> None:
        """Spawn ``ranks`` workers (and their thread teams) ahead of a run."""
        for _ in _pool_attempts():
            pool = self.acquire(ranks)
            try:
                pool.warmup(ranks, threads_per_rank, timeout)
                return
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers


_GLOBAL_MANAGER = PoolManager()


def default_pool_manager() -> PoolManager:
    """The process-wide manager behind the module-level compatibility API."""
    return _GLOBAL_MANAGER


def get_worker_pool(size: int) -> WorkerPool:
    """The shared persistent pool, grown (by replacement) when too small."""
    return _GLOBAL_MANAGER.acquire(size)


def shutdown_worker_pool() -> None:
    """Tear down the shared pool and field blocks (tests, interpreter exit)."""
    _GLOBAL_MANAGER.shutdown()
    from .shared_pool import shared_field_pool

    shared_field_pool().clear()


atexit.register(shutdown_worker_pool)


# ---------------------------------------------------------------------------
# high-level entry points
# ---------------------------------------------------------------------------

def run_program_processes(
    program,
    function_name: str,
    backend: str,
    local_fields: Sequence[Sequence[Any]],
    scalar_arguments: Sequence[Any],
    *,
    timeout: float = 60.0,
    threads_per_rank: int = 1,
    manager: Optional[PoolManager] = None,
) -> tuple[list[ExecStatistics], CommStatistics]:
    """Run one compiled SPMD program rank-per-process over shared memory.

    ``local_fields[rank]`` are the pre-scattered per-rank buffers.  Plain
    NumPy arrays are copied into fresh shared-memory blocks and back (the
    PR 2 discipline, kept for ad-hoc callers); entries that already *are*
    shared-memory backed — :class:`~repro.runtime.shared_pool.LeasedField`
    or :class:`~repro.runtime.mp_world.SharedField` — are used in place,
    eliding both copies (the session's copy-elision path).  Buffers are
    updated **in place** either way.  Returns the per-rank execution
    statistics in rank order plus the merged communication statistics.
    ``manager`` selects whose worker pool runs it (default: the process-wide
    one).
    """
    manager = manager if manager is not None else _GLOBAL_MANAGER
    owned: list[tuple[np.ndarray, SharedField]] = []
    shared: list[list[Any]] = []
    for rank_fields in local_fields:
        rank_shared = []
        for entry in rank_fields:
            if isinstance(entry, np.ndarray):
                field = SharedField.create(entry)
                owned.append((entry, field))
                rank_shared.append(field)
            else:
                rank_shared.append(entry)
        shared.append(rank_shared)
    try:
        specs = [[field.spec for field in rank_fields] for rank_fields in shared]
        reports = manager.run_program_specs(
            program, function_name, backend, specs, scalar_arguments,
            timeout, threads_per_rank,
        )
        for array, field in owned:
            array[...] = field.array
    finally:
        for _, field in owned:
            field.release()
    ordered = sort_rank_stats(reports)
    return (
        [report.exec_stats for report in ordered],
        merge_comm_statistics([report.comm_stats for report in ordered]),
    )


def run_spmd_processes(
    fn: Callable,
    size: int,
    args: Sequence[Any] = (),
    *,
    timeout: float = 30.0,
    manager: Optional[PoolManager] = None,
) -> tuple[list[Any], CommStatistics]:
    """Run a picklable ``fn(comm, *args)`` on ``size`` process ranks.

    The process-world analogue of ``SimulatedMPI.run_spmd``; returns the
    per-rank return values (rank order) and the merged communication
    statistics.
    """
    if not processes_available():
        raise WorkerError("process runtime is unavailable on this platform")
    manager = manager if manager is not None else _GLOBAL_MANAGER
    values, per_rank = manager.run_spmd(fn, size, args, timeout)
    return values, merge_comm_statistics(per_rank)


def _pool_attempts(limit: int = 5):
    """Bounded retry loop for transparently replaced pools.

    A replaced pool (growth race, reaped dead workers) is retried against a
    fresh one; but workers that die *at startup* (ImportError in the child,
    fd exhaustion) would otherwise respawn pools forever — after ``limit``
    replacements the failure surfaces as a WorkerError instead.
    """
    yield from range(limit)
    raise WorkerError(
        f"worker pool was replaced {limit} times in a row; workers appear "
        "to be dying at startup (see the system log for the child error)"
    )
