"""The multi-tenant server: one warm Session shared by many clients.

A :class:`Server` owns (or wraps) a single
:class:`~repro.core.session.Session` and serves concurrent clients through
three mechanisms:

* **Cross-tenant plan cache** — plans are keyed by
  ``(program fingerprint, function, ExecutionConfig.plan_key())``, so two
  tenants submitting the same workload share one compiled
  :class:`~repro.core.session.Plan` (and, through the session, its
  megakernels and worker pool).

* **Admission control** — a bounded run queue.  :meth:`Server.submit`
  returns a :class:`~repro.serve.job.JobHandle` future immediately; when the
  queue is at ``max_pending`` it raises
  :class:`~repro.serve.errors.QueueFullError` *synchronously* instead of
  blocking, so overload turns into fast typed backpressure.

* **Batched dispatch** — a single dispatcher thread drains up to
  ``max_batch`` queued jobs at a time and runs them as ONE SPMD round:
  thread-world and local jobs through
  :meth:`~repro.core.session.Session.execute_batch` (the persistent rank
  executor partitioned across jobs), process-world jobs through
  ``PoolManager.run_program_batch`` (the worker pool partitioned across
  jobs).  N small jobs pay the dispatch latency once instead of N times —
  the fine-grained-asynchronous-BSP idea applied to the serving path.

Every job runs through the exact same ``Plan`` helpers a standalone
``plan.run()`` uses (see :class:`~repro.core.session.PreparedRun`), so
results and per-tenant statistics are bit-identical to unbatched runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Optional, Sequence

from ..core.config import ExecutionConfig
from ..core.session import (
    Plan,
    PreparedRun,
    Session,
    _default_function,
    _release_run_buffers,
)
from ..obs import MetricsRegistry
from ..runtime.worker_pool import PoolBatchJob, WorkerError
from .errors import QueueFullError, ServerClosedError
from .job import JobHandle
from .stats import TenantStats


class Server:
    """A shared execution service over one warm session.

    ``config`` (or ``session.config``) is the default execution
    configuration; per-submit overrides are allowed and only affect plan
    identity, never server structure.  ``max_pending`` bounds the run queue
    (admission control), ``max_batch`` bounds how many jobs one dispatch
    round may pack.  ``start=False`` leaves the dispatcher unstarted — jobs
    queue up (and the queue-full path is testable deterministically) until
    :meth:`start` is called.
    """

    def __init__(
        self,
        config: Optional[ExecutionConfig] = None,
        *,
        session: Optional[Session] = None,
        max_pending: int = 64,
        max_batch: int = 8,
        start: bool = True,
        **overrides,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if session is not None:
            self._session = session
            self._owns_session = False
            if config is not None or overrides:
                raise ValueError(
                    "pass either an existing session or a config, not both"
                )
        else:
            self._session = Session(config, **overrides)
            self._owns_session = True
        self.max_pending = max_pending
        self.max_batch = max_batch
        #: The server's own counter namespace (``serve.*``): job lifecycle
        #: counts, queue-wait totals, queue-depth/batch-occupancy peaks,
        #: plan-cache hit/miss.
        self.metrics = MetricsRegistry()

        self._condition = threading.Condition()
        self._queue: deque[JobHandle] = deque()
        self._inflight = 0
        self._closed = False
        #: (fingerprint, function, config.plan_key()) -> shared Plan.
        self._plans: Dict[tuple, Plan] = {}
        #: id(plan) -> recycled _RunBuffers free list (dispatcher-only).
        self._buffer_pool: Dict[int, list] = {}
        self._tenant_lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------------
    @property
    def session(self) -> Session:
        """The underlying session (shared plan/megakernel/pool state)."""
        return self._session

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._thread is not None or self._closed:
            return
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> None:
        """Stop accepting jobs; then shut the dispatcher down.

        ``drain=True`` (default) runs every already-queued job to completion
        first; ``drain=False`` cancels queued jobs (their handles raise
        :class:`~repro.serve.errors.JobCancelledError`).  In-flight batches
        always run to completion — an SPMD round cannot be abandoned halfway.
        Owned sessions are closed; wrapped sessions are left to their owner.
        """
        with self._condition:
            if self._closed:
                return
            self._closed = True
            dropped = [] if drain and self._thread is not None else list(self._queue)
            if dropped:
                self._queue.clear()
            self._condition.notify_all()
        for job in dropped:
            job.cancel()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        for stack in self._buffer_pool.values():
            for buffers in stack:
                _release_run_buffers(buffers)
        self._buffer_pool.clear()
        if self._owns_session:
            self._session.close()

    # -- client surface -------------------------------------------------------
    def submit(
        self,
        program: Any,
        fields: Sequence[Any],
        scalars: Sequence[Any] = (),
        *,
        tenant: str = "default",
        function: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> JobHandle:
        """Enqueue one run; returns its :class:`JobHandle` future immediately.

        Like ``plan.run()``, the gather writes results back into the caller's
        ``fields`` arrays — do not reuse them until the handle resolves.
        Raises :class:`~repro.serve.errors.QueueFullError` when the queue is
        at capacity and :class:`~repro.serve.errors.ServerClosedError` after
        :meth:`close`; neither enqueues anything.
        """
        resolved = ExecutionConfig.coerce(
            config or self._session.config, **overrides
        )
        job = JobHandle(
            program, fields, scalars, function, resolved, tenant,
            on_cancel=self._job_cancelled,
        )
        with self._condition:
            if self._closed:
                self.metrics.inc("serve.jobs_rejected")
                raise ServerClosedError("the server is closed")
            if len(self._queue) >= self.max_pending:
                self.metrics.inc("serve.jobs_rejected")
                raise QueueFullError(
                    f"run queue is full ({self.max_pending} jobs pending); "
                    "retry later or shed load"
                )
            self._queue.append(job)
            self.metrics.inc("serve.jobs_submitted")
            self.metrics.record_peak("serve.queue_depth_peak", len(self._queue))
            self._condition.notify()
        return job

    def queue_depth(self) -> int:
        """Jobs currently queued (excludes the in-flight batch)."""
        with self._condition:
            return len(self._queue)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue and all in-flight batches are empty."""
        with self._condition:
            return self._condition.wait_for(
                lambda: not self._queue and self._inflight == 0, timeout
            )

    def tenant(self, name: str = "default") -> TenantStats:
        """The (auto-created) statistics accumulator of one tenant."""
        with self._tenant_lock:
            stats = self._tenants.get(name)
            if stats is None:
                stats = TenantStats(name)
                self._tenants[name] = stats
            return stats

    @property
    def tenants(self) -> Dict[str, TenantStats]:
        with self._tenant_lock:
            return dict(self._tenants)

    def _job_cancelled(self, job: JobHandle) -> None:
        self.metrics.inc("serve.jobs_cancelled")

    # -- the dispatcher -------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._closed:
                    self._condition.wait()
                if not self._queue:
                    return  # closed and drained
                batch = []
                while self._queue and len(batch) < self.max_batch:
                    batch.append(self._queue.popleft())
                self._inflight += len(batch)
                self._condition.notify_all()
            try:
                self._run_batch(batch)
            finally:
                with self._condition:
                    self._inflight -= len(batch)
                    self._condition.notify_all()

    def _run_batch(self, batch: Sequence[JobHandle]) -> None:
        now = time.monotonic()
        claimed = []
        for job in batch:
            if not job._begin():
                continue  # cancelled while queued
            self.metrics.inc(
                "serve.queue_wait_us", int((now - job.enqueued_at) * 1e6)
            )
            claimed.append(job)
        if not claimed:
            return
        self.metrics.inc("serve.batches")
        self.metrics.inc("serve.batched_jobs", len(claimed))
        self.metrics.record_peak("serve.batch_occupancy_peak", len(claimed))

        # Stage every job (validation, buffers, scatter, megakernel lookup);
        # a job that cannot even stage fails alone, siblings continue.
        staged: list[tuple[JobHandle, PreparedRun]] = []
        for job in claimed:
            try:
                plan = self._plan_for(job)
                prepared = plan.prepare(
                    job.fields, job.scalars, buffers=self._buffers_out(plan)
                )
            except BaseException as error:  # noqa: BLE001 - job-scoped failure
                self._fail(job, error)
                continue
            staged.append((job, prepared))
        if not staged:
            return

        # One SPMD round per runtime family, ranks partitioned across jobs.
        processes = [(j, p) for j, p in staged if p.runtime == "processes"]
        threaded = [(j, p) for j, p in staged if p.runtime != "processes"]
        if processes:
            self._run_process_group(processes)
        if threaded:
            try:
                self._session.execute_batch([p for _, p in threaded])
            except BaseException as error:  # noqa: BLE001 - round-level failure
                for _, prepared in threaded:
                    if prepared.error is None:
                        prepared.error = error

        for job, prepared in staged:
            try:
                result = prepared.finish()
            except BaseException as error:  # noqa: BLE001 - job-scoped failure
                prepared.release()
                self._fail(job, error)
                continue
            self._recycle(prepared)
            self.tenant(job.tenant).ingest(result)
            self.metrics.inc("serve.jobs_completed")
            job._complete(result)

    def _run_process_group(
        self, pairs: Sequence[tuple[JobHandle, PreparedRun]]
    ) -> None:
        """One worker-pool round over every process-world job of the batch."""
        jobs = []
        for _, prepared in pairs:
            plan = prepared.plan
            config = plan.config
            jobs.append(PoolBatchJob(
                program=plan.program,
                function_name=plan.function,
                backend=config.backend,
                field_specs=prepared.buffers.specs,
                scalars=prepared.scalars,
                threads_per_rank=config.threads_per_rank,
                codegen=config.codegen if plan._codegen_active else "planned",
                trace=config.trace,
                overlap=plan.overlap,
            ))
        timeout = max(prepared.plan.config.timeout for _, prepared in pairs)
        try:
            outcomes = self._session._pool_manager.run_program_batch(
                jobs, timeout
            )
        except WorkerError as error:
            self._session.metrics.inc("worker.errors")
            for _, prepared in pairs:
                prepared.error = error
            return
        for (_, prepared), outcome in zip(pairs, outcomes):
            if isinstance(outcome, WorkerError):
                self._session.metrics.inc("worker.errors")
                prepared.error = outcome
            else:
                prepared.reports = outcome

    def _fail(self, job: JobHandle, error: BaseException) -> None:
        self.metrics.inc("serve.jobs_failed")
        self.tenant(job.tenant).jobs_failed += 1
        job._fail(error)

    # -- the cross-tenant plan cache ------------------------------------------
    def _plan_for(self, job: JobHandle) -> Plan:
        function = job.function or _default_function(job.program)
        key = (job.program.fingerprint, function, job.config.plan_key())
        plan = self._plans.get(key)
        if plan is None or plan.closed:
            self.metrics.inc("serve.plan_cache_miss")
            plan = self._session.plan(job.program, function, job.config)
            self._plans[key] = plan
        else:
            self.metrics.inc("serve.plan_cache_hit")
        return plan

    # -- the per-plan buffer free list (dispatcher thread only) ---------------
    def _buffers_out(self, plan: Plan):
        stack = self._buffer_pool.get(id(plan))
        return stack.pop() if stack else None

    def _recycle(self, prepared: PreparedRun) -> None:
        buffers = prepared.buffers
        prepared.buffers = None
        if buffers is None:
            return
        stack = self._buffer_pool.setdefault(id(prepared.plan), [])
        if len(stack) < self.max_batch:
            stack.append(buffers)
        else:
            _release_run_buffers(buffers)
