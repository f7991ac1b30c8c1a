"""Vectorized backend vs tree-walking interpreter on the paper's CPU kernels.

The whole point of the shared stack is that the *same* lowered program runs
fast; this benchmark pins the execution-backend speedup contract on every
nest shape the vectorizer covers:

* the fig. 7a heat kernels (2D, space orders 2/4/8), untiled *and*
  cache-tiled (the ``min``-clamped ``convert-stencil-to-scf{tile}`` output);
* an ``scf.reduce`` sum-of-squares nest (NumPy reduction with the tree
  walker's deterministic fold);
* the ``merge()``-masked PsyClone tracer kernel (``cmpf``/``select`` chains
  compiled to ``np.where`` trees).

Each must be at least 10x faster than the per-cell tree walker while
producing bit-identical outputs.  ``benchmarks/bench_regression.py`` replays
this file in CI and fails the build when any speedup drops below the floors
committed in ``benchmarks/baseline.json``.
"""

import time

import numpy as np
import pytest

from bench_helpers import attach_rows
from repro.core import Session, compile_stencil_program, cpu_target, default_session, dmp_target
from repro.dialects import arith
from repro.workloads import heat_diffusion, masked_tracer_advection

GRID = (64, 64)
TIMESTEPS = 3
MIN_SPEEDUP = 10.0


def _compiled_heat(space_order):
    workload = heat_diffusion(GRID, space_order=space_order, dtype=np.float64)
    workload.initialise(seed=space_order)
    operator = workload.operator(backend="xdsl")
    program = operator.compile(workload.dt)
    return program, operator._field_arguments()


def _run_local(program, call_args, function, backend):
    """One-shot execution through the Session API (no deprecated shims)."""
    return default_session().run(
        program, list(call_args), function=function, backend=backend
    )


def _time_backend(program, fields, backend, repeats=1):
    best = float("inf")
    outputs = None
    for _ in range(repeats):
        arrays = [field.copy() for field in fields]
        start = time.perf_counter()
        _run_local(program, [*arrays, TIMESTEPS], "kernel", backend)
        best = min(best, time.perf_counter() - start)
        outputs = arrays
    return best, outputs


@pytest.mark.benchmark(group="backend-speedup")
@pytest.mark.parametrize("space_order", [2, 4, 8])
def test_vectorized_backend_speedup(benchmark, space_order):
    program, fields = _compiled_heat(space_order)
    # Warm the nest-compilation cache so both timings measure pure execution.
    program.compiled_kernel("kernel")

    interp_time, interp_fields = _time_backend(program, fields, "interpreter")
    vector_time, vector_fields = benchmark(
        lambda: _time_backend(program, fields, "vectorized", repeats=3)
    )

    for a, b in zip(interp_fields, vector_fields):
        assert np.array_equal(a, b), "backends diverged"

    speedup = interp_time / vector_time
    attach_rows(
        benchmark,
        "backend-speedup",
        [
            {
                "kernel": f"heat2d-so{space_order}",
                "shape": list(GRID),
                "backend": "vectorized",
                "timesteps": TIMESTEPS,
                "interpreter_s": interp_time,
                "vectorized_s": vector_time,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized backend is only {speedup:.1f}x faster than the "
        f"interpreter on heat2d-so{space_order} (need >= {MIN_SPEEDUP}x)"
    )


def _assert_and_attach(benchmark, name, kernel, shape, program, make_args,
                       function, steps=None):
    """Time both backends on one program, assert >= 10x, attach the row.

    ``steps`` (when given) is appended to the arguments produced by
    ``make_args``; kernels without a timestep argument pass None.
    """
    program.compiled_kernel(function)  # warm the nest-compilation cache

    def run(backend, repeats=1):
        best = float("inf")
        outputs = None
        for _ in range(repeats):
            arrays = make_args()
            call_args = arrays if steps is None else [*arrays, steps]
            start = time.perf_counter()
            _run_local(program, call_args, function, backend)
            best = min(best, time.perf_counter() - start)
            outputs = arrays
        return best, outputs

    interp_time, interp_fields = run("interpreter")
    vector_time, vector_fields = benchmark(lambda: run("vectorized", repeats=3))
    for a, b in zip(interp_fields, vector_fields):
        assert np.array_equal(a, b), "backends diverged"
    speedup = interp_time / vector_time
    attach_rows(
        benchmark,
        name,
        [
            {
                "kernel": kernel,
                "shape": list(shape),
                "backend": "vectorized",
                "timesteps": 1 if steps is None else steps,
                "interpreter_s": interp_time,
                "vectorized_s": vector_time,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized backend is only {speedup:.1f}x faster than the "
        f"interpreter on {kernel} (need >= {MIN_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="backend-speedup")
def test_tiled_heat_kernel_speedup(benchmark):
    """The min-clamped tiled stencil_to_scf output must vectorize, not tree-walk."""
    workload = heat_diffusion(GRID, space_order=4, dtype=np.float64)
    workload.initialise(seed=4)
    operator = workload.operator(backend="xdsl")
    module = operator.stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target(tile_sizes=(16, 16)))
    kernel = program.compiled_kernel("kernel")
    assert kernel.nest_count >= 1, kernel.fallback_reasons
    fields = operator._field_arguments()
    _assert_and_attach(
        benchmark, "backend-speedup", "heat2d-so4-tiled16", GRID, program,
        lambda: [field.copy() for field in fields], "kernel", TIMESTEPS,
    )


@pytest.mark.benchmark(group="backend-speedup")
def test_reduce_nest_speedup(benchmark):
    """scf.reduce nests must compile to NumPy reductions, not per-cell folds."""
    from repro.core.pipeline import CompiledProgram
    from repro.machine.kernel_model import characterize_module
    from tests.conftest import build_reduce_module

    n = 96
    module = build_reduce_module(n, arith.AddfOp, 0.0)
    program = CompiledProgram(
        module=module,
        target=cpu_target(),
        characteristics=characterize_module(module),
        stencil_regions=0,
    )
    rng = np.random.default_rng(11)
    data = rng.standard_normal((n, n))
    _assert_and_attach(
        benchmark, "backend-speedup", f"reduce-sum-{n}x{n}", (n, n), program,
        lambda: [data.copy(), np.zeros(1)], "kernel",
    )


@pytest.mark.benchmark(group="session-plan")
def test_session_plan_hotpath_speedup(benchmark):
    """plan.run() must beat the one-shot shim path on back-to-back runs.

    The serving scenario of the Session API: the same small-grid distributed
    program executed many times.  A held :class:`repro.core.Plan` has
    pre-resolved the kernel selection, function lookup, decomposition
    geometry, scatter/gather slice plans, interpreter block plans and the
    persistent rank threads, so each ``plan.run()`` does strictly less work
    than a ``run_distributed``-equivalent one-shot call.  Results must stay
    bit-identical with matching statistics (asserted here; the full
    {threads, processes} x {1, 2 threads_per_rank} parity matrix lives in
    tests/test_session_api.py).
    """
    steps, repeats, calls = 2, 3, 20
    workload = heat_diffusion((16, 16), space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 1)))

    def fields():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        return [u0, u0.copy()]

    def one_shot(arrays):
        # The shim-equivalent path: a fresh plan per call, legacy
        # thread-per-run discipline (exactly what run_distributed does,
        # minus its DeprecationWarning).
        return default_session().run(program, arrays, [steps])

    with Session() as session:
        plan = session.plan(program)
        shim_fields = fields()
        shim_result = one_shot(shim_fields)
        plan_fields = fields()
        plan_result = plan.run(plan_fields, [steps])
        for mine, theirs in zip(plan_fields, shim_fields):
            assert np.array_equal(mine, theirs), "plan diverged from the shim"
        assert plan_result.statistics == shim_result.statistics
        assert plan_result.comm_statistics == shim_result.comm_statistics

        shim_best = plan_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                one_shot(fields())
            shim_best = min(shim_best, (time.perf_counter() - start) / calls)
            start = time.perf_counter()
            for _ in range(calls):
                plan.run(fields(), [steps])
            plan_best = min(plan_best, (time.perf_counter() - start) / calls)

        def measured():
            return shim_best, plan_best

        benchmark(measured)
    speedup = shim_best / plan_best
    attach_rows(
        benchmark,
        "session-plan",
        [
            {
                "kernel": "session-plan-hotpath",
                "shape": [16, 16],
                "backend": "auto",
                "ranks": [2, 1],
                "threads_per_rank": 1,
                "timesteps": steps,
                "shim_s": shim_best,
                "plan_s": plan_best,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 1.3, (
        f"plan.run() hot path is only {speedup:.2f}x faster than the "
        "one-shot shim path on back-to-back runs (need >= 1.3x)"
    )


@pytest.mark.benchmark(group="backend-speedup")
def test_masked_tracer_kernel_speedup(benchmark):
    """merge()-masked PsyClone tracer kernels must vectorize end-to-end."""
    shape = (16, 16, 8)
    workload = masked_tracer_advection(shape, iterations=2, computations=6)
    module = workload.build_module(dtype=np.float64)
    program = compile_stencil_program(module, cpu_target())
    function = workload.schedule.name
    kernel = program.compiled_kernel(function)
    assert kernel.nest_count == 6, kernel.fallback_reasons
    arrays = workload.arrays(halo=1, dtype=np.float64, seed=29)
    names = workload.schedule.array_names()
    _assert_and_attach(
        benchmark, "backend-speedup", "traadv-masked", shape, program,
        lambda: [arrays[name].copy() for name in names], function,
        workload.iterations,
    )


@pytest.mark.benchmark(group="megakernel")
def test_megakernel_dispatch_speedup(benchmark):
    """The plan-compiled megakernel must beat plan.run() dispatch >= 2x.

    The dispatch-bound regime: a small grid (16x16) advanced for many
    timesteps, so per-step interpreter dispatch (block-plan replay, nest
    lookup, region resolution) dominates the arithmetic.  ``Plan.compile()``
    traces the time loop once and emits one straight-line fused Python
    function, so each ``plan.run()`` is a single call into compiled
    bytecode.  Results must stay bit-identical with matching statistics
    (asserted here; the full {threads, processes} x {1, 2 threads_per_rank}
    parity matrix lives in tests/test_megakernel.py).

    The generated kernel source is written to ``BENCH_megakernel_source.py``
    so the CI bench job can upload it as an inspectable artifact.
    """
    import pathlib

    steps, repeats, calls = 200, 3, 3
    shape = (16, 16)
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target())

    def fields():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        return [u0, u0.copy()]

    with Session(codegen="planned") as planned_session, \
            Session(codegen="megakernel") as mega_session:
        planned = planned_session.plan(program)
        mega = mega_session.plan(program)

        planned_fields = fields()
        planned_result = planned.run(planned_fields, [steps])
        mega_fields = fields()
        mega_result = mega.run(mega_fields, [steps])
        for mine, theirs in zip(mega_fields, planned_fields):
            assert np.array_equal(mine, theirs), (
                "megakernel diverged from the planned path"
            )
        assert mega_result.statistics == planned_result.statistics

        sources = [
            kernel.source
            for kernel in mega_session._megakernel_cache.values()
            if hasattr(kernel, "source")
        ]
        assert sources, "no megakernel was emitted"
        pathlib.Path("BENCH_megakernel_source.py").write_text(
            "\n\n".join(sources), encoding="utf-8"
        )

        planned_best = mega_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                planned.run(fields(), [steps])
            planned_best = min(planned_best, (time.perf_counter() - start) / calls)
            start = time.perf_counter()
            for _ in range(calls):
                mega.run(fields(), [steps])
            mega_best = min(mega_best, (time.perf_counter() - start) / calls)

        def measured():
            return planned_best, mega_best

        benchmark(measured)
    speedup = planned_best / mega_best
    attach_rows(
        benchmark,
        "megakernel",
        [
            {
                "kernel": "megakernel-dispatch",
                "shape": list(shape),
                "backend": "auto",
                "ranks": 1,
                "threads_per_rank": 1,
                "timesteps": steps,
                "planned_s": planned_best,
                "megakernel_s": mega_best,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 2.0, (
        f"megakernel is only {speedup:.2f}x faster than plan.run() dispatch "
        "in the small-grid/many-timestep regime (need >= 2.0x)"
    )


@pytest.mark.benchmark(group="megakernel")
def test_trace_overhead(benchmark):
    """Trace-off plan.run() must stay within 3% of the same run without hooks.

    Every observability hook of repro.obs is gated on ``tracer is None`` (or
    is a metrics-registry increment), and the megakernel emitter produces no
    span bookkeeping at all when the run is untraced.  The gate times
    plan.run() with tracing off against a replica of its local megakernel
    path with every hook site removed — same argument checks, same cache
    lookup key, same kernel call, same result object — so both sides pay
    identical fixed costs and the ratio (the median over back-to-back call
    pairs) measures the hooks alone, not the plan's dispatch or timer noise
    on a differently shaped call.
    """
    from repro.core import ExecutionResult
    from repro.interp.codegen import megakernel_signature
    from repro.interp.interpreter import ExecStatistics

    steps, rounds = 200, 40
    shape = (16, 16)
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target())

    def fields():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        return [u0, u0.copy()]

    with Session(codegen="megakernel", trace="off") as session:
        plan = session.plan(program)
        megakernel = plan._megakernel_for([*fields(), steps], rank=0, size=1)
        assert megakernel is not None
        # Untraced emission carries zero observability bookkeeping.
        assert "_tracer" not in megakernel.source

        def hook_free_run(run_fields, scalars):
            """plan.run()'s local megakernel path minus every hook site."""
            if plan.closed:
                raise AssertionError("plan closed")
            session._ensure_open()
            args = [*run_fields, *scalars]
            key = (
                program.fingerprint, plan.function, 0, 1,
                megakernel_signature(args), plan.overlap, False,
            )
            kernel = session._megakernel_cache[key]
            assert kernel.matches(args)
            stats = ExecStatistics()
            assert kernel.run(args, stats, None)
            plan.runs_completed += 1
            session.counters.runs_completed += 1
            return ExecutionResult(
                statistics=[stats], runtime="local",
                runtime_requested="local", threads_per_rank=1,
            )

        bare_fields = fields()
        bare = hook_free_run(bare_fields, [steps])
        plan_fields = fields()
        result = plan.run(plan_fields, [steps])
        assert result.statistics == bare.statistics
        for mine, theirs in zip(plan_fields, bare_fields):
            assert np.array_equal(mine, theirs), (
                "plan.run diverged from the hook-free replica"
            )

        # Back-to-back pairs in alternating order (ABBA).  On a shared runner
        # the machine's speed drifts by up to 2x between calls, so per-side
        # minima can come from different regimes; the two calls of one pair
        # see the same one.  The gate is the median of the per-pair ratios.
        ratios, bare_times, off_times = [], [], []
        for round_index in range(rounds):
            timed = {}
            order = ("bare", "off") if round_index % 2 == 0 else ("off", "bare")
            for side in order:
                run_fields = fields()
                start = time.perf_counter()
                if side == "bare":
                    hook_free_run(run_fields, [steps])
                else:
                    plan.run(run_fields, [steps])
                timed[side] = time.perf_counter() - start
            bare_times.append(timed["bare"])
            off_times.append(timed["off"])
            ratios.append(timed["bare"] / timed["off"])
        bare_best, off_best = min(bare_times), min(off_times)

        def measured():
            return bare_best, off_best

        benchmark(measured)
    speedup = float(np.median(ratios))
    attach_rows(
        benchmark,
        "megakernel",
        [
            {
                "kernel": "trace-overhead",
                "shape": list(shape),
                "backend": "auto",
                "ranks": 1,
                "threads_per_rank": 1,
                "timesteps": steps,
                "hook_free_s": bare_best,
                "trace_off_s": off_best,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 0.97, (
        f"trace-off plan.run() is {1 / speedup:.3f}x the same run with its "
        "hook sites removed (must stay within 3%)"
    )


def _ping_pong(comm, tag, round_trips, elements):
    """Module-level (workers unpickle it): rank 0's mean round trip, in s."""
    peer = 1 - comm.rank
    outgoing = np.ones(elements, dtype=np.float32)
    incoming = np.empty_like(outgoing)
    start = time.perf_counter()
    for _ in range(round_trips):
        if comm.rank == 0:
            comm.send(outgoing, peer, tag)
            comm.recv(incoming, peer, tag)
        else:
            comm.recv(incoming, peer, tag)
            comm.send(incoming, peer, tag)
    return (time.perf_counter() - start) / round_trips


@pytest.mark.benchmark(group="halo-transport")
def test_halo_channel_latency(benchmark):
    """A halo-tag round trip through the shared-memory channel must beat the
    same round trip on a collective-range tag (the queue) >= 3x.

    Both sides run in the same two worker processes through one
    ``ProcessRankCommunicator`` each, with a 1 KiB float32 strip (a
    ``wave2d-2proc`` halo message).  The gate is the median over
    back-to-back pairs in alternating order (ABBA) of queue time / channel
    time, so machine-speed drift between pairs cancels.
    """
    from repro.interp.mpi_runtime import _COLLECTIVE_TAG_BASE
    from repro.runtime import processes_available
    from repro.runtime.worker_pool import PoolManager

    if not processes_available():
        pytest.skip("process runtime unavailable on this platform")
    pairs, round_trips, elements = 10, 200, 256
    tags = {"channel": 0, "queue": _COLLECTIVE_TAG_BASE}
    manager = PoolManager()
    try:
        def round_trip(side):
            values, stats = manager.run_spmd(
                _ping_pong, 2, (tags[side], round_trips, elements), 60.0)
            channelled = sum(s.channel_messages for s in stats)
            assert channelled == (2 * round_trips if side == "channel" else 0)
            return values[0]

        round_trip("channel")  # spawn the pool and warm both paths
        round_trip("queue")
        ratios, channel_times, queue_times = [], [], []
        for pair in range(pairs):
            timed = {}
            order = ("channel", "queue") if pair % 2 == 0 else ("queue", "channel")
            for side in order:
                timed[side] = round_trip(side)
            channel_times.append(timed["channel"])
            queue_times.append(timed["queue"])
            ratios.append(timed["queue"] / timed["channel"])
    finally:
        manager.shutdown()
    channel_us = float(np.median(channel_times)) * 1e6
    queue_us = float(np.median(queue_times)) * 1e6

    def measured():
        return channel_us, queue_us

    benchmark(measured)
    speedup = float(np.median(ratios))
    attach_rows(
        benchmark,
        "halo-transport",
        [
            {
                "kernel": "halo-channel-latency",
                "bytes": elements * 4,
                "ranks": 2,
                "threads_per_rank": 1,
                "channel_round_trip_us": channel_us,
                "queue_round_trip_us": queue_us,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 3.0, (
        f"a halo-channel round trip ({channel_us:.1f} us) is only "
        f"{speedup:.2f}x faster than a queue round trip ({queue_us:.1f} us); "
        "need >= 3x"
    )
