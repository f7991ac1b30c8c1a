"""Tests for the hybrid MPI+OpenMP runtime: thread teams, halo/compute
overlap, and shared-memory copy elision.

The contract: executing with ``threads_per_rank=N`` is *bit-identical* to the
flat ``runtime="threads"`` run for every workload — fields,
``ExecStatistics`` (including the new overlap counter) and the compared part
of ``CommStatistics`` all match — across the heat, wave and masked-tracer
workloads; overlap defers every eligible halo completion past interior
compute; and the process runtime's field buffers live in pooled
shared-memory blocks that are reused across runs.
"""

import numpy as np
import pytest

from repro.core import (
    ExecutionError,
    compile_stencil_program,
    default_session,
    dmp_target,
)


def _run(program, fields, scalars, **config):
    """Execute through the Session API (default session, one-shot plans)."""
    return default_session().run(program, fields, scalars, **config)
from repro.interp import Interpreter, SimulatedMPI
from repro.interp.thread_team import get_thread_team, split_trip_counts
from repro.runtime import processes_available, shutdown_worker_pool
from repro.workloads import acoustic_wave, heat_diffusion, masked_tracer_advection

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


# ---------------------------------------------------------------------------
# workload harnesses: (program, fields(), scalars) triples
# ---------------------------------------------------------------------------

def _devito_case(workload_fn, shape, rank_grid, steps, **kwargs):
    workload = workload_fn(shape, dtype=np.float64, **kwargs)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target(rank_grid))
    halo = workload.space_order // 2

    def fields():
        extended = tuple(s + 2 * halo for s in shape)
        base = np.zeros(extended)
        centre = tuple(s // 2 for s in extended)
        base[centre] = 1.0
        buffers = workload.function.buffers
        return [base.copy() for _ in range(buffers)]

    return program, fields, [steps], "kernel"


def _tracer_case(shape, rank_grid, steps):
    workload = masked_tracer_advection(shape, iterations=steps, computations=4)
    module = workload.build_module(dtype=np.float64)
    program = compile_stencil_program(module, dmp_target(rank_grid))
    names = workload.schedule.array_names()
    arrays = workload.arrays(halo=1, dtype=np.float64, seed=23)

    def fields():
        return [arrays[name].copy() for name in names]

    return program, fields, [steps], workload.schedule.name


def _cases():
    return {
        "heat": _devito_case(heat_diffusion, (24, 24), (2, 2), 3, space_order=2),
        "wave": _devito_case(acoustic_wave, (24, 24), (2, 1), 3, space_order=4),
        "traadv-masked": _tracer_case((10, 10, 6), (2, 1, 1), 2),
    }


CASES = _cases()


# ---------------------------------------------------------------------------
# hybrid parity (satellite: heat, wave, masked tracer; incl. CommStatistics)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_hybrid_thread_world_parity(name):
    """threads_per_rank > 1 in the thread world is bit-identical to flat."""
    program, fields, scalars, function = CASES[name]
    flat = fields()
    reference = _run(
        program, flat, scalars, function=function, runtime="threads"
    )
    hybrid_fields = fields()
    hybrid = _run(
        program, hybrid_fields, scalars, function=function,
        runtime="threads", threads_per_rank=2,
    )
    for a, b in zip(flat, hybrid_fields):
        assert np.array_equal(a, b), f"{name}: hybrid fields diverged"
    assert hybrid.statistics == reference.statistics
    assert hybrid.comm_statistics == reference.comm_statistics
    assert hybrid.comm_statistics.messages_sent == reference.messages_sent > 0
    assert hybrid.threads_per_rank == 2


@needs_processes
@pytest.mark.parametrize("name", sorted(CASES))
def test_hybrid_process_world_parity(name):
    """2 ranks x 2 threads under processes matches flat runtime="threads"."""
    program, fields, scalars, function = CASES[name]
    flat = fields()
    reference = _run(
        program, flat, scalars, function=function, runtime="threads"
    )
    hybrid_fields = fields()
    hybrid = _run(
        program, hybrid_fields, scalars, function=function,
        runtime="processes", threads_per_rank=2,
    )
    assert hybrid.runtime == "processes"
    for a, b in zip(flat, hybrid_fields):
        assert np.array_equal(a, b), f"{name}: hybrid fields diverged"
    assert hybrid.statistics == reference.statistics
    assert hybrid.comm_statistics == reference.comm_statistics
    assert hybrid.comm_statistics.messages_sent == reference.messages_sent > 0


def test_threads_per_rank_validation():
    program, fields, scalars, function = CASES["heat"]
    with pytest.raises(ExecutionError, match="threads_per_rank"):
        _run(
            program, fields(), scalars, function=function, threads_per_rank=0
        )


# ---------------------------------------------------------------------------
# halo/compute overlap
# ---------------------------------------------------------------------------

def test_overlap_defers_every_eligible_swap():
    """On the vectorized heat kernel, every halo swap overlaps with compute."""
    program, fields, scalars, function = CASES["heat"]
    result = _run(
        program, fields(), scalars, function=function, runtime="threads"
    )
    for stats in result.statistics:
        assert stats.halo_swaps > 0
        assert stats.halo_swaps_overlapped == stats.halo_swaps


def test_overlap_fires_on_the_omp_multi_field_path():
    """Regression: the PsyClone/omp tracer path must overlap, not force-complete.

    ``omp.barrier`` (a pure counter) and unrelated back-to-back ``dmp.swap``s
    used to complete every pending halo, leaving the overlap inert on
    multi-field kernels.  The swaps that stayed blocking (their consumer
    stores into the swapped buffer) read only the core, so footprint-exact
    distribution no longer inserts them: every remaining swap overlaps.
    """
    program, fields, scalars, function = CASES["traadv-masked"]
    result = _run(
        program, fields(), scalars, function=function, runtime="threads"
    )
    for stats in result.statistics:
        assert stats.halo_swaps == stats.halo_swaps_overlapped > 0


def test_overlap_disabled_is_bit_identical():
    """The blocking discipline (overlap_halos=False) writes the same bytes."""
    program, fields, scalars, function = CASES["heat"]
    overlapped = fields()
    _run(program, overlapped, scalars, function=function)

    blocking = fields()
    size = 4
    world = SimulatedMPI(size, timeout=60.0)
    from repro.core.executor import gather_field, scatter_field
    from repro.transforms.distribute import GridSlicingStrategy

    strategy = GridSlicingStrategy(program.target.rank_grid)
    domain = program.distribution.local_domain
    halo_lower, halo_upper = domain.halo_lower, domain.halo_upper
    local = [
        [
            scatter_field(field, strategy, rank, halo_lower, halo_upper, halo_lower)
            for field in blocking
        ]
        for rank in range(size)
    ]
    kernel = program.compiled_kernel(function)

    def body(comm):
        interpreter = Interpreter(
            program.module, comm=comm, kernel=kernel, overlap_halos=False
        )
        interpreter.call(function, *local[comm.rank], *scalars)
        assert interpreter.stats.halo_swaps_overlapped == 0

    world.run_spmd(body, timeout=60.0)
    for rank in range(size):
        for global_array, local_array in zip(blocking, local[rank]):
            gather_field(
                global_array, local_array, strategy, rank,
                halo_lower, halo_upper, halo_lower,
            )
    for a, b in zip(overlapped, blocking):
        assert np.array_equal(a, b)


def test_overlap_interpreter_backend_still_blocks():
    """The tree walker (backend="interpreter") completes halos before cells."""
    program, fields, scalars, function = CASES["heat"]
    vectorized = fields()
    reference = _run(
        program, vectorized, scalars, function=function, backend="auto"
    )
    walked = fields()
    walked_result = _run(
        program, walked, scalars, function=function, backend="interpreter"
    )
    for a, b in zip(vectorized, walked):
        assert np.array_equal(a, b)
    # The walker never overlaps (it reads cells one by one)...
    assert all(s.halo_swaps_overlapped == 0 for s in walked_result.statistics)
    # ...while the vectorized backend overlaps every swap of this kernel.
    assert all(
        s.halo_swaps_overlapped == s.halo_swaps for s in reference.statistics
    )


# ---------------------------------------------------------------------------
# shared-memory copy elision
# ---------------------------------------------------------------------------

@needs_processes
def test_copy_elision_and_block_reuse():
    program, fields, scalars, function = CASES["heat"]
    shutdown_worker_pool()  # start from an empty block pool
    first = _run(
        program, fields(), scalars, function=function, runtime="processes"
    )
    field_bytes = sum(array.nbytes for array in fields())
    # Two memcpys per field per rank were elided (scatter-in and gather-out
    # staging); the total must cover at least the global payload once.
    assert first.comm_statistics.bytes_elided > field_bytes
    assert first.comm_statistics.shared_blocks_reused == 0

    second = _run(
        program, fields(), scalars, function=function, runtime="processes"
    )
    # 4 ranks x 2 fields: every block of the repeated run is recycled.
    assert second.comm_statistics.shared_blocks_reused == 8
    # The elision fields are runtime metadata: they must not break the
    # thread/process statistics parity contract.
    assert second.comm_statistics == first.comm_statistics


# ---------------------------------------------------------------------------
# thread team mechanics
# ---------------------------------------------------------------------------

def test_split_trip_counts_partitions_exactly():
    for trips in (1, 2, 3, 7, 16, 1000):
        for parts in (1, 2, 3, 8):
            spans = split_trip_counts(trips, parts)
            assert spans[0][0] == 0 and spans[-1][1] == trips
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end == start
            assert len(spans) == min(parts, trips)
            sizes = [end - start for start, end in spans]
            assert max(sizes) - min(sizes) <= 1


def test_thread_teams_are_cached_per_size():
    assert get_thread_team(1) is None
    team = get_thread_team(2)
    assert team is not None and team.size == 2
    assert get_thread_team(2) is team
    assert get_thread_team(3) is not team


@needs_processes
def test_teams_survive_fork_into_workers():
    """Regression: a warm parent team must not deadlock forked workers.

    Only the forking thread survives a fork, so a worker inheriting the
    parent's ThreadPoolExecutor would block forever on its first map.  The
    cache is cleared in the child (os.register_at_fork), so the hybrid
    process run below must finish — before the fix it hung until the pool's
    collect deadline.
    """
    shape = (96, 96)  # big enough that the team path engages (>= 4096 cells)
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 1)))

    def fields():
        base = np.zeros(tuple(s + 2 for s in shape))
        base[48, 48] = 1.0
        return [base.copy(), base.copy()]

    # Warm the parent's 2-thread team first...
    warm = fields()
    _run(program, warm, [2], runtime="threads", threads_per_rank=2)
    # ...then fork workers that need their own 2-thread teams.
    forked = fields()
    result = _run(
        program, forked, [2], runtime="processes", threads_per_rank=2,
        timeout=60.0,
    )
    assert result.runtime == "processes"
    for a, b in zip(warm, forked):
        assert np.array_equal(a, b)


def test_plan_overlap_defers_unrelated_nest():
    """A nest not touching the swapped array leaves its halos in flight."""
    from repro.dialects import arith, builtin, func, memref, scf
    from repro.interp.interpreter import PendingHalo, _HaloReceive
    from repro.interp.vectorize import compile_kernel
    from repro.ir import Builder, FunctionType, MemRefType, f64

    kernel = func.FuncOp(
        "kernel", FunctionType([MemRefType([8, 8], f64), MemRefType([8, 8], f64)], [])
    )
    u, v = kernel.args
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    one = b.insert(arith.ConstantOp.from_int(1)).result
    extent = b.insert(arith.ConstantOp.from_int(8)).result
    loop = scf.ParallelOp([zero, zero], [extent, extent], [one, one])
    inner = Builder.at_end(loop.body.block)
    i, j = loop.induction_variables
    value = inner.insert(memref.LoadOp(u, [i, j])).result
    inner.insert(memref.StoreOp(value, v, [i, j]))
    b.insert(loop)
    b.insert(func.ReturnOp([]))
    module = builtin.ModuleOp([kernel])

    compiled = compile_kernel(module, "kernel")
    nest = next(iter(compiled.nests.values()))
    interp = Interpreter(module)
    u_array = np.arange(64, dtype=np.float64).reshape(8, 8)
    v_array = np.zeros((8, 8))
    from repro.interp.values import MemRefValue

    env = {u: MemRefValue(u_array), v: MemRefValue(v_array)}
    dims = nest._concrete_dims(env, nest.bounds)
    resolved = nest._resolve_regions(interp, env, dims)

    box = (slice(0, 1), slice(0, 8))
    unrelated = np.zeros((8, 8))
    halo_unrelated = PendingHalo(
        unrelated, [_HaloReceive(None, None, box, 8, 0)]
    )
    assert nest._plan_overlap(env, dims, resolved, [halo_unrelated]) == "defer"

    # The same box on the *loaded* array constrains the interior instead.
    halo_related = PendingHalo(u_array, [_HaloReceive(None, None, box, 8, 0)])
    plan = nest._plan_overlap(env, dims, resolved, [halo_related])
    assert plan != "defer" and plan is not None
    interior, strips = plan
    assert interior[0] == (1, 8, 1) and len(strips) == 1

    # And a box on the *stored* array is unprovable: blocking fallback.
    halo_store = PendingHalo(v_array, [_HaloReceive(None, None, box, 8, 0)])
    assert nest._plan_overlap(env, dims, resolved, [halo_store]) is None
