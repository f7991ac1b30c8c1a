"""Bit-identity and fallback tests for the plan-compiled megakernel path.

The megakernel codegen layer (repro.interp.codegen) traces a plan's time
loop once and emits a single fused Python function.  These tests pin its
contract: the generated function is *bit-identical* to the PlannedOp
interpreter path — fields, ExecStatistics and CommStatistics — across the
{threads, processes} x {1, 2 threads_per_rank} matrix, and every rejection
(trace-time or emit-time) carries an explicit fallback reason string.
"""

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    ExecutionError,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.interp import CodegenError, CodegenFallback, trace_program
from repro.runtime import processes_available, shutdown_worker_pool
from repro.workloads import heat_diffusion
from tests.conftest import build_jacobi_module

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


def _compile_heat(rank_grid, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, dmp_target(rank_grid))


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1,
       shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return [u0, u0.copy()]


# ---------------------------------------------------------------------------
# ExecutionConfig validation
# ---------------------------------------------------------------------------

class TestCodegenConfig:
    def test_default_is_auto(self):
        assert ExecutionConfig().codegen == "auto"

    @pytest.mark.parametrize("value", ["jit", "fused", 1, None])
    def test_unknown_codegen_mode(self, value):
        with pytest.raises(ExecutionError, match="unknown codegen mode"):
            ExecutionConfig(codegen=value)

    def test_megakernel_conflicts_with_interpreter_backend(self):
        with pytest.raises(ExecutionError, match="megakernel.*interpreter"):
            ExecutionConfig(codegen="megakernel", backend="interpreter")

    def test_auto_with_interpreter_backend_is_fine(self):
        config = ExecutionConfig(backend="interpreter")
        assert config.codegen == "auto"


# ---------------------------------------------------------------------------
# bit-identity vs the planned-op path
# ---------------------------------------------------------------------------

PARITY_CELLS = [
    ("threads", 1), ("threads", 2),
    pytest.param("processes", 1, marks=needs_processes),
    pytest.param("processes", 2, marks=needs_processes),
]


@pytest.mark.parametrize("runtime,threads_per_rank", PARITY_CELLS)
def test_megakernel_matches_planned_bit_identically(runtime, threads_per_rank):
    """Forced megakernel == planned path: fields and both statistics."""
    program = _compile_heat((2, 2))
    base_fields = _heat_fields()
    with Session(
        runtime=runtime, threads_per_rank=threads_per_rank, codegen="planned"
    ) as session:
        baseline = session.plan(program).run(base_fields, [3])
    with Session(
        runtime=runtime, threads_per_rank=threads_per_rank, codegen="megakernel"
    ) as session:
        plan = session.plan(program)
        for repeat in range(3):  # repeated runs reuse the kernel and must agree
            fields = _heat_fields()
            result = plan.run(fields, [3])
            for mine, theirs in zip(fields, base_fields):
                assert np.array_equal(mine, theirs), (
                    f"{runtime} x{threads_per_rank} repeat {repeat}: "
                    "megakernel fields diverged from the planned path"
                )
            assert result.statistics == baseline.statistics
            assert result.comm_statistics == baseline.comm_statistics
        if runtime == "threads":
            assert plan._trace is not None
            assert plan.codegen_fallback is None


@needs_processes
@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "blocking"])
@pytest.mark.parametrize("codegen", ["planned", "megakernel"])
def test_overlap_setting_means_the_same_in_both_worlds(codegen, overlap):
    """overlap_halos: processes == threads, fields and both statistics."""
    program = _compile_heat((2, 1))
    runs = {}
    for runtime in ("threads", "processes"):
        fields = _heat_fields()
        with Session(
            runtime=runtime, codegen=codegen, overlap_halos=overlap
        ) as session:
            runs[runtime] = (fields, session.plan(program).run(fields, [5]))
    (thread_fields, threads), (process_fields, processes) = (
        runs["threads"], runs["processes"]
    )
    for mine, theirs in zip(process_fields, thread_fields):
        assert np.array_equal(mine, theirs)
    assert processes.statistics == threads.statistics
    assert processes.comm_statistics == threads.comm_statistics
    overlapped = [stats.halo_swaps_overlapped for stats in processes.statistics]
    if overlap:
        assert all(count > 0 for count in overlapped)
    else:
        assert overlapped == [0, 0]


@needs_processes
def test_process_workers_report_megakernel_engagement():
    """megakernel.engaged counts process ranks exactly like thread ranks."""
    program = _compile_heat((2, 1))
    counts = {}
    for runtime in ("threads", "processes"):
        with Session(runtime=runtime) as session:
            plan = session.plan(program)
            for _ in range(2):
                plan.run(_heat_fields(), [3])
            counts[runtime] = (
                session.metrics.get("megakernel.engaged"),
                session.metrics.get("megakernel.fallback"),
            )
    assert counts["processes"] == counts["threads"] == (4, 0)

    from repro.serve import Server

    with Server(ExecutionConfig(runtime="processes"), max_batch=4) as server:
        handles = [server.submit(program, _heat_fields(), [3]) for _ in range(2)]
        for handle in handles:
            handle.result(timeout=60.0)
        assert server.session.metrics.get("megakernel.engaged") == 4
        assert server.session.metrics.get("megakernel.fallback") == 0


def test_megakernel_local_matches_planned():
    program = compile_stencil_program(build_jacobi_module(), cpu_target())
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    a1, b1 = data.copy(), data.copy()
    with Session(codegen="planned") as session:
        baseline = session.plan(program).run([a1, b1], [4])
    a2, b2 = data.copy(), data.copy()
    with Session(codegen="megakernel") as session:
        result = session.plan(program).run([a2, b2], [4])
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert result.statistics == baseline.statistics


def test_auto_codegen_engages_and_caches_per_rank():
    """Held distributed plans engage codegen by default and cache per rank."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads") as session:
        plan = session.plan(program)
        assert plan._codegen_active and plan._trace is not None
        fields = _heat_fields()
        plan.run(fields, [3])
        assert plan.codegen_fallback is None
        # one emitted kernel per rank of the 2x2 grid, keyed by fingerprint
        assert len(session._megakernel_cache) == 4
        keys = list(session._megakernel_cache)
        assert all(key[0] == program.fingerprint for key in keys)
        # a second run re-uses the cache instead of re-emitting
        plan.run(_heat_fields(), [3])
        assert len(session._megakernel_cache) == 4


def test_auto_codegen_skips_thread_teams():
    """auto only engages on the flat threads_per_rank == 1 configuration."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads", threads_per_rank=2) as session:
        plan = session.plan(program)
        assert not plan._codegen_active
        assert plan.codegen_fallback is None  # a gate, not a compile failure


def test_generated_source_is_inspectable():
    """The emitted kernel keeps its python source for dumps and artifacts."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads", codegen="megakernel") as session:
        plan = session.plan(program)
        plan.run(_heat_fields(), [2])
        kernels = list(session._megakernel_cache.values())
        assert kernels and all(not isinstance(k, CodegenFallback) for k in kernels)
        for kernel in kernels:
            assert "def " in kernel.source
            assert kernel.label


# ---------------------------------------------------------------------------
# every rejection carries a reason string
# ---------------------------------------------------------------------------

def test_trace_rejection_records_reason():
    """auto mode on an untraceable plan records a CodegenFallback with why."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads", backend="interpreter") as session:
        plan = session.plan(program)
        assert not plan._codegen_active  # interpreter backend is gated out
        assert plan.compile() is None  # explicit tracing records the reason
        fallback = plan.codegen_fallback
        assert isinstance(fallback, CodegenFallback)
        assert fallback.reason and "kernel" in fallback.reason
        assert str(fallback) == f"{plan.function}: {fallback.reason}"


def test_emit_rejection_records_reason_and_falls_back():
    """Aliased field buffers cannot be emitted; the reason is recorded and
    the run transparently falls back to the planned path."""
    program = compile_stencil_program(build_jacobi_module(), cpu_target())
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    shared = data.copy()
    with Session() as session:  # codegen="auto"
        plan = session.plan(program)
        assert plan._codegen_active
        result = plan.run([shared, shared], [2])  # aliased in/out buffers
        assert result is not None  # planned path still ran
        fallback = plan.codegen_fallback
        assert isinstance(fallback, CodegenFallback)
        assert fallback.reason and "alias" in fallback.reason
        assert not plan._codegen_active


def test_forced_megakernel_raises_with_reason():
    """codegen='megakernel' refuses to fall back silently."""
    program = compile_stencil_program(build_jacobi_module(), cpu_target())
    data = np.zeros(10)
    shared = data.copy()
    with Session(codegen="megakernel") as session:
        plan = session.plan(program)
        with pytest.raises(ExecutionError, match="cannot be emitted.*alias"):
            plan.run([shared, shared], [2])


def test_trace_program_error_messages_are_specific():
    """trace_program raises CodegenError with a non-empty reason, never a
    bare failure."""
    program = _compile_heat((2, 2))
    func_op = program.module  # a module is not a traceable function
    kernel = object()
    with pytest.raises(CodegenError) as excinfo:
        trace_program(func_op, kernel)
    assert str(excinfo.value)
