"""Footprint-exact ``dmp.swap`` insertion.

``distribute_stencil`` sizes each swap from the access offsets of the
``stencil.apply`` operations consuming its load: a load read only at offset
zero gets no swap, and each decomposed axis exchanges only the depth its
consumers read.  Every engine follows from the IR, so the tree walker, the
planned ops and the megakernel — in both worlds, with and without overlap —
stay bit-identical, with exactly the lowered message counts.
"""

import numpy as np
import pytest

from repro.core import (
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.dialects import dmp, stencil
from repro.dialects.builtin import UnrealizedConversionCastOp
from repro.frontends.oec import StencilProgramBuilder
from repro.ir.core import Operation
from repro.runtime import processes_available, shutdown_worker_pool
from repro.transforms.distribute import (
    DecompositionError,
    GridSlicingStrategy,
    distribute_stencil,
)
from repro.transforms.stencil import infer_shapes
from repro.workloads import acoustic_wave, heat_diffusion

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


def _devito_module(workload_fn, shape, space_order):
    workload = workload_fn(shape, space_order, dtype=np.float64)
    return workload.operator(backend="xdsl").stencil_module(dt=workload.dt)


def _swap_before(load):
    """The dmp.swap inserted in front of ``load``, or None."""
    previous = load.parent_block.ops
    index = previous.index(load)
    candidate = previous[index - 1] if index else None
    if isinstance(candidate, dmp.SwapOp):
        cast = candidate.data.owner
        assert isinstance(cast, UnrealizedConversionCastOp)
        assert cast.input is load.field
        return candidate
    return None


class _Opaque(Operation):
    """A use of a stencil operand that the footprint analysis cannot read."""

    name = "test.opaque"


def _read_offsets(load):
    """Every access offset the consumers of ``load`` use on it."""
    offsets = []
    for use in load.result.uses:
        offsets.extend(use.operation.access_offsets().get(use.index, []))
    return offsets


# ---------------------------------------------------------------------------
# compiler: which loads get which exchanges
# ---------------------------------------------------------------------------

def test_wave_previous_time_level_gets_no_swap():
    """Wave so4 reads u[t-1] only at offset 0: that load is not swapped."""
    module = _devito_module(acoustic_wave, (16, 16), 4)
    infer_shapes(module)
    summary = distribute_stencil(module, GridSlicingStrategy((2, 1)))
    assert (summary.swaps_inserted, summary.swaps_elided) == (1, 1)
    loads = [op for op in module.walk() if isinstance(op, stencil.LoadOp)]
    assert len(loads) == 2
    for load in loads:
        swap = _swap_before(load)
        offsets = _read_offsets(load)
        if all(not any(offset) for offset in offsets):
            assert swap is None  # u[t-1]: core-only read
        else:
            assert swap is not None
            assert [exchange.size for exchange in swap.swaps] == [(2, 16), (2, 16)]
    # Per rank and swap: two faces of 2 x 16 elements.
    assert summary.halo_elements == 2 * 2 * 16


def _two_axis_program(shape=(16, 16)):
    """``a`` read at +-2 on axis 0 only, ``b`` at +-1 on axis 1 only."""
    builder = StencilProgramBuilder("kernel", shape=shape, halo=2, dtype="f64")
    a, b = builder.add_field("a"), builder.add_field("b")
    c, d = builder.add_field("c"), builder.add_field("d")

    def axis0(e):
        return e.add(e.add(e.access(0, [-2, 0]), e.access(0, [2, 0])),
                     e.mul(e.constant(0.5), e.access(0, [0, 0])))

    def axis1(e):
        return e.add(e.access(0, [0, -1]), e.access(0, [0, 1]))

    builder.add_stencil([a], c, axis0)
    builder.add_stencil([b], d, axis1)
    builder.swap(a, c)
    builder.swap(b, d)
    return builder.build()


def _exchanges_by_field(module):
    """Kernel argument index -> exchanges of the swap before its load."""
    kernel_loop = next(op for op in module.walk() if op.name == "scf.for")
    result = {}
    for op in module.walk():
        if isinstance(op, stencil.LoadOp):
            argument = kernel_loop.body.block.args.index(op.field) - 1
            swap = _swap_before(op)
            result[argument] = [] if swap is None else swap.swaps
    return result


def test_per_axis_depths_under_a_1d_grid():
    """Under (2, 1) only axis 0 is decomposed: ``a`` gets width-2 faces, ``b``
    (read along the undecomposed axis only) gets no swap."""
    module = _two_axis_program()
    infer_shapes(module)
    summary = distribute_stencil(module, GridSlicingStrategy((2, 1)))
    domain = summary.local_domain
    assert domain.core_shape == (8, 16)
    assert (domain.halo_lower, domain.halo_upper) == ((2, 1), (2, 1))
    exchanges = _exchanges_by_field(module)
    assert [str(e) for e in exchanges[0]] == [
        "#dmp.exchange<at [0, 1] size [2, 16] source offset [2, 0] to [-1, 0]>",
        "#dmp.exchange<at [10, 1] size [2, 16] source offset [-2, 0] to [1, 0]>",
    ]
    assert exchanges[1] == []
    assert (summary.swaps_inserted, summary.swaps_elided) == (1, 1)
    assert summary.halo_elements == 2 * 2 * 16


def test_per_axis_depths_under_a_2d_grid():
    """Under (2, 2) each field exchanges exactly along the axis it reads."""
    module = _two_axis_program()
    infer_shapes(module)
    summary = distribute_stencil(module, GridSlicingStrategy((2, 2)))
    exchanges = _exchanges_by_field(module)
    assert [str(e) for e in exchanges[0]] == [
        "#dmp.exchange<at [0, 1] size [2, 8] source offset [2, 0] to [-1, 0]>",
        "#dmp.exchange<at [10, 1] size [2, 8] source offset [-2, 0] to [1, 0]>",
    ]
    assert [str(e) for e in exchanges[1]] == [
        "#dmp.exchange<at [2, 0] size [8, 1] source offset [0, 1] to [0, -1]>",
        "#dmp.exchange<at [2, 9] size [8, 1] source offset [0, -1] to [0, 1]>",
    ]
    assert (summary.swaps_inserted, summary.swaps_elided) == (2, 0)
    assert summary.halo_elements == 2 * 2 * 8 + 2 * 8


def test_two_axis_program_runs_like_the_local_one():
    """The trimmed exchanges still deliver every cell the stencils read."""
    rng = np.random.default_rng(11)
    initial = [rng.random((20, 20)) for _ in range(4)]
    local = [array.copy() for array in initial]
    with Session(runtime="threads") as session:
        session.plan(compile_stencil_program(_two_axis_program(), cpu_target())
                     ).run(local, [3])
        for grid in ((2, 1), (2, 2)):
            fields = [array.copy() for array in initial]
            program = compile_stencil_program(_two_axis_program(), dmp_target(grid))
            session.plan(program, margin=(2, 2)).run(fields, [3])
            for mine, theirs in zip(fields, local):
                core = (slice(2, 18), slice(2, 18))
                assert np.array_equal(mine[core], theirs[core]), grid


def test_non_apply_consumer_keeps_full_exchanges():
    """A load whose operand is used by anything but stencil.access is not
    trimmed: the pass cannot see what it reads."""
    module = _devito_module(heat_diffusion, (16, 16), 2)
    infer_shapes(module)
    load = next(op for op in module.walk() if isinstance(op, stencil.LoadOp))
    apply_op = next(use.operation for use in load.result.uses)
    block = apply_op.body.block
    block.insert_op_before(_Opaque(operands=[apply_op.region_args[0]]), block.ops[0])
    summary = distribute_stencil(module, GridSlicingStrategy((2, 1)))
    swap = _swap_before(load)
    assert swap is not None
    domain = summary.local_domain
    assert [exchange.size[0] for exchange in swap.swaps] == [
        domain.halo_lower[0], domain.halo_upper[0]]


def test_one_sided_halo_on_a_decomposed_axis_is_rejected():
    """``u`` read at -1 and 0 only: the local halo is (1,) below, (0,) above.
    An exchange moves one depth both ways, so the upper exchange that
    partners the neighbour's lower one would receive outside the buffer:
    the pass refuses it instead of building that IR."""
    builder = StencilProgramBuilder("kernel", shape=(8,), halo=1, dtype="f64")
    u, v = builder.add_field("u"), builder.add_field("v")
    builder.add_stencil([u], v, lambda e: e.add(e.access(0, [-1]), e.access(0, [0])))
    builder.swap(u, v)
    module = builder.build()
    with pytest.raises(DecompositionError, match=r"lower \[1\], upper \[0\]"):
        distribute_stencil(module, GridSlicingStrategy((2,)))


@pytest.mark.parametrize("grid", [(1, 1), (1,)])
def test_single_rank_grid_carries_no_swap(grid):
    module = _devito_module(heat_diffusion, (16, 16), 2)
    program = compile_stencil_program(module, dmp_target(grid))
    assert program.distribution.swaps_inserted == 0
    assert program.distribution.swaps_elided == 1
    assert program.distribution.halo_elements == 0
    assert not any(op.name == "dmp.swap" for op in program.module.walk())
    fields = [np.zeros((18, 18)), np.zeros((18, 18))]
    fields[0][8:10, 8:10] = 1.0
    fields[1][...] = fields[0]
    with Session(runtime="threads") as session:
        result = session.plan(program).run(fields, [3])
    assert all(stats.halo_swaps == 0 for stats in result.statistics)
    assert result.comm_statistics.messages_sent == 0


# ---------------------------------------------------------------------------
# engines: bit-identity with exact message counts
# ---------------------------------------------------------------------------

STEPS = 4


def _wave_case():
    module = _devito_module(acoustic_wave, (24, 24), 4)
    program = compile_stencil_program(module, dmp_target((2, 1)))
    rng = np.random.default_rng(3)
    initial = [rng.random((28, 28)) for _ in range(3)]
    # 2 ranks x 1 swap x 1 face per step (was 4 with the u[t-1] swap).
    return program, initial, 2 * STEPS


def _heat_case():
    module = _devito_module(heat_diffusion, (16, 16), 2)
    program = compile_stencil_program(module, dmp_target((2, 2)))
    rng = np.random.default_rng(4)
    initial = [rng.random((18, 18)) for _ in range(2)]
    # 4 ranks x 2 faces per step; the heat program has no core-only load.
    return program, initial, 8 * STEPS


CASES = {"wave-2x1": _wave_case, "heat-2x2": _heat_case}
RUNTIMES = ["threads", pytest.param("processes", marks=needs_processes)]


def _halo_counters(stats):
    return [(s.halo_swaps, s.halo_elements_exchanged, s.mpi_messages)
            for s in stats]


def _runs(program, initial, runtime):
    """{(codegen, overlap): (fields, result)} over the engine matrix."""
    runs = {}
    with Session(runtime=runtime) as session:
        for codegen in ("planned", "megakernel"):
            for overlap in (True, False):
                fields = [array.copy() for array in initial]
                result = session.plan(
                    program, codegen=codegen, overlap_halos=overlap
                ).run(fields, [STEPS])
                runs[codegen, overlap] = fields, result
    return runs


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_engines_match_the_tree_walker(case, runtime):
    """Fields and CommStatistics equal the tree walker's; ExecStatistics
    equal the thread world's planned path at the same overlap setting (the
    walker counts per-cell ops, so only its halo counters compare)."""
    program, initial, messages = CASES[case]()
    oracle_fields = [array.copy() for array in initial]
    with Session(runtime="threads", backend="interpreter") as session:
        oracle = session.plan(program).run(oracle_fields, [STEPS])
    assert oracle.comm_statistics.messages_sent == messages
    reference = _runs(program, initial, "threads")
    runs = reference if runtime == "threads" else _runs(program, initial, runtime)
    for (codegen, overlap), (fields, result) in runs.items():
        label = f"{case} {runtime} {codegen} overlap={overlap}"
        for mine, theirs in zip(fields, oracle_fields):
            assert np.array_equal(mine, theirs), label
        assert result.comm_statistics == oracle.comm_statistics, label
        assert (_halo_counters(result.statistics)
                == _halo_counters(oracle.statistics)), label
        assert result.statistics == reference["planned", overlap][1].statistics, label
        overlapped = [s.halo_swaps_overlapped for s in result.statistics]
        if overlap:
            assert all(count > 0 for count in overlapped), label
        else:
            assert not any(overlapped), label
        if runtime == "processes":
            assert result.comm_statistics.channel_messages == messages, label
