"""Scratch-register emission of the megakernel: bit-identity and allocation.

The emitter keeps full-box values of known dtype in scratch buffers that are
allocated once per call and reused by liveness: widening loads are
``_np.copyto`` into a register, operators are ufuncs with a positional output
(in place when an operand dies), and the last operation of a single-store
nest writes straight into the field.  These tests pin that

* every new emit path is bit-identical to the tree-walking interpreter (the
  oracle) for fields, and to the planned path for statistics: float64 fields
  whose loads stay views, float32/int32 fields that need widening, bool
  masks with ``select``, multi-store nests, ops without a ufunc template,
  overlap strips of a different shape, traced and untraced kernels;
* one cached kernel stays re-entrant when several batched jobs run it;
* a held kernel allocates nothing per time step (``tracemalloc``).
"""

import re
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.dialects import arith, builtin, func, memref, scf
from repro.dialects.func import find_function
from repro.interp import (
    ExecStatistics,
    Interpreter,
    compile_kernel,
    emit_megakernel,
    trace_program,
)
from repro.interp import vectorize
from repro.ir import Builder, FunctionType, MemRefType, f32, f64, i1, i32, index
from repro.obs import Tracer
from repro.serve import Server
from repro.workloads import acoustic_wave, heat_diffusion

N = 12  # interior extent of the hand-built programs
STEPS = 3


# ---------------------------------------------------------------------------
# hand-built time-loop programs
# ---------------------------------------------------------------------------

def _time_loop_module(element, compute, extra_types=()):
    """``kernel(u, v, *extras, steps)``: ``steps`` sweeps of one 2D nest.

    Each sweep runs ``compute`` over the interior of the (N+2)^2 buffers —
    reading the current buffer, storing into the next — then rotates them.
    """
    field = MemRefType([N + 2, N + 2], element)
    kernel = func.FuncOp(
        "kernel", FunctionType([field, field, *extra_types, index], [])
    )
    u_arg, v_arg, *extras, steps = kernel.args
    top = Builder.at_end(kernel.body.block)
    zero = top.insert(arith.ConstantOp.from_int(0)).result
    one = top.insert(arith.ConstantOp.from_int(1)).result
    upper = top.insert(arith.ConstantOp.from_int(N + 1)).result
    loop = scf.ForOp(zero, steps, one, iter_args=[u_arg, v_arg])
    top.insert(loop)
    top.insert(func.ReturnOp([]))

    body = Builder.at_end(loop.body.block)
    current, following = loop.body.block.args[1], loop.body.block.args[2]
    nest = scf.ParallelOp([one, one], [upper, upper], [one, one])
    body.insert(nest)
    body.insert(scf.YieldOp([following, current]))

    inner = Builder.at_end(nest.body.block)
    i, j = nest.induction_variables

    def shifted(iv, offset):
        if offset == 0:
            return iv
        delta = inner.insert(arith.ConstantOp.from_int(offset)).result
        return inner.insert(arith.AddiOp(iv, delta)).result

    def load(buffer, di=0, dj=0):
        indices = [shifted(i, di), shifted(j, dj)]
        return inner.insert(memref.LoadOp(buffer, indices)).result

    def store(value, buffer):
        inner.insert(memref.StoreOp(value, buffer, [i, j]))

    def op(operation):
        return inner.insert(operation).result

    def const(value, type_):
        if type_ in (f64, f32):
            return op(arith.ConstantOp.from_float(value, type_))
        return op(arith.ConstantOp.from_int(value, type_))

    compute(load, store, op, const, current, following, extras)
    inner.insert(scf.YieldOp([]))
    return builtin.ModuleOp([kernel])


def _float_laplace(element):
    """Five-point update; the centre's first use is a mid-nest multiply."""
    def compute(load, store, op, const, cur, nxt, _extras):
        centre = load(cur)
        scaled = op(arith.MulfOp(centre, const(-4.0, element)))
        total = scaled
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            total = op(arith.AddfOp(total, load(cur, di, dj)))
        weighted = op(arith.MulfOp(total, const(0.125, element)))
        neighbour = load(cur, 1, 1)
        store(op(arith.AddfOp(neighbour, weighted)), nxt)
    return compute


def _int_update(load, store, op, const, cur, nxt, _extras):
    """Integer ops plus an ``extsi``/``trunci`` alias chain of a register.

    ``alias`` is the widened centre under another name: the centre dies at
    the multiply, but its register must survive until ``alias`` is read.
    """
    centre = load(cur)
    alias = op(arith.TruncIOp(op(arith.ExtSIOp(centre, i32)), i32))
    tripled = op(arith.MuliOp(centre, const(3, i32)))
    left = load(cur, 0, -1)
    right = load(cur, 0, 1)
    spread = op(arith.SubiOp(op(arith.MaxSIOp(left, right)),
                             op(arith.MinSIOp(left, right))))
    mixed = op(arith.AddiOp(op(arith.AddiOp(tripled, spread)), alias))
    store(op(arith.SubiOp(mixed, const(7, i32))), nxt)


def _masked_update(load, store, op, const, cur, nxt, extras):
    """cmpf masks, ``select`` of arrays, a bool field and ``negf``."""
    (mask_field,) = extras
    centre = load(cur)
    up = load(cur, -1, 0)
    below = op(arith.CmpfOp("olt", centre, up))
    chosen = op(arith.SelectOp(below, up, centre))
    damped = op(arith.MulfOp(chosen, const(0.5, f64)))
    flipped = op(arith.NegfOp(damped))
    masked = op(arith.SelectOp(load(mask_field), flipped, damped))
    store(op(arith.AddfOp(masked, const(1.0, f64))), nxt)


def _multi_store(load, store, op, const, cur, nxt, extras):
    """Two stores: force-copied commits deferred past the last instruction."""
    (side,) = extras
    centre = load(cur)
    bumped = op(arith.AddfOp(centre, const(1.0, f64)))
    store(bumped, side)
    store(op(arith.MulfOp(bumped, load(cur, 0, 1))), nxt)


def _powf_update(load, store, op, const, cur, nxt, _extras):
    """``**`` keeps its allocating statement; the rest still uses scratch."""
    centre = load(cur)
    squared = op(arith.PowfOp(centre, const(2.0, f64)))
    store(op(arith.AddfOp(squared, load(cur, 1, 0))), nxt)


def _inputs(dtype, seed, extra_dtypes=()):
    rng = np.random.default_rng(seed)
    shape = (N + 2, N + 2)
    if np.dtype(dtype).kind == "i":
        fields = [rng.integers(-1000, 1000, shape).astype(dtype) for _ in range(2)]
    else:
        fields = [rng.random(shape).astype(dtype) for _ in range(2)]
    extras = []
    for extra in extra_dtypes:
        if extra == np.bool_:
            extras.append(rng.random(shape) < 0.5)
        else:
            extras.append(rng.random(shape).astype(extra))
    return fields + extras


CASES = {
    "float64-views": (f64, np.float64, _float_laplace(f64), (), ()),
    "float32-widened": (f32, np.float32, _float_laplace(f32), (), ()),
    "int32-widened": (i32, np.int32, _int_update, (), ()),
    "bool-select": (
        f64, np.float64, _masked_update,
        (MemRefType([N + 2, N + 2], i1),), (np.bool_,),
    ),
    "multi-store": (
        f64, np.float64, _multi_store,
        (MemRefType([N + 2, N + 2], f64),), (np.float64,),
    ),
    "powf": (f64, np.float64, _powf_update, (), ()),
}


def _build_case(name):
    element, dtype, compute, extra_types, extra_dtypes = CASES[name]
    module = _time_loop_module(element, compute, extra_types)
    return module, dtype, extra_dtypes


def _megakernel(module, args, traced=False):
    kernel = compile_kernel(module, "kernel")
    trace = trace_program(find_function(module, "kernel"), kernel)
    return emit_megakernel(trace, args, traced=traced)


def _assert_bits_equal(got, want, what):
    for index, (mine, theirs) in enumerate(zip(got, want)):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine.view(np.uint8), theirs.view(np.uint8)), (
            f"{what}: argument {index} differs from the tree walker"
        )


def _loop_body(source):
    return source.split("for _t in range(_lo, _hi, _st):", 1)[1]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_emit_paths_match_tree_walker(name, traced):
    module, dtype, extra_dtypes = _build_case(name)
    initial = _inputs(dtype, seed=len(name), extra_dtypes=extra_dtypes)

    oracle = [array.copy() for array in initial]
    Interpreter(module).call("kernel", *oracle, STEPS)
    planned = [array.copy() for array in initial]
    planned_interp = Interpreter(module, kernel=compile_kernel(module, "kernel"))
    planned_interp.call("kernel", *planned, STEPS)

    megakernel = _megakernel(
        module, [array.copy() for array in initial] + [STEPS], traced=traced
    )
    tracer = Tracer("summary", track="rank 0") if traced else None
    for _ in range(2):  # a second call reuses the kernel on fresh inputs
        args = [array.copy() for array in initial] + [STEPS]
        stats = ExecStatistics()
        assert megakernel.run(args, stats, None, tracer)
        _assert_bits_equal(args[:-1], oracle, name)
    _assert_bits_equal(planned, oracle, f"{name} (planned)")
    assert stats == planned_interp.stats
    assert ("_tracer" in megakernel.source) is traced

    body = _loop_body(megakernel.source)
    if name == "float64-views":
        # float64 loads stay views and are never written; the last op
        # writes straight into the next buffer.
        assert "copyto" not in body and "asarray" not in body
        assert re.search(r"_np\.add\([^\n]*, b1\[1:13, 1:13\]\)", body)
    if name in ("float32-widened", "int32-widened"):
        assert "_np.copyto(" in body and "asarray" not in body
        assert "astype" not in body and "broadcast_to" not in body
    if name == "bool-select":
        assert re.search(r"_np\.less\([^\n]*, _b1_0\)", body)
        assert "_np.where(" in body and "_np.negative(" in body
    if name == "multi-store":
        assert body.count("copy=True") == 2
    if name == "powf":
        assert " ** 2.0)" in body


def test_ops_without_a_template_call_their_context_function(monkeypatch):
    """No template: the op's table callable is called, never given ``out=``."""
    monkeypatch.delitem(vectorize.BINARY_EXPRESSIONS, "arith.addf")
    monkeypatch.delitem(vectorize.BINARY_UFUNCS, "arith.addf")
    module, dtype, _ = _build_case("float32-widened")
    initial = _inputs(dtype, seed=3)
    oracle = [array.copy() for array in initial]
    Interpreter(module).call("kernel", *oracle, STEPS)
    args = [array.copy() for array in initial] + [STEPS]
    megakernel = _megakernel(module, args)
    assert "= _ctx[" in megakernel.source
    assert megakernel.run(args, ExecStatistics(), None)
    _assert_bits_equal(args[:-1], oracle, "context callables")


def test_overlap_strips_use_views_of_one_pool():
    """Interior and boundary strips of different shapes share the registers."""
    workload = acoustic_wave((32, 32), space_order=4, dtype=np.float32)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 1)))
    rng = np.random.default_rng(5)
    initial = [rng.random((36, 36), dtype=np.float32) for _ in range(3)]

    def run(config):
        fields = [array.copy() for array in initial]
        with Session(config) as session:
            plan = session.plan(program)
            result = plan.run(fields, [4])
            sources = [kernel.source for kernel in
                       session._megakernel_cache.values()
                       if hasattr(kernel, "source")]
        return fields, result, sources

    oracle, _, _ = run(ExecutionConfig(runtime="threads", backend="interpreter"))
    planned, planned_result, _ = run(
        ExecutionConfig(runtime="threads", codegen="planned"))
    fields, result, sources = run(
        ExecutionConfig(runtime="threads", codegen="megakernel"))
    _assert_bits_equal(fields, oracle, "overlap strips")
    _assert_bits_equal(planned, oracle, "overlap strips (planned)")
    assert result.statistics == planned_result.statistics
    assert result.comm_statistics == planned_result.comm_statistics
    assert all(stats.halo_swaps_overlapped > 0 for stats in result.statistics)
    assert len(sources) == 2
    for source in sources:
        # one flat buffer per register, a (14, 32) and a (2, 32) view of it
        assert re.search(r"_f8_0 = _pf8_0\[:448\]\.reshape\(\(14, 32\)\)", source)
        assert re.search(r"_f8_0s1 = _pf8_0\[:64\]\.reshape\(\(2, 32\)\)", source)


# ---------------------------------------------------------------------------
# re-entrancy: one cached kernel, several concurrent jobs
# ---------------------------------------------------------------------------

@pytest.fixture
def _fast_thread_switching():
    """Switch threads every few microseconds so concurrent jobs interleave
    inside the kernel body rather than running one after another."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _heat_program(shape=(48, 48)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float32)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, cpu_target())


def _seeded_heat_fields(seed, shape=(50, 50)):
    rng = np.random.default_rng(seed)
    return [rng.random(shape, dtype=np.float32) for _ in range(2)]


def _standalone(program, fields, steps):
    with Session(ExecutionConfig(codegen="megakernel")) as session:
        return session.plan(program).run(fields, [steps])


@pytest.mark.usefixtures("_fast_thread_switching")
def test_one_kernel_is_reentrant_across_batched_jobs():
    program = _heat_program()
    steps, jobs = 40, 4
    references = []
    for seed in range(jobs):
        fields = _seeded_heat_fields(seed)
        references.append((fields, _standalone(program, fields, steps)))

    with Session(ExecutionConfig(codegen="megakernel")) as session:
        plan = session.plan(program)
        plan.run(_seeded_heat_fields(99), [steps])  # emit the kernel once
        kernels = list(session._megakernel_cache.values())
        assert len(kernels) == 1
        for _round in range(3):
            fieldsets = [_seeded_heat_fields(seed) for seed in range(jobs)]
            prepared = [plan.prepare(fields, [steps]) for fields in fieldsets]
            session.execute_batch(prepared)
            results = [job.finish() for job in prepared]
            for fields, result, (want, want_result) in zip(
                    fieldsets, results, references):
                _assert_bits_equal(fields, want, "batched job")
                assert result.statistics == want_result.statistics
        assert list(session._megakernel_cache.values()) == kernels
        assert session.metrics.get("megakernel.engaged") == 1 + 3 * jobs


@pytest.mark.usefixtures("_fast_thread_switching")
def test_one_kernel_is_reentrant_across_a_served_batch():
    program = _heat_program()
    steps, jobs = 40, 6
    references = [
        (fields, _standalone(program, fields, steps))
        for fields in (_seeded_heat_fields(seed) for seed in range(jobs))
    ]
    with Session(ExecutionConfig(codegen="megakernel")) as session:
        session.plan(program).run(_seeded_heat_fields(99), [steps])
        kernels = list(session._megakernel_cache.values())
        with Server(session=session, max_batch=8, start=False) as server:
            fieldsets = [_seeded_heat_fields(seed) for seed in range(jobs)]
            handles = [server.submit(program, fields, [steps])
                       for fields in fieldsets]
            server.start()  # every job lands in one dispatch round
            results = [handle.result(timeout=60.0) for handle in handles]
            assert server.metrics.get("serve.batches") == 1
        assert list(session._megakernel_cache.values()) == kernels
    assert len(kernels) == 1
    for fields, result, (want, want_result) in zip(
            fieldsets, results, references):
        _assert_bits_equal(fields, want, "served job")
        assert result.statistics == want_result.statistics


# ---------------------------------------------------------------------------
# the allocation gate
# ---------------------------------------------------------------------------

def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_held_heat_megakernel_allocates_nothing_per_step():
    """20 steps peak at what 1 step does: the scratch, allocated up front.

    Deterministic (byte counts, not timings), so it holds on a noisy runner.
    """
    shape = (256, 256)
    box = shape[0] * shape[1] * np.dtype(np.float64).itemsize
    program = _heat_program(shape)
    fields = _seeded_heat_fields(0, (258, 258))
    with Session(ExecutionConfig(codegen="megakernel")) as session:
        plan = session.plan(program)
        plan.run(fields, [1])
        (megakernel,) = session._megakernel_cache.values()
        body = _loop_body(megakernel.source)
        for allocating in ("asarray(", ".astype(", "broadcast_to("):
            assert allocating not in body, (
                f"the loop body still allocates through {allocating!r}"
            )
        assert 0 < megakernel.scratch_bytes <= 4 * box

        def run(steps):
            return lambda: megakernel.run([*fields, steps], ExecStatistics(), None)

        one, twenty = _traced_peak(run(1)), _traced_peak(run(20))
    assert twenty - one < box, (
        f"20 steps peaked {twenty - one} B above 1 step: something allocates "
        "per time step"
    )
    assert one < megakernel.scratch_bytes + box
