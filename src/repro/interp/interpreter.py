"""A reference interpreter for the IR.

The real stack hands lowered IR to LLVM and runs native code; here the same
lowered programs are executed by walking the IR.  Two levels are supported and
produce identical numerical results:

* **stencil level** — ``stencil.apply`` is evaluated *vectorised* with numpy
  over the whole store domain (fast; used as the reference semantics and by
  the frontends' "native" execution paths);
* **lowered level** — after ``convert-stencil-to-scf`` (and optionally the
  dmp/mpi lowerings) the loop nests, memref accesses, OpenMP/GPU structure and
  MPI calls are interpreted operation by operation (slow; used by the
  correctness tests on small grids).

Distributed programs execute against a :class:`~repro.interp.mpi_runtime.SimulatedMPI`
world: each rank runs one interpreter instance in its own thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from ..dialects import arith, builtin, dmp, func, gpu, hls, memref, mpi, omp, scf, stencil
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import Block, Operation, SSAValue
from ..ir.types import IntegerType
from .mpi_runtime import CommunicatorBase
from .values import DataTypeValue, MemRefValue, PointerValue, RequestHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .vectorize import CompiledKernel


class InterpreterError(Exception):
    """Raised when a program cannot be executed (unknown op, bad structure...)."""


@dataclass
class ExecStatistics:
    """Counters describing one execution (consumed by tests and cost models)."""

    ops_executed: int = 0
    kernel_launches: int = 0
    host_synchronizations: int = 0
    omp_regions: int = 0
    omp_barriers: int = 0
    halo_swaps: int = 0
    halo_elements_exchanged: int = 0
    mpi_messages: int = 0
    cells_updated: int = 0
    #: Halo exchanges whose completion was deferred past interior compute
    #: (the communication/computation overlap of the hybrid runtime).
    halo_swaps_overlapped: int = 0


class _ReturnSignal(Exception):
    """Internal: unwinds the interpreter stack on func.return."""

    def __init__(self, values: list[Any]):
        self.values = values


Handler = Callable[["Interpreter", Operation, dict], None]
_HANDLERS: dict[str, Handler] = {}


def handler(op_name: str) -> Callable[[Handler], Handler]:
    def register(fn: Handler) -> Handler:
        _HANDLERS[op_name] = fn
        return fn

    return register


class _HaloReceive:
    """One posted-but-uncompleted receive of an overlapped halo exchange."""

    __slots__ = ("request", "buffer", "recv_slice", "elements", "axis")

    def __init__(self, request, buffer, recv_slice, elements: int, axis: int):
        self.request = request
        self.buffer = buffer
        self.recv_slice = recv_slice
        self.elements = elements
        self.axis = axis


class PendingHalo:
    """A ``dmp.swap`` whose receives are still in flight.

    The sends were posted (buffered, so the payload is already captured) and
    one non-blocking receive per neighbor was issued into a staging buffer;
    :meth:`complete` waits for them and writes the staged halos into the
    array.  While the object sits on ``Interpreter.pending_halos``, the
    vectorized backend may compute any region it can prove independent of the
    ``recv_slice`` boxes — that is the communication/computation overlap of
    the hybrid runtime.
    """

    __slots__ = ("array", "items")

    def __init__(self, array: np.ndarray, items: list[_HaloReceive]):
        self.array = array
        self.items = items

    def complete(self, interp: "Interpreter") -> None:
        comm = interp.require_comm()
        tracer = interp.tracer
        span = tracer.begin("halo.wait") if tracer is not None else 0.0
        for item in self.items:
            comm.wait(item.request)
            self.array[item.recv_slice] = item.buffer
            interp.stats.halo_elements_exchanged += item.elements
        if tracer is not None:
            tracer.end("halo.wait", span)


#: Operations that provably cannot observe array *contents*, so pending halo
#: receives may stay in flight across them: scalar/index arithmetic, value
#: plumbing, the structural loop roots whose handlers manage completion
#: themselves through ``try_vectorized``, the pure-counter OpenMP
#: synchronization ops, and ``dmp.swap`` itself (its handler completes
#: exactly the prefix of pending halos its buffer depends on) — without the
#: last three, every multi-field omp-lowered kernel would force-complete its
#: halos between the nest and the next swap and the overlap would be inert.
_HALO_TRANSPARENT_OPS = frozenset(
    {
        "builtin.unrealized_conversion_cast",
        "memref.cast",
        "memref.subview",
        "memref.dim",
        "omp.parallel",
        "omp.wsloop",
        "omp.barrier",
        "omp.terminator",
        "scf.parallel",
        "scf.for",
        "scf.yield",
        "omp.yield",
        "dmp.swap",
    }
)


# ---------------------------------------------------------------------------
# pre-resolved block plans (the amortized time-loop driver of Session/Plan)
# ---------------------------------------------------------------------------

#: Kinds of a :class:`PlannedOp` (int compares beat string compares per op).
_PLAN_HANDLER = 0   # dispatch through the pre-bound handler
_PLAN_CONST = 1     # arith.constant with the literal pre-materialized
_PLAN_CAST = 2      # identity plumbing (unrealized_conversion_cast, memref.cast)
_PLAN_YIELD = 3     # scf/omp/hls yield, stencil.return
_PLAN_RETURN = 4    # func.return
_PLAN_EMPTY = 5     # omp/gpu terminators


class PlannedOp:
    """One operation of a pre-resolved block: handler bound, constants folded.

    The per-op work `_eval` repeats on every execution — the name lookup, the
    halo-transparency set membership, the handler dict get, and for constants
    the attribute unpacking — is done once here, at plan-compile time.
    """

    __slots__ = ("op", "kind", "handler", "value", "transparent")

    def __init__(self, op: Operation, kind: int, handler: Optional[Handler],
                 value: Any, transparent: bool):
        self.op = op
        self.kind = kind
        self.handler = handler
        self.value = value
        self.transparent = transparent


_PLAN_CAST_OPS = frozenset({"builtin.unrealized_conversion_cast", "memref.cast"})
_PLAN_YIELD_OPS = frozenset(
    {"scf.yield", "omp.yield", "hls.yield", "stencil.return"}
)
_PLAN_EMPTY_OPS = frozenset({"omp.terminator", "gpu.terminator"})


def _plan_op(op: Operation) -> PlannedOp:
    name = op.name
    transparent = name in _HALO_TRANSPARENT_OPS or name.startswith("arith.")
    if name in _PLAN_YIELD_OPS:
        return PlannedOp(op, _PLAN_YIELD, None, None, transparent)
    if name == "func.return":
        return PlannedOp(op, _PLAN_RETURN, None, None, transparent)
    if name in _PLAN_EMPTY_OPS:
        return PlannedOp(op, _PLAN_EMPTY, None, None, transparent)
    if name in _PLAN_CAST_OPS:
        return PlannedOp(op, _PLAN_CAST, None, None, transparent)
    if name == "arith.constant" and isinstance(op, arith.ConstantOp):
        value_attr = op.value
        if isinstance(value_attr, IntegerAttr):
            result_type = op.results[0].type
            if isinstance(result_type, IntegerType) and result_type.width == 1:
                value: Any = bool(value_attr.value)
            else:
                value = int(value_attr.value)
            return PlannedOp(op, _PLAN_CONST, None, value, transparent)
        if isinstance(value_attr, FloatAttr):
            return PlannedOp(op, _PLAN_CONST, None, float(value_attr.value),
                             transparent)
        # Unsupported payload: keep the handler so it raises exactly as today.
    handler_fn = _HANDLERS.get(name)
    if handler_fn is None:
        # Defer the error to execution time, exactly like `_eval`: an op that
        # is never reached must not poison the plan of its whole function.
        def handler_fn(interp, op, env, _name=name):
            raise InterpreterError(f"no interpreter support for operation {_name!r}")

    return PlannedOp(op, _PLAN_HANDLER, handler_fn, None, transparent)


def compile_block_plans(function: func.FuncOp) -> dict[int, list[PlannedOp]]:
    """Pre-resolve every block of ``function`` for repeated execution.

    The returned mapping (``id(block) -> [PlannedOp, ...]``) is consumed by
    ``Interpreter(block_plans=...)``: blocks found in the map run through
    :meth:`Interpreter._run_planned`, skipping the per-op dispatch work; any
    block not in the map (e.g. of a *called* function) falls back to the
    ordinary `_eval` loop.  Assumes — like the vectorized-kernel cache — that
    the module is no longer mutated after compilation.
    """
    plans: dict[int, list[PlannedOp]] = {}

    def visit(block: Block) -> None:
        plans[id(block)] = [_plan_op(op) for op in block.ops]
        for op in block.ops:
            for region in op.regions:
                for nested in region.blocks:
                    visit(nested)

    visit(function.body.block)
    return plans


class RequestArray:
    """Runtime value of mpi.allocate_requests: a list of request slots."""

    def __init__(self, count: int):
        self.slots: list[RequestHandle] = [RequestHandle() for _ in range(count)]


class RequestRef:
    """Runtime value of mpi.get_request: one slot of a request array."""

    def __init__(self, array: RequestArray, index: int):
        self.array = array
        self.index = index

    @property
    def slot(self) -> RequestHandle:
        return self.array.slots[self.index]


class Interpreter:
    """Executes functions of one module, optionally as one rank of an MPI world."""

    def __init__(
        self,
        module: builtin.ModuleOp,
        *,
        comm: Optional[CommunicatorBase] = None,
        kernel: Optional["CompiledKernel"] = None,
        threads: int = 1,
        overlap_halos: bool = True,
        functions: Optional[dict[str, func.FuncOp]] = None,
        block_plans: Optional[dict[int, list["PlannedOp"]]] = None,
        team: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ):
        self.module = module
        self.comm = comm
        #: Span tracer (:class:`repro.obs.Tracer`) for this rank, or None.
        #: Hooks sit at phase boundaries (timestep, nest, halo post/wait) —
        #: never inside the per-op dispatch loops — and each costs one
        #: ``is None`` check when tracing is off.
        self.tracer = tracer
        #: Vectorized nests (from repro.interp.vectorize) consulted before
        #: tree-walking a loop; None runs everything through the tree walker.
        self.kernel = kernel
        #: Intra-rank thread-team size (the OpenMP level of the hybrid
        #: runtime); teams only accelerate the vectorized backend.
        self.threads = max(1, int(threads))
        #: Defer halo-receive completion past independent interior compute.
        self.overlap_halos = overlap_halos
        #: Posted-but-uncompleted halo exchanges (see :class:`PendingHalo`).
        self.pending_halos: list[PendingHalo] = []
        self.stats = ExecStatistics()
        #: ``functions`` lets a caller that runs the same module many times
        #: (e.g. a :class:`repro.core.session.Plan`) pass a prebuilt table and
        #: skip the per-construction module walk.
        if functions is not None:
            self.functions = functions
        else:
            self.functions = {}
            for op in module.walk():
                if isinstance(op, func.FuncOp):
                    self.functions[op.sym_name] = op
        #: Pre-resolved op sequences keyed by ``id(block)`` (see
        #: :func:`compile_block_plans`); None tree-walks with per-op dispatch.
        self.block_plans = block_plans
        #: Explicit intra-rank thread team; None falls back to the
        #: process-wide team cache of :mod:`repro.interp.thread_team`.
        self._team = team
        self._memory_registry: dict[int, np.ndarray] = {}
        self._next_address = 0x1000

    # -- public API -----------------------------------------------------------
    def call(self, function_name: str, *args: Any) -> list[Any]:
        """Call a function by name with python/numpy arguments."""
        if function_name not in self.functions:
            raise InterpreterError(f"unknown function {function_name!r}")
        function = self.functions[function_name]
        if function.is_declaration:
            raise InterpreterError(f"cannot call declaration {function_name!r}")
        block = function.body.block
        if len(args) != len(block.args):
            raise InterpreterError(
                f"{function_name} expects {len(block.args)} arguments, got {len(args)}"
            )
        env: dict[SSAValue, Any] = {}
        for block_arg, value in zip(block.args, args):
            env[block_arg] = _wrap_argument(value, block_arg.type)
        try:
            self._run_ops(block, env)
        except _ReturnSignal as signal:
            self.complete_pending_halos()
            return signal.values
        self.complete_pending_halos()
        return []

    def call_prepared(self, function: func.FuncOp, args: Sequence[Any]) -> list[Any]:
        """Call with pre-wrapped arguments (no lookup, no per-call wrapping).

        The fast entry point of :class:`repro.core.session.Plan`: the plan
        wraps its stable per-rank buffers into interpreter values once and
        replays them every run.  ``args`` must already be wrapped (e.g. by
        :func:`wrap_argument`) and match ``function``'s block arguments.
        """
        block = function.body.block
        env: dict[SSAValue, Any] = dict(zip(block.args, args))
        try:
            self._run_ops(block, env)
        except _ReturnSignal as signal:
            self.complete_pending_halos()
            return signal.values
        self.complete_pending_halos()
        return []

    # -- core evaluation ----------------------------------------------------------
    def get(self, env: dict, value: SSAValue) -> Any:
        try:
            return env[value]
        except KeyError as err:
            hint = value.name_hint or "<unnamed>"
            raise InterpreterError(f"use of unevaluated SSA value %{hint}") from err

    def set(self, env: dict, value: SSAValue, result: Any) -> None:
        env[value] = result

    def run_block(self, block: Block, env: dict) -> list[Any]:
        """Run a block; return the operands of its terminating yield (if any)."""
        return self._run_ops(block, env)

    def _run_ops(self, block: Block, env: dict) -> list[Any]:
        if self.block_plans is not None:
            plan = self.block_plans.get(id(block))
            if plan is not None:
                return self._run_planned(plan, env)
        for op in block.ops:
            terminator_values = self._eval(op, env)
            if terminator_values is not None:
                return terminator_values
        return []

    def _run_planned(self, plan: list["PlannedOp"], env: dict) -> list[Any]:
        """Run a pre-resolved op sequence (see :func:`compile_block_plans`).

        Observationally identical to the per-op ``_eval`` loop — same
        statistics, same pending-halo completion points, same results — but
        with the per-op name/handler lookups, the constant materialization
        and the cast plumbing resolved once at plan-compile time.
        """
        stats = self.stats
        for planned in plan:
            stats.ops_executed += 1
            if self.pending_halos and not planned.transparent:
                self.complete_pending_halos()
            kind = planned.kind
            if kind == _PLAN_HANDLER:
                planned.handler(self, planned.op, env)
            elif kind == _PLAN_CONST:
                env[planned.op.results[0]] = planned.value
            elif kind == _PLAN_CAST:
                op = planned.op
                env[op.results[0]] = self.get(env, op.operands[0])
            elif kind == _PLAN_YIELD:
                return [self.get(env, operand) for operand in planned.op.operands]
            elif kind == _PLAN_RETURN:
                raise _ReturnSignal(
                    [self.get(env, operand) for operand in planned.op.operands]
                )
            else:  # _PLAN_EMPTY: omp/gpu terminators
                return []
        return []

    def _eval(self, op: Operation, env: dict) -> Optional[list[Any]]:
        self.stats.ops_executed += 1
        name = op.name
        if self.pending_halos and not (
            name in _HALO_TRANSPARENT_OPS or name.startswith("arith.")
        ):
            # Any operation that could observe array contents forces the
            # in-flight halo receives to land first (blocking semantics).
            self.complete_pending_halos()
        if name in ("scf.yield", "omp.yield", "hls.yield", "stencil.return"):
            return [self.get(env, operand) for operand in op.operands]
        if name == "func.return":
            raise _ReturnSignal([self.get(env, operand) for operand in op.operands])
        if name in ("omp.terminator", "gpu.terminator"):
            return []
        fn = _HANDLERS.get(name)
        if fn is None:
            raise InterpreterError(f"no interpreter support for operation {name!r}")
        fn(self, op, env)
        return None

    def try_vectorized(self, op: Operation, env: dict) -> bool:
        """Run ``op`` through its compiled vectorized nest, if one exists.

        Returns True when the nest executed (buffers updated, statistics
        counted); False requests the per-cell tree walk.
        """
        if self.kernel is None:
            nest = None
        else:
            nest = self.kernel.nest_for(op)
        if nest is None:
            # About to tree-walk (or not a compiled nest at all): the walker
            # reads cells one by one, so every halo must have landed.
            self.complete_pending_halos()
            return False
        tracer = self.tracer
        if tracer is None:
            executed = nest.execute(self, env)
        else:
            span = tracer.begin("nest")
            try:
                executed = nest.execute(self, env)
            finally:
                tracer.end("nest", span)
        if not executed:
            self.complete_pending_halos()
        return executed

    # -- halo overlap -----------------------------------------------------------
    @property
    def thread_team(self):
        """The intra-rank worker team, or None when running single-threaded."""
        if self.threads <= 1:
            return None
        if self._team is not None:
            return self._team
        from .thread_team import get_thread_team

        return get_thread_team(self.threads)

    def complete_pending_halos(self, overlapped: bool = False) -> None:
        """Wait for every in-flight halo receive and write it into its field.

        ``overlapped=True`` marks the completion as having been deferred past
        interior compute (called by the vectorized backend's overlap path),
        which is counted in :attr:`ExecStatistics.halo_swaps_overlapped`.
        """
        if not self.pending_halos:
            return
        pending, self.pending_halos = self.pending_halos, []
        for halo in pending:
            halo.complete(self)
            if overlapped:
                self.stats.halo_swaps_overlapped += 1

    def complete_pending_halos_touching(self, array: np.ndarray) -> None:
        """Complete the posting-order *prefix* of halos that ``array`` needs.

        Receives are matched by ``(source, tag)`` FIFO, not by request
        identity, and different swaps reuse the same direction tags — so
        completing a later halo before an earlier one on the same channel
        would steal the earlier one's payload.  Completing the whole prefix
        up to the last memory-overlapping halo preserves the channel order;
        unrelated halos posted after it stay in flight.
        """
        last = -1
        for index, halo in enumerate(self.pending_halos):
            if halo.array is array or np.shares_memory(halo.array, array):
                last = index
        if last < 0:
            return
        prefix = self.pending_halos[: last + 1]
        self.pending_halos = self.pending_halos[last + 1 :]
        for halo in prefix:
            halo.complete(self)

    # -- memory / pointer plumbing ---------------------------------------------------
    def register_buffer(self, array: np.ndarray) -> int:
        address = self._next_address
        self._next_address += max(array.nbytes, 8)
        self._memory_registry[address] = array
        return address

    def buffer_at(self, address: int) -> np.ndarray:
        if address not in self._memory_registry:
            raise InterpreterError(f"dereference of unknown address {address:#x}")
        return self._memory_registry[address]

    def as_array(self, value: Any) -> np.ndarray:
        """View any buffer-like runtime value as a numpy array."""
        if isinstance(value, MemRefValue):
            return value.array
        if isinstance(value, PointerValue):
            return self.buffer_at(value.address)
        if isinstance(value, np.ndarray):
            return value
        if isinstance(value, (int, np.integer)):
            return self.buffer_at(int(value))
        raise InterpreterError(f"value {value!r} is not buffer-like")

    # -- MPI helpers ------------------------------------------------------------------
    def require_comm(self) -> CommunicatorBase:
        if self.comm is None:
            raise InterpreterError(
                "this program performs message passing but no communicator was "
                "provided; pass comm=... when constructing the Interpreter"
            )
        return self.comm

    def mpi_library_call(self, symbol: str, args: list[Any]) -> list[Any]:
        """Execute a lowered MPI_* function call against the simulated runtime."""
        comm = self.require_comm()
        if symbol in ("MPI_Init", "MPI_Finalize", "MPI_Barrier"):
            if symbol == "MPI_Barrier":
                comm.barrier()
            return [0]
        if symbol == "MPI_Comm_rank":
            return [comm.rank]
        if symbol == "MPI_Comm_size":
            return [comm.size]
        tracer = self.tracer
        if symbol in ("MPI_Send", "MPI_Isend"):
            span = tracer.begin("halo.post") if tracer is not None else 0.0
            buffer, count, _dtype, dest, tag = args[0], args[1], args[2], args[3], args[4]
            data = self.as_array(buffer).reshape(-1)[: int(count)]
            comm.isend(data, int(dest), int(tag))
            self.stats.mpi_messages += 1
            if symbol == "MPI_Isend" and len(args) >= 7:
                _mark_send_complete(args[6])
            if tracer is not None:
                tracer.end("halo.post", span)
            return [0]
        if symbol in ("MPI_Recv",):
            buffer, count, _dtype, source, tag = args[0], args[1], args[2], args[3], args[4]
            array = self.as_array(buffer).reshape(-1)[: int(count)]
            comm.recv(array, int(source), int(tag))
            return [0]
        if symbol == "MPI_Irecv":
            span = tracer.begin("halo.post") if tracer is not None else 0.0
            buffer, count, _dtype, source, tag = args[0], args[1], args[2], args[3], args[4]
            array = self.as_array(buffer).reshape(-1)[: int(count)]
            request = comm.irecv(array, int(source), int(tag))
            if len(args) >= 7:
                _store_pending(args[6], request)
            if tracer is not None:
                tracer.end("halo.post", span)
            return [0]
        if symbol == "MPI_Wait":
            span = tracer.begin("halo.wait") if tracer is not None else 0.0
            _wait_request(comm, args[0])
            if tracer is not None:
                tracer.end("halo.wait", span)
            return [0]
        if symbol == "MPI_Waitall":
            span = tracer.begin("halo.wait") if tracer is not None else 0.0
            count, requests = args[0], args[1]
            _waitall(comm, requests)
            if tracer is not None:
                tracer.end("halo.wait", span)
            return [0]
        if symbol in ("MPI_Allreduce", "MPI_Reduce"):
            send_buffer, recv_buffer = args[0], args[1]
            operation = "sum"
            data = self.as_array(send_buffer)
            if symbol == "MPI_Allreduce":
                result = comm.allreduce(data, operation)
                np.copyto(self.as_array(recv_buffer), result)
            else:
                result = comm.reduce(data, operation, root=0)
                if comm.rank == 0 and result is not None:
                    np.copyto(self.as_array(recv_buffer), result)
            return [0]
        if symbol == "MPI_Bcast":
            buffer = self.as_array(args[0])
            result = comm.bcast(buffer, root=int(args[3]) if len(args) > 3 else 0)
            np.copyto(buffer, result)
            return [0]
        if symbol == "MPI_Gather":
            send_buffer = self.as_array(args[0])
            gathered = comm.gather(send_buffer, root=int(args[6]) if len(args) > 6 else 0)
            if gathered is not None:
                recv = self.as_array(args[3])
                np.copyto(recv.reshape(gathered.shape), gathered)
            return [0]
        raise InterpreterError(f"unsupported MPI library call {symbol!r}")


# ---------------------------------------------------------------------------
# argument wrapping
# ---------------------------------------------------------------------------

def _wrap_argument(value: Any, expected_type) -> Any:
    if isinstance(value, MemRefValue):
        return value
    if isinstance(value, np.ndarray):
        if isinstance(expected_type, stencil.FieldType) and expected_type.bounds is not None:
            return MemRefValue(value, origin=expected_type.bounds.lb)
        return MemRefValue(value)
    return value


def wrap_argument(value: Any, expected_type) -> Any:
    """Public alias of the argument wrapper (used by Plan.call_prepared callers)."""
    return _wrap_argument(value, expected_type)


# ---------------------------------------------------------------------------
# helpers shared by MPI handlers
# ---------------------------------------------------------------------------

def _request_slot(value: Any) -> RequestHandle:
    if isinstance(value, RequestRef):
        return value.slot
    if isinstance(value, RequestHandle):
        return value
    raise InterpreterError(f"value {value!r} is not an MPI request")


def _mark_send_complete(request_value: Any) -> None:
    slot = _request_slot(request_value)
    slot.pending = None
    slot.null = False


def _store_pending(request_value: Any, request: Any) -> None:
    slot = _request_slot(request_value)
    slot.pending = request
    slot.null = False


def _wait_request(comm: CommunicatorBase, request_value: Any) -> None:
    slot = _request_slot(request_value)
    if slot.pending is not None:
        comm.wait(slot.pending)
        slot.pending = None


def _waitall(comm: CommunicatorBase, requests_value: Any) -> None:
    if isinstance(requests_value, RequestArray):
        slots = requests_value.slots
    elif isinstance(requests_value, RequestRef):
        slots = requests_value.array.slots
    else:
        raise InterpreterError("MPI_Waitall expects a request array")
    for slot in slots:
        if slot.pending is not None:
            comm.wait(slot.pending)
            slot.pending = None


# ---------------------------------------------------------------------------
# builtin / func
# ---------------------------------------------------------------------------

@handler("builtin.module")
def _run_module(interp: Interpreter, op: Operation, env: dict) -> None:
    raise InterpreterError("builtin.module cannot be executed directly; call a function")


@handler("builtin.unrealized_conversion_cast")
def _run_cast(interp: Interpreter, op: Operation, env: dict) -> None:
    value = interp.get(env, op.operands[0])
    interp.set(env, op.results[0], value)


@handler("func.func")
def _run_func_def(interp: Interpreter, op: Operation, env: dict) -> None:
    # Function definitions are not executed when encountered inside a block.
    return


@handler("func.call")
def _run_call(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, func.CallOp)
    args = [interp.get(env, operand) for operand in op.operands]
    callee = op.callee
    target = interp.functions.get(callee)
    if target is not None and not target.is_declaration:
        results = interp.call(callee, *args)
    elif callee.startswith("MPI_"):
        results = interp.mpi_library_call(callee, args)
    else:
        raise InterpreterError(f"call to unknown function {callee!r}")
    for result, value in zip(op.results, results):
        interp.set(env, result, value)


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------

@handler("arith.constant")
def _run_constant(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, arith.ConstantOp)
    value_attr = op.value
    if isinstance(value_attr, IntegerAttr):
        result_type = op.results[0].type
        if isinstance(result_type, IntegerType) and result_type.width == 1:
            interp.set(env, op.results[0], bool(value_attr.value))
        else:
            interp.set(env, op.results[0], int(value_attr.value))
    elif isinstance(value_attr, FloatAttr):
        interp.set(env, op.results[0], float(value_attr.value))
    else:
        raise InterpreterError("unsupported arith.constant payload")


def _binary(op_name: str, fn: Callable[[Any, Any], Any]) -> None:
    @handler(op_name)
    def _run(interp: Interpreter, op: Operation, env: dict) -> None:
        lhs = interp.get(env, op.operands[0])
        rhs = interp.get(env, op.operands[1])
        interp.set(env, op.results[0], fn(lhs, rhs))


_binary("arith.addi", lambda a, b: a + b)
_binary("arith.subi", lambda a, b: a - b)
_binary("arith.muli", lambda a, b: a * b)
_binary("arith.divsi", lambda a, b: int(a / b) if b else 0)
_binary("arith.remsi", lambda a, b: int(a - b * int(a / b)) if b else 0)
_binary("arith.floordivsi", lambda a, b: a // b if b else 0)
_binary("arith.minsi", lambda a, b: min(a, b))
_binary("arith.maxsi", lambda a, b: max(a, b))
_binary("arith.andi", lambda a, b: (a and b) if isinstance(a, bool) else (a & b))
_binary("arith.ori", lambda a, b: (a or b) if isinstance(a, bool) else (a | b))
_binary("arith.xori", lambda a, b: bool(a) ^ bool(b) if isinstance(a, bool) else a ^ b)
_binary("arith.shli", lambda a, b: a << b)
_binary("arith.addf", lambda a, b: a + b)
_binary("arith.subf", lambda a, b: a - b)
_binary("arith.mulf", lambda a, b: a * b)
_binary("arith.divf", lambda a, b: a / b)
_binary("arith.maximumf", lambda a, b: np.maximum(a, b))
_binary("arith.minimumf", lambda a, b: np.minimum(a, b))
_binary("arith.powf", lambda a, b: a ** b)


@handler("arith.negf")
def _run_negf(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], -interp.get(env, op.operands[0]))


_CMPI = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
    "ult": lambda a, b: abs(a) < abs(b), "ule": lambda a, b: abs(a) <= abs(b),
    "ugt": lambda a, b: abs(a) > abs(b), "uge": lambda a, b: abs(a) >= abs(b),
}

_CMPF = {
    "false": lambda a, b: False, "oeq": lambda a, b: a == b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "one": lambda a, b: a != b, "ord": lambda a, b: True,
}


@handler("arith.cmpi")
def _run_cmpi(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, arith.CmpiOp)
    lhs = interp.get(env, op.operands[0])
    rhs = interp.get(env, op.operands[1])
    interp.set(env, op.results[0], _CMPI[op.predicate](lhs, rhs))


@handler("arith.cmpf")
def _run_cmpf(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, arith.CmpfOp)
    lhs = interp.get(env, op.operands[0])
    rhs = interp.get(env, op.operands[1])
    interp.set(env, op.results[0], _CMPF[op.predicate](lhs, rhs))


@handler("arith.select")
def _run_select(interp: Interpreter, op: Operation, env: dict) -> None:
    condition = interp.get(env, op.operands[0])
    chosen = op.operands[1] if condition else op.operands[2]
    interp.set(env, op.results[0], interp.get(env, chosen))


def _cast(op_name: str, fn: Callable[[Any], Any]) -> None:
    @handler(op_name)
    def _run(interp: Interpreter, op: Operation, env: dict) -> None:
        interp.set(env, op.results[0], fn(interp.get(env, op.operands[0])))


_cast("arith.index_cast", lambda v: int(v))
_cast("arith.sitofp", lambda v: float(v))
_cast("arith.fptosi", lambda v: int(v))
_cast("arith.extf", lambda v: float(v))
_cast("arith.truncf", lambda v: float(np.float32(v)))
_cast("arith.extsi", lambda v: int(v))
_cast("arith.trunci", lambda v: int(v))


# ---------------------------------------------------------------------------
# scf
# ---------------------------------------------------------------------------

@handler("scf.for")
def _run_for(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.ForOp)
    if interp.try_vectorized(op, env):
        return
    lower = int(interp.get(env, op.lower_bound))
    upper = int(interp.get(env, op.upper_bound))
    step = int(interp.get(env, op.step))
    if step <= 0:
        raise InterpreterError("scf.for requires a positive step")
    carried = [interp.get(env, value) for value in op.iter_args]
    block = op.body.block
    # Iteration-carried loops are the time loops of this codebase; each
    # iteration is one "step" span.  Inner bound-only loops stay unspanned.
    tracer = interp.tracer
    traced_step = tracer is not None and len(op.iter_args) > 0
    # The body runs in a scoped copy of the environment so loop-local SSA
    # bindings (induction variable, iter args, body values) never leak into —
    # or go stale inside — the caller's environment across nested reuse.
    local_env = dict(env)
    for iteration in range(lower, upper, step):
        span = tracer.begin("step") if traced_step else 0.0
        local_env[block.args[0]] = iteration
        for arg, value in zip(block.args[1:], carried):
            local_env[arg] = value
        yielded = interp.run_block(block, local_env)
        if yielded:
            carried = yielded
        if traced_step:
            tracer.end("step", span)
    for result, value in zip(op.results, carried):
        interp.set(env, result, value)


@handler("scf.parallel")
def _run_parallel(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.ParallelOp)
    rank = op.rank
    lowers = [int(interp.get(env, v)) for v in op.lower_bounds]
    uppers = [int(interp.get(env, v)) for v in op.upper_bounds]
    steps = [int(interp.get(env, v)) for v in op.steps]
    if "gpu_kernel" in op.attributes:
        interp.stats.kernel_launches += 1
    if interp.try_vectorized(op, env):
        return
    block = op.body.block
    local_env = dict(env)  # scoped: body bindings must not leak to the caller

    # Reduction state: one accumulator per init value, folded in iteration
    # order (the deterministic left-fold the vectorized backend replicates).
    accumulators = [interp.get(env, value) for value in op.init_values]
    reduce_op = block.last_op if isinstance(block.last_op, scf.ReduceOp) else None
    if reduce_op is not None and len(reduce_op.operands) != len(accumulators):
        raise InterpreterError(
            f"scf.reduce carries {len(reduce_op.operands)} values but the "
            f"enclosing scf.parallel has {len(accumulators)} init values"
        )

    def loop(dim: int, indices: list[int]) -> None:
        if dim == rank:
            for arg, value in zip(block.args, indices):
                local_env[arg] = value
            interp.run_block(block, local_env)
            interp.stats.cells_updated += 1
            if reduce_op is not None:
                for slot, (value, region) in enumerate(
                    zip(reduce_op.operands, reduce_op.regions)
                ):
                    combine_block = region.block
                    local_env[combine_block.args[0]] = accumulators[slot]
                    local_env[combine_block.args[1]] = local_env[value]
                    yielded = interp.run_block(combine_block, local_env)
                    accumulators[slot] = yielded[0]
            return
        for position in range(lowers[dim], uppers[dim], steps[dim]):
            loop(dim + 1, indices + [position])

    loop(0, [])
    for result, value in zip(op.results, accumulators):
        interp.set(env, result, value)


@handler("scf.if")
def _run_if(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.IfOp)
    condition = bool(interp.get(env, op.condition))
    region = op.then_region if condition else op.else_region
    values: list[Any] = []
    if region.blocks:
        values = interp.run_block(region.block, env)
    for result, value in zip(op.results, values):
        interp.set(env, result, value)


@handler("scf.while")
def _run_while(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.WhileOp)
    carried = [interp.get(env, value) for value in op.operands]
    local_env = dict(env)  # scoped: region bindings must not leak to the caller
    for _ in range(10_000_000):
        before = op.before_region.block
        for arg, value in zip(before.args, carried):
            local_env[arg] = value
        condition_values = interp.run_block(before, local_env)
        keep_going = bool(condition_values[0])
        passed = condition_values[1:]
        if not keep_going:
            carried = passed
            break
        after = op.after_region.block
        for arg, value in zip(after.args, passed):
            local_env[arg] = value
        carried = interp.run_block(after, local_env)
    for result, value in zip(op.results, carried):
        interp.set(env, result, value)


@handler("scf.condition")
def _run_condition(interp: Interpreter, op: Operation, env: dict) -> None:
    # Handled inside scf.while via run_block's terminator collection.
    return


@handler("scf.reduce")
def _run_reduce(interp: Interpreter, op: Operation, env: dict) -> None:
    return


# ---------------------------------------------------------------------------
# memref
# ---------------------------------------------------------------------------

@handler("memref.alloc")
def _run_alloc(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], MemRefValue.for_type(op.results[0].type))


@handler("memref.alloca")
def _run_alloca(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], MemRefValue.for_type(op.results[0].type))


@handler("memref.dealloc")
def _run_dealloc(interp: Interpreter, op: Operation, env: dict) -> None:
    return


@handler("memref.load")
def _run_load(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.LoadOp)
    target = interp.get(env, op.memref)
    indices = tuple(int(interp.get(env, index)) for index in op.indices)
    interp.set(env, op.results[0], target.array[indices].item())


@handler("memref.store")
def _run_store(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.StoreOp)
    target = interp.get(env, op.memref)
    indices = tuple(int(interp.get(env, index)) for index in op.indices)
    target.array[indices] = interp.get(env, op.value)


@handler("memref.subview")
def _run_subview(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.SubviewOp)
    source = interp.get(env, op.source)
    interp.set(env, op.results[0], source.view(op.offsets, op.sizes))


@handler("memref.copy")
def _run_copy(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.CopyOp)
    source = interp.get(env, op.source)
    target = interp.get(env, op.target)
    target.copy_from(source)


@handler("memref.cast")
def _run_memref_cast(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.get(env, op.operands[0]))


@handler("memref.dim")
def _run_dim(interp: Interpreter, op: Operation, env: dict) -> None:
    target = interp.get(env, op.operands[0])
    dim = int(interp.get(env, op.operands[1]))
    interp.set(env, op.results[0], int(target.array.shape[dim]))


@handler("memref.extract_aligned_pointer_as_index")
def _run_extract_pointer(interp: Interpreter, op: Operation, env: dict) -> None:
    target = interp.get(env, op.operands[0])
    interp.set(env, op.results[0], interp.register_buffer(target.array))


@handler("memref.get_global")
def _run_get_global(interp: Interpreter, op: Operation, env: dict) -> None:
    raise InterpreterError("memref.global values are not supported by the interpreter")


# ---------------------------------------------------------------------------
# llvm
# ---------------------------------------------------------------------------

@handler("llvm.inttoptr")
def _run_inttoptr(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], PointerValue(int(interp.get(env, op.operands[0]))))


@handler("llvm.ptrtoint")
def _run_ptrtoint(interp: Interpreter, op: Operation, env: dict) -> None:
    pointer = interp.get(env, op.operands[0])
    interp.set(env, op.results[0], int(pointer.address))


@handler("llvm.mlir.null")
def _run_null(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], PointerValue(0))


# ---------------------------------------------------------------------------
# stencil (vectorised evaluation)
# ---------------------------------------------------------------------------

@handler("stencil.alloc")
def _run_stencil_alloc(interp: Interpreter, op: Operation, env: dict) -> None:
    field_type = op.results[0].type
    assert isinstance(field_type, stencil.FieldType) and field_type.bounds is not None
    interp.set(
        env,
        op.results[0],
        MemRefValue.allocate(
            field_type.bounds.shape, field_type.element_type, origin=field_type.bounds.lb
        ),
    )


@handler("stencil.external_load")
def _run_external_load(interp: Interpreter, op: Operation, env: dict) -> None:
    source = interp.get(env, op.operands[0])
    field_type = op.results[0].type
    assert isinstance(field_type, stencil.FieldType)
    origin = field_type.bounds.lb if field_type.bounds is not None else None
    interp.set(env, op.results[0], MemRefValue(interp.as_array(source), origin))


@handler("stencil.external_store")
def _run_external_store(interp: Interpreter, op: Operation, env: dict) -> None:
    source = interp.get(env, op.operands[0])
    target = interp.get(env, op.operands[1])
    np.copyto(interp.as_array(target), interp.as_array(source))


@handler("stencil.cast")
def _run_stencil_cast(interp: Interpreter, op: Operation, env: dict) -> None:
    source = interp.get(env, op.operands[0])
    result_type = op.results[0].type
    assert isinstance(result_type, stencil.FieldType)
    origin = result_type.bounds.lb if result_type.bounds is not None else source.origin
    interp.set(env, op.results[0], MemRefValue(source.array, origin))


@handler("stencil.load")
def _run_stencil_load(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.get(env, op.operands[0]))


@handler("stencil.store")
def _run_stencil_store(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, stencil.StoreOp)
    temp = interp.get(env, op.temp)
    field = interp.get(env, op.field)
    bounds = op.bounds
    target_region = tuple(
        slice(lb - origin, ub - origin)
        for lb, ub, origin in zip(bounds.lb, bounds.ub, field.origin)
    )
    source_region = tuple(
        slice(lb - origin, ub - origin)
        for lb, ub, origin in zip(bounds.lb, bounds.ub, temp.origin)
    )
    field.array[target_region] = temp.array[source_region]


@handler("stencil.apply")
def _run_stencil_apply(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, stencil.ApplyOp)
    bounds = _apply_output_bounds(op)
    out_shape = bounds.shape
    interp.stats.kernel_launches += 1
    interp.stats.cells_updated += bounds.size()

    block = op.body.block
    local: dict[SSAValue, Any] = {}
    for arg, operand in zip(block.args, op.operands):
        local[arg] = interp.get(env, operand)

    returned: list[Any] = []
    for body_op in block.ops:
        if isinstance(body_op, stencil.AccessOp):
            source = local[body_op.temp]
            region = tuple(
                slice(lb + off - origin, ub + off - origin)
                for lb, ub, off, origin in zip(
                    bounds.lb, bounds.ub, body_op.offset, source.origin
                )
            )
            local[body_op.result] = source.array[region]
        elif isinstance(body_op, stencil.IndexOp):
            dim = body_op.dim
            shape = [1] * len(out_shape)
            shape[dim] = out_shape[dim]
            axis = np.arange(bounds.lb[dim], bounds.ub[dim]).reshape(shape)
            local[body_op.result] = np.broadcast_to(axis, out_shape)
        elif isinstance(body_op, stencil.ReturnOp):
            for value in body_op.operands:
                result_array = local[value]
                if np.isscalar(result_array) or getattr(result_array, "shape", ()) == ():
                    result_array = np.full(out_shape, result_array, dtype=np.float64)
                returned.append(np.array(result_array))
        else:
            _eval_vectorised(interp, body_op, local)

    for result, array in zip(op.results, returned):
        interp.set(env, result, MemRefValue(array, origin=bounds.lb))


def _apply_output_bounds(op: stencil.ApplyOp) -> stencil.StencilBoundsAttr:
    for result in op.results:
        result_type = result.type
        if isinstance(result_type, stencil.TempType) and result_type.bounds is not None:
            candidate = result_type.bounds
            break
    else:
        candidate = None
    for result in op.results:
        for use in result.uses:
            if isinstance(use.operation, stencil.StoreOp):
                return use.operation.bounds
    if candidate is None:
        raise InterpreterError(
            "cannot determine the iteration domain of a stencil.apply without "
            "bounds on its results or a consuming stencil.store"
        )
    return candidate


def _eval_vectorised(interp: Interpreter, op: Operation, local: dict) -> None:
    """Evaluate arith ops over numpy arrays inside a stencil.apply body."""
    name = op.name
    if name == "arith.constant":
        assert isinstance(op, arith.ConstantOp)
        local[op.results[0]] = op.literal()
        return
    values = [local[operand] for operand in op.operands]
    simple = {
        "arith.addf": lambda a, b: a + b, "arith.subf": lambda a, b: a - b,
        "arith.mulf": lambda a, b: a * b, "arith.divf": lambda a, b: a / b,
        "arith.addi": lambda a, b: a + b, "arith.subi": lambda a, b: a - b,
        "arith.muli": lambda a, b: a * b,
        "arith.maximumf": np.maximum, "arith.minimumf": np.minimum,
        "arith.powf": np.power,
        "arith.minsi": np.minimum, "arith.maxsi": np.maximum,
    }
    if name in simple:
        local[op.results[0]] = simple[name](values[0], values[1])
        return
    if name == "arith.negf":
        local[op.results[0]] = -values[0]
        return
    if name == "arith.cmpf":
        assert isinstance(op, arith.CmpfOp)
        comparisons = {
            "oeq": np.equal, "ogt": np.greater, "oge": np.greater_equal,
            "olt": np.less, "ole": np.less_equal, "one": np.not_equal,
        }
        local[op.results[0]] = comparisons[op.predicate](values[0], values[1])
        return
    if name == "arith.cmpi":
        assert isinstance(op, arith.CmpiOp)
        comparisons = {
            "eq": np.equal, "ne": np.not_equal, "slt": np.less, "sle": np.less_equal,
            "sgt": np.greater, "sge": np.greater_equal,
        }
        local[op.results[0]] = comparisons[op.predicate](values[0], values[1])
        return
    if name == "arith.select":
        local[op.results[0]] = np.where(values[0], values[1], values[2])
        return
    if name in ("arith.sitofp", "arith.extf"):
        local[op.results[0]] = np.asarray(values[0], dtype=np.float64)
        return
    if name == "arith.index_cast":
        local[op.results[0]] = values[0]
        return
    raise InterpreterError(
        f"operation {name!r} is not supported inside a stencil.apply body"
    )


# ---------------------------------------------------------------------------
# dmp (high-level halo exchange execution)
# ---------------------------------------------------------------------------

def halo_transparent(op_name: str) -> bool:
    """Whether in-flight halo receives survive the named operation.

    The single source of truth for the completion-point discipline: the
    planned-op path, the tree walker and the megakernel code generator all
    consult this predicate, so their halo completion points cannot diverge.
    """
    return op_name in _HALO_TRANSPARENT_OPS or op_name.startswith("arith.")


class SwapMessagePlan:
    """Per-rank message geometry of one ``dmp.swap`` (no arrays, no comm).

    ``sends`` holds ``(send_slice, neighbor, tag)`` triples and ``receives``
    holds ``(recv_slice, neighbor, tag, staging_shape, elements, axis)``
    records, in the exchange order of the op.  Computed once per (op, rank)
    it parameterizes both the interpreter's swap handler and the emitted
    megakernel's posted exchanges, guaranteeing identical slices and tags.
    """

    __slots__ = ("sends", "receives")

    def __init__(self, sends: list, receives: list):
        self.sends = sends
        self.receives = receives


def swap_message_plan(op: "dmp.SwapOp", rank: int) -> SwapMessagePlan:
    """Resolve the send/receive geometry of ``op`` for one rank."""
    grid = op.grid
    sends: list = []
    receives: list = []
    for exchange in op.swaps:
        neighbor = grid.neighbor_of(rank, exchange.neighbor)
        if neighbor is None:
            continue
        send_offsets, send_sizes = exchange.send_region
        send_slice = tuple(slice(o, o + s) for o, s in zip(send_offsets, send_sizes))
        sends.append((send_slice, neighbor, exchange.travel_tag(True)))
        recv_offsets, recv_sizes = exchange.recv_region
        recv_slice = tuple(slice(o, o + s) for o, s in zip(recv_offsets, recv_sizes))
        axis = next((d for d, off in enumerate(exchange.neighbor) if off != 0), 0)
        receives.append(
            (
                recv_slice,
                neighbor,
                exchange.travel_tag(False),
                tuple(exchange.size),
                exchange.element_count(),
                axis,
            )
        )
    return SwapMessagePlan(sends, receives)


@handler("dmp.swap")
def _run_swap(interp: Interpreter, op: Operation, env: dict) -> None:
    """Halo exchange: post sends and non-blocking receives, defer completion.

    The sends are buffered (the payload is copied out immediately), one
    ``irecv`` per neighbor lands in a staging buffer, and the whole exchange
    is parked on :attr:`Interpreter.pending_halos`: the following compute
    nest may then overlap its interior with the in-flight messages (see
    :meth:`repro.interp.vectorize.CompiledNest.execute`).  With
    ``overlap_halos=False`` the receives complete right here, reproducing the
    classic blocking discipline — both orders write the same bytes, so the
    results are bit-identical either way.
    """
    assert isinstance(op, dmp.SwapOp)
    data = interp.get(env, op.data)
    array = interp.as_array(data)
    # The op is halo-transparent (unrelated in-flight halos survive it), but
    # anything this buffer depends on must land before its slices are read.
    interp.complete_pending_halos_touching(array)
    interp.stats.halo_swaps += 1
    if interp.comm is None or interp.comm.size == 1:
        return
    comm = interp.comm
    tracer = interp.tracer
    span = tracer.begin("halo.post") if tracer is not None else 0.0
    plan = swap_message_plan(op, comm.rank)
    # All payloads are copied out before any message is posted (buffered
    # sends), exactly as before the geometry was factored into the plan.
    payloads = [
        (array[send_slice].copy(), neighbor, tag)
        for send_slice, neighbor, tag in plan.sends
    ]
    for payload, neighbor, tag in payloads:
        comm.isend(payload, neighbor, tag)
        interp.stats.mpi_messages += 1
    items = []
    for recv_slice, neighbor, tag, staging_shape, elements, axis in plan.receives:
        buffer = np.empty(staging_shape, dtype=array.dtype)
        request = comm.irecv(buffer, neighbor, tag)
        items.append(_HaloReceive(request, buffer, recv_slice, elements, axis))
    if tracer is not None:
        tracer.end("halo.post", span)
    halo = PendingHalo(array, items)
    if interp.overlap_halos:
        interp.pending_halos.append(halo)
    else:
        halo.complete(interp)


# ---------------------------------------------------------------------------
# mpi dialect (pre-"magic constant" lowering)
# ---------------------------------------------------------------------------

@handler("mpi.init")
def _run_mpi_init(interp: Interpreter, op: Operation, env: dict) -> None:
    return


@handler("mpi.finalize")
def _run_mpi_finalize(interp: Interpreter, op: Operation, env: dict) -> None:
    return


@handler("mpi.barrier")
def _run_mpi_barrier(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.require_comm().barrier()


@handler("mpi.comm_rank")
def _run_comm_rank(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.comm.rank if interp.comm else 0)


@handler("mpi.comm_size")
def _run_comm_size(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.comm.size if interp.comm else 1)


@handler("mpi.unwrap_memref")
def _run_unwrap(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.UnwrapMemrefOp)
    target = interp.get(env, op.memref)
    address = interp.register_buffer(target.array)
    interp.set(env, op.ptr, PointerValue(address))
    interp.set(env, op.count, int(target.array.size))
    interp.set(env, op.dtype, DataTypeValue(str(target.array.dtype)))


@handler("mpi.allocate_requests")
def _run_allocate_requests(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.AllocateRequestsOp)
    interp.set(env, op.results[0], RequestArray(op.count))


@handler("mpi.get_request")
def _run_get_request(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.GetRequestOp)
    array = interp.get(env, op.requests)
    interp.set(env, op.results[0], RequestRef(array, op.index))


@handler("mpi.set_null_request")
def _run_set_null(interp: Interpreter, op: Operation, env: dict) -> None:
    _request_slot(interp.get(env, op.operands[0])).set_null()


@handler("mpi.send")
def _run_mpi_send(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.SendOp)
    comm = interp.require_comm()
    data = interp.as_array(interp.get(env, op.buffer)).reshape(-1)
    count = int(interp.get(env, op.count))
    comm.send(data[:count], int(interp.get(env, op.peer)), int(interp.get(env, op.tag)))
    interp.stats.mpi_messages += 1


@handler("mpi.recv")
def _run_mpi_recv(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.RecvOp)
    comm = interp.require_comm()
    data = interp.as_array(interp.get(env, op.buffer)).reshape(-1)
    count = int(interp.get(env, op.count))
    comm.recv(data[:count], int(interp.get(env, op.peer)), int(interp.get(env, op.tag)))


@handler("mpi.isend")
def _run_mpi_isend(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.IsendOp)
    comm = interp.require_comm()
    tracer = interp.tracer
    span = tracer.begin("halo.post") if tracer is not None else 0.0
    data = interp.as_array(interp.get(env, op.buffer)).reshape(-1)
    count = int(interp.get(env, op.count))
    comm.isend(data[:count], int(interp.get(env, op.peer)), int(interp.get(env, op.tag)))
    if tracer is not None:
        tracer.end("halo.post", span)
    interp.stats.mpi_messages += 1
    request = op.request
    assert request is not None
    _mark_send_complete(interp.get(env, request))


@handler("mpi.irecv")
def _run_mpi_irecv(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.IrecvOp)
    comm = interp.require_comm()
    data = interp.as_array(interp.get(env, op.buffer)).reshape(-1)
    count = int(interp.get(env, op.count))
    pending = comm.irecv(
        data[:count], int(interp.get(env, op.peer)), int(interp.get(env, op.tag))
    )
    request = op.request
    assert request is not None
    _store_pending(interp.get(env, request), pending)


@handler("mpi.wait")
def _run_mpi_wait(interp: Interpreter, op: Operation, env: dict) -> None:
    _wait_request(interp.require_comm(), interp.get(env, op.operands[0]))


@handler("mpi.test")
def _run_mpi_test(interp: Interpreter, op: Operation, env: dict) -> None:
    slot = _request_slot(interp.get(env, op.operands[0]))
    if slot.pending is None:
        interp.set(env, op.results[0], True)
    else:
        interp.set(env, op.results[0], slot.pending.test())


@handler("mpi.waitall")
def _run_mpi_waitall(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.WaitallOp)
    tracer = interp.tracer
    span = tracer.begin("halo.wait") if tracer is not None else 0.0
    _waitall(interp.require_comm(), interp.get(env, op.requests))
    if tracer is not None:
        tracer.end("halo.wait", span)


@handler("mpi.reduce")
def _run_mpi_reduce(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.ReduceOp)
    comm = interp.require_comm()
    send = interp.as_array(interp.get(env, op.send_buffer))
    recv = interp.as_array(interp.get(env, op.recv_buffer))
    root = int(interp.get(env, op.root)) if op.root is not None else 0
    result = comm.reduce(send, op.operation, root)
    if comm.rank == root and result is not None:
        np.copyto(recv, result)


@handler("mpi.allreduce")
def _run_mpi_allreduce(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.AllreduceOp)
    comm = interp.require_comm()
    send = interp.as_array(interp.get(env, op.send_buffer))
    recv = interp.as_array(interp.get(env, op.recv_buffer))
    np.copyto(recv, comm.allreduce(send, op.operation))


@handler("mpi.bcast")
def _run_mpi_bcast(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.BcastOp)
    comm = interp.require_comm()
    buffer = interp.as_array(interp.get(env, op.buffer))
    np.copyto(buffer, comm.bcast(buffer, int(interp.get(env, op.root))))


@handler("mpi.gather")
def _run_mpi_gather(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.GatherOp)
    comm = interp.require_comm()
    send = interp.as_array(interp.get(env, op.send_buffer))
    root = int(interp.get(env, op.root))
    gathered = comm.gather(send, root)
    if gathered is not None:
        recv = interp.as_array(interp.get(env, op.recv_buffer))
        np.copyto(recv.reshape(gathered.shape), gathered)


# ---------------------------------------------------------------------------
# gpu / omp / hls structural ops
# ---------------------------------------------------------------------------

@handler("gpu.host_synchronize")
def _run_host_sync(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.stats.host_synchronizations += 1


@handler("gpu.alloc")
def _run_gpu_alloc(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], MemRefValue.for_type(op.results[0].type))


@handler("gpu.dealloc")
def _run_gpu_dealloc(interp: Interpreter, op: Operation, env: dict) -> None:
    return


@handler("gpu.memcpy")
def _run_gpu_memcpy(interp: Interpreter, op: Operation, env: dict) -> None:
    dst = interp.get(env, op.operands[0])
    src = interp.get(env, op.operands[1])
    dst.copy_from(src)


@handler("omp.parallel")
def _run_omp_parallel(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, omp.ParallelOp)
    interp.stats.omp_regions += 1
    interp.run_block(op.body.block, env)


@handler("omp.wsloop")
def _run_omp_wsloop(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, omp.WsLoopOp)
    if interp.try_vectorized(op, env):
        return
    rank = op.rank
    lowers = [int(interp.get(env, v)) for v in op.lower_bounds]
    uppers = [int(interp.get(env, v)) for v in op.upper_bounds]
    steps = [int(interp.get(env, v)) for v in op.steps]
    block = op.body.block
    local_env = dict(env)  # scoped: body bindings must not leak to the caller

    def loop(dim: int, indices: list[int]) -> None:
        if dim == rank:
            for arg, value in zip(block.args, indices):
                local_env[arg] = value
            interp.run_block(block, local_env)
            interp.stats.cells_updated += 1
            return
        for position in range(lowers[dim], uppers[dim], steps[dim]):
            loop(dim + 1, indices + [position])

    loop(0, [])


@handler("omp.barrier")
def _run_omp_barrier(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.stats.omp_barriers += 1


@handler("hls.dataflow")
def _run_hls_dataflow(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, hls.DataflowOp)
    interp.run_block(op.body.block, env)


@handler("hls.stage")
def _run_hls_stage(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, hls.StageOp)
    if op.regions and op.regions[0].blocks:
        interp.run_block(op.regions[0].block, env)


@handler("hls.shift_buffer")
def _run_hls_shift_buffer(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.get(env, op.operands[0]))


def run_function(
    module: builtin.ModuleOp,
    function_name: str,
    args: Sequence[Any] = (),
    *,
    comm: Optional[CommunicatorBase] = None,
) -> tuple[list[Any], ExecStatistics]:
    """Convenience wrapper: run one function and return (results, statistics)."""
    interpreter = Interpreter(module, comm=comm)
    results = interpreter.call(function_name, *args)
    return results, interpreter.stats
