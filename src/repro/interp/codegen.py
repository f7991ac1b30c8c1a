"""Megakernel code generation: trace the time loop once, emit one function.

Even with vectorized nests and pre-resolved block plans, every timestep of a
``Plan.run()`` still walks a ``PlannedOp`` list: per-op dispatch, pending-halo
checks, environment dict traffic.  On small grids with many timesteps that
dispatch — not the NumPy work — dominates.  This module erases it: the
program's time loop is *traced* once (:func:`trace_program`) and *emitted*
(:func:`emit_megakernel`) as a single straight-line Python function — fused
whole-array NumPy statements for every compiled nest, ``dmp.swap``
isend/irecv posts, interior-box execution and halo completion points inlined
at fixed program points — compiled with :func:`compile` and executed directly.

The discipline mirrors the interpreter exactly:

* statement emission reuses :mod:`repro.interp.vectorize`'s expression
  templates and the *real* ``CompiledNest`` geometry machinery
  (``_resolve_regions`` / ``_plan_overlap`` / ``_aliasing_is_safe``), replayed
  at emit time against the concrete buffers, so the generated slices and the
  overlap decisions are the ones the dynamic path would have made;
* swap geometry comes from :func:`repro.interp.interpreter.swap_message_plan`,
  the same per-(op, rank) plan the swap handler executes;
* every statistics counter is *statically hoisted*: the emitted function adds
  ``pre + trips * per_iteration`` to each field up front, reproducing the
  planned-op path's counts bit-for-bit;
* arrays are register-allocated: full-box values of known dtype live in
  scratch buffers allocated once per call and reused by liveness, written
  through ufunc outputs, so a time step allocates no NumPy temporaries.

Anything the tracer cannot prove — data-dependent control flow, runtime-
dependent nest geometry, reductions, aliased buffers, untraceable ops — is
rejected with a :class:`CodegenError` carrying an explicit reason string; the
caller then records a :class:`CodegenFallback` and keeps the ``PlannedOp``
path, exactly like :class:`~repro.interp.vectorize.VectorizeFallback` does per
nest.

Set ``REPRO_DUMP_MEGAKERNEL=1`` to dump every generated source to stderr.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from typing import Any, Optional

import numpy as np

from ..dialects import arith, dmp, omp, scf
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import Operation, SSAValue
from ..ir.types import IntegerType
from .interpreter import swap_message_plan
from .vectorize import (
    BINARY_UFUNCS,
    UNARY_UFUNCS,
    CompiledKernel,
    CompiledNest,
    _Bailout,
    binary_expression,
    ufunc_call,
    unary_expression,
    widen_expression,
)


class CodegenError(Exception):
    """A program (or one plan of it) cannot be megakernel-compiled.

    The message is the fallback reason surfaced to users; it must say *what*
    the tracer could not prove, not where it gave up.
    """


class CodegenFallback:
    """Why a plan bounced to the planned-op path (mirrors VectorizeFallback)."""

    __slots__ = ("function_name", "reason")

    def __init__(self, function_name: str, reason: str):
        self.function_name = function_name
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.function_name}: {self.reason}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodegenFallback({self.function_name!r}, {self.reason!r})"


_CAST_OPS = ("builtin.unrealized_conversion_cast", "memref.cast")

#: Symbolic values of the tracer:
#:   ("arg", i)    — function block argument i (constant across iterations)
#:   ("const", x)  — compile-time literal
#:   ("slot", k)   — loop-carried value k of the time loop (rotates per step)
#:   ("iv",)       — the time-loop induction variable
_Sym = tuple


class _LoopInfo:
    """The traced time loop: bounds, carried-slot initialization, rotation."""

    __slots__ = ("op", "lower", "upper", "step", "init_args", "perm")

    def __init__(self, op, lower: _Sym, upper: _Sym, step: int,
                 init_args: list[int], perm: list[int]):
        self.op = op
        self.lower = lower
        self.upper = upper
        self.step = step
        #: ``init_args[k]`` = the function-argument index slot ``k`` starts as.
        self.init_args = init_args
        #: ``perm[j]`` = the slot whose value becomes slot ``j`` next step.
        self.perm = perm


class MegakernelTrace:
    """One traced program: steps of the loop body plus hoisted statistics.

    ``steps`` holds ``("swap", op, src_sym, ordinal)`` and
    ``("nest", op, nest, base_syms)`` records in program order; the in-flight
    halo bookkeeping (prefix completion before a swap of the same buffer,
    overlap decisions at each nest) is replayed by the emitter against the
    concrete buffers, where the geometry is known.
    """

    __slots__ = ("function_name", "func_op", "loop", "steps", "sym", "overlap",
                 "arg_count", "pre_ops", "iter_ops", "iter_omp_regions",
                 "iter_omp_barriers", "iter_kernel_launches", "iter_halo_swaps")

    def __init__(self, function_name: str, func_op, loop, steps, sym,
                 overlap: bool, arg_count: int, pre_ops: int, iter_ops: int,
                 iter_omp_regions: int, iter_omp_barriers: int,
                 iter_kernel_launches: int, iter_halo_swaps: int):
        self.function_name = function_name
        self.func_op = func_op
        self.loop = loop
        self.steps = steps
        self.sym = sym
        self.overlap = overlap
        self.arg_count = arg_count
        self.pre_ops = pre_ops
        self.iter_ops = iter_ops
        self.iter_omp_regions = iter_omp_regions
        self.iter_omp_barriers = iter_omp_barriers
        self.iter_kernel_launches = iter_kernel_launches
        self.iter_halo_swaps = iter_halo_swaps


def trace_program(func_op, kernel: CompiledKernel, *,
                  overlap: bool = True) -> MegakernelTrace:
    """Trace one function into a :class:`MegakernelTrace`.

    Raises :class:`CodegenError` (with the fallback reason) when the function
    does not fit the megakernel shape: an optional constant/cast preamble, at
    most one loop-carried ``scf.for`` time loop whose body consists solely of
    halo swaps, OpenMP structure and compiled vectorizable nests, and a bare
    ``func.return``.
    """
    return _Tracer(func_op, kernel, overlap).trace()


class _Tracer:
    def __init__(self, func_op, kernel: CompiledKernel, overlap: bool):
        self.func_op = func_op
        self.kernel = kernel
        self.overlap = overlap
        self.sym: dict[SSAValue, _Sym] = {}
        self.steps: list[tuple] = []
        self.iter_ops = 0
        self.iter_omp_regions = 0
        self.iter_omp_barriers = 0
        self.iter_kernel_launches = 0
        self.iter_halo_swaps = 0

    def trace(self) -> MegakernelTrace:
        block = self.func_op.body.block
        for index, block_arg in enumerate(block.args):
            self.sym[block_arg] = ("arg", index)
        ops = list(block.ops)
        if not ops:
            raise CodegenError("the function body is empty")

        loop_index: Optional[int] = None
        for index, op in enumerate(ops):
            if isinstance(op, scf.ForOp) and op.iter_args:
                loop_index = index
                break

        if loop_index is None:
            # No time loop: the whole body is one straight-line segment.
            terminator = ops[-1]
            self._require_bare_return(terminator)
            loop = None
            pre_ops = 1  # the func.return
            self._trace_segment(ops[:-1])
        else:
            for op in ops[:loop_index]:
                self._trace_preamble_op(op)
            loop_op = ops[loop_index]
            remainder = ops[loop_index + 1 :]
            if len(remainder) != 1:
                raise CodegenError(
                    "operations after the time loop cannot be megakernel-"
                    "compiled"
                )
            self._require_bare_return(remainder[0])
            for result in loop_op.results:
                if result.uses:
                    raise CodegenError(
                        "the time loop's results are used after the loop"
                    )
            loop = self._trace_loop(loop_op)
            pre_ops = loop_index + 2  # preamble + scf.for + func.return

        return MegakernelTrace(
            self.func_op.sym_name, self.func_op, loop, self.steps, self.sym,
            self.overlap, len(block.args), pre_ops, self.iter_ops,
            self.iter_omp_regions, self.iter_omp_barriers,
            self.iter_kernel_launches, self.iter_halo_swaps,
        )

    # -- structure ----------------------------------------------------------
    @staticmethod
    def _require_bare_return(op: Operation) -> None:
        if op.name != "func.return" or op.operands:
            raise CodegenError(
                "the function must end in a value-less func.return"
            )

    def _trace_preamble_op(self, op: Operation) -> None:
        if isinstance(op, arith.ConstantOp):
            self.sym[op.results[0]] = ("const", self._constant_literal(op))
            return
        if op.name in _CAST_OPS:
            self.sym[op.results[0]] = self._sym_of(op.operands[0])
            return
        raise CodegenError(
            f"operation {op.name!r} before the time loop cannot be "
            "megakernel-compiled"
        )

    def _trace_loop(self, op: scf.ForOp) -> _LoopInfo:
        lower = self._bound_sym(op.lower_bound, "lower bound")
        upper = self._bound_sym(op.upper_bound, "upper bound")
        step_sym = self._sym_of(op.step)
        if step_sym[0] != "const" or not self._is_int(step_sym[1]) \
                or step_sym[1] <= 0:
            raise CodegenError(
                "the time-loop step must be a positive constant"
            )
        init_args: list[int] = []
        for value in op.iter_args:
            sym = self._sym_of(value)
            if sym[0] != "arg" or sym[1] in init_args:
                raise CodegenError(
                    "every loop-carried value must be a distinct function "
                    "argument"
                )
            init_args.append(sym[1])
        block = op.body.block
        self.sym[block.args[0]] = ("iv",)
        for slot, block_arg in enumerate(block.args[1:]):
            self.sym[block_arg] = ("slot", slot)
        body_ops = list(block.ops)
        terminator = body_ops[-1] if body_ops else None
        if not isinstance(terminator, scf.YieldOp):
            raise CodegenError("the time-loop body must end in scf.yield")
        self._trace_segment(body_ops[:-1])
        self.iter_ops += 1  # the scf.yield is dispatched once per iteration
        perm: list[int] = []
        for operand in terminator.operands:
            sym = self._sym_of(operand)
            if sym[0] != "slot":
                raise CodegenError(
                    "the time loop must yield a permutation of its "
                    "loop-carried values"
                )
            perm.append(sym[1])
        if sorted(perm) != list(range(len(op.iter_args))):
            raise CodegenError(
                "the time loop must yield a permutation of its loop-carried "
                "values"
            )
        # A buffer reachable both directly (as the function argument) and
        # through a rotating slot would make nest geometry parity-dependent
        # in ways the per-parity replay cannot always separate; reject.
        for kind, *rest in self.steps:
            syms = [rest[1]] if kind == "swap" else rest[2]
            for sym in syms:
                if sym[0] == "arg" and sym[1] in init_args:
                    raise CodegenError(
                        "a field argument is used both directly and as a "
                        "loop-carried buffer"
                    )
        return _LoopInfo(op, lower, upper, step_sym[1], init_args, perm)

    def _bound_sym(self, value: SSAValue, what: str) -> _Sym:
        sym = self._sym_of(value)
        if sym[0] == "const":
            if not self._is_int(sym[1]):
                raise CodegenError(f"the time-loop {what} must be an integer")
            return sym
        if sym[0] == "arg":
            return sym
        raise CodegenError(
            f"the time-loop {what} must be a constant or a function argument"
        )

    # -- the loop-body segment ----------------------------------------------
    def _trace_segment(self, ops: list[Operation]) -> None:
        for op in ops:
            self._trace_op(op)

    def _trace_op(self, op: Operation) -> None:
        self.iter_ops += 1
        name = op.name
        if isinstance(op, arith.ConstantOp):
            self.sym[op.results[0]] = ("const", self._constant_literal(op))
            return
        if name in _CAST_OPS:
            self.sym[op.results[0]] = self._sym_of(op.operands[0])
            return
        if isinstance(op, dmp.SwapOp):
            src = self._sym_of(op.data)
            if src[0] not in ("arg", "slot"):
                raise CodegenError(
                    "dmp.swap operates on a buffer that is not a function "
                    "argument"
                )
            ordinal = self.iter_halo_swaps
            self.iter_halo_swaps += 1
            self.steps.append(("swap", op, src, ordinal))
            return
        if isinstance(op, omp.ParallelOp):
            self.iter_omp_regions += 1
            self._trace_segment(list(op.body.block.ops))
            return
        if name == "omp.barrier":
            self.iter_omp_barriers += 1
            return
        if name in ("omp.terminator", "gpu.terminator"):
            return
        if isinstance(op, (scf.ParallelOp, omp.WsLoopOp, scf.ForOp)):
            self._trace_nest(op)
            return
        raise CodegenError(
            f"operation {name!r} cannot be megakernel-compiled"
        )

    def _trace_nest(self, op: Operation) -> None:
        if isinstance(op, scf.ParallelOp) and "gpu_kernel" in op.attributes:
            self.iter_kernel_launches += 1
        nest = self.kernel.nest_for(op)
        if nest is None:
            fallback = self.kernel.fallback_for(op)
            raise CodegenError(
                str(fallback) if fallback is not None
                else f"{op.name} has no compiled vectorized nest"
            )
        if nest.has_reduce:
            raise CodegenError(
                "reduction nests cannot be megakernel-compiled"
            )
        if op.results:
            raise CodegenError(
                "loop nests producing values cannot be megakernel-compiled"
            )
        base_syms = self._validate_nest(nest)
        self.steps.append(("nest", op, nest, base_syms))

    def _validate_nest(self, nest: CompiledNest) -> list[_Sym]:
        """Check the nest's geometry and value refs are emit-time resolvable.

        Returns the symbolic identities of every load/store base buffer, in
        instruction order (consumed by the loop-carried-alias check and the
        emitter's buffer binding).
        """
        for lower, upper, step in (*nest.bounds, *nest.count_bounds):
            for affine in (lower, upper, step):
                self._require_const_affine(affine)
        base_syms: list[_Sym] = []
        for instr in nest.instrs:
            kind = instr[0]
            if kind in ("load", "store"):
                base_sym = self._sym_of(instr[2])
                if base_sym[0] not in ("arg", "slot"):
                    raise CodegenError(
                        "nest buffer is not a function argument"
                    )
                base_syms.append(base_sym)
                for affine in instr[3]:
                    self._require_const_affine(affine)
                if kind == "store":
                    self._validate_ref(instr[1])
            elif kind == "binary":
                self._validate_ref(instr[3])
                self._validate_ref(instr[4])
            elif kind == "unary":
                self._validate_ref(instr[3])
            elif kind == "select":
                for ref in instr[2:5]:
                    self._validate_ref(ref)
        return base_syms

    def _validate_ref(self, ref: tuple) -> None:
        tag = ref[0]
        if tag in ("arr", "const"):
            return
        if tag == "free":
            sym = self.sym.get(ref[1])
            if sym is None or sym[0] not in ("const", "arg", "iv"):
                raise CodegenError(
                    "nest reads a value the tracer cannot resolve"
                )
            return
        # ("aff", affine): materialized per box; its free terms must be
        # emit-time constants.
        self._require_const_affine(ref[1])

    def _require_const_affine(self, affine) -> None:
        for value in affine.free:
            sym = self.sym.get(value)
            if sym is None or sym[0] != "const" or not self._is_int(sym[1]):
                raise CodegenError(
                    "nest geometry depends on runtime values"
                )

    # -- leaves ---------------------------------------------------------------
    def _constant_literal(self, op: arith.ConstantOp):
        attr = op.value
        if isinstance(attr, IntegerAttr):
            result_type = op.results[0].type
            if isinstance(result_type, IntegerType) and result_type.width == 1:
                return bool(attr.value)
            return int(attr.value)
        if isinstance(attr, FloatAttr):
            return float(attr.value)
        raise CodegenError("unsupported constant payload")

    def _sym_of(self, value: SSAValue) -> _Sym:
        sym = self.sym.get(value)
        if sym is None:
            raise CodegenError(
                "value has no traceable definition"
            )
        return sym

    @staticmethod
    def _is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# emit-time geometry replay support
# ---------------------------------------------------------------------------

class _MockReceive:
    """Stand-in for _HaloReceive: the geometry _plan_overlap consults."""

    __slots__ = ("axis", "recv_slice")

    def __init__(self, axis: int, recv_slice: tuple):
        self.axis = axis
        self.recv_slice = recv_slice


class _MockHalo:
    """Stand-in for PendingHalo: feeds CompiledNest._plan_overlap at emit."""

    __slots__ = ("array", "items")

    def __init__(self, array: np.ndarray, items: list):
        self.array = array
        self.items = items


class _EmitAdapter:
    """Interpreter stand-in for geometry resolution: env holds raw arrays."""

    @staticmethod
    def as_array(value):
        return value


_EMIT_INTERP = _EmitAdapter()


# ---------------------------------------------------------------------------
# runtime helpers referenced by generated code
# ---------------------------------------------------------------------------

def _post_swap(comm, array, plan):
    """Post one dmp.swap: buffered sends first, then staged receives.

    Statistics are *not* counted here — the generated function hoists them.
    The payload-copy-before-any-post order matches the interpreter's swap
    handler exactly.
    """
    payloads = [
        (array[send_slice].copy(), neighbor, tag)
        for send_slice, neighbor, tag in plan.sends
    ]
    for payload, neighbor, tag in payloads:
        comm.isend(payload, neighbor, tag)
    items = []
    for recv_slice, neighbor, tag, shape, _elements, _axis in plan.receives:
        buffer = np.empty(shape, dtype=array.dtype)
        items.append((comm.irecv(buffer, neighbor, tag), buffer, recv_slice))
    return array, items


def _complete_swap(comm, posted):
    """Wait for one posted swap's receives and land them, in posting order."""
    array, items = posted
    for request, buffer, recv_slice in items:
        comm.wait(request)
        array[recv_slice] = buffer


class CompiledMegakernel:
    """One compiled megakernel: a single Python function per (plan, rank).

    ``run`` re-checks what only the concrete call can prove — argument
    layout and pairwise buffer aliasing — and returns False to bounce that
    run to the planned-op path when the guard fails.
    """

    __slots__ = ("label", "source", "signature", "array_indices", "traced",
                 "scratch_bytes", "_fn")

    def __init__(self, label: str, source: str, signature: tuple,
                 array_indices: tuple, namespace: dict, traced: bool = False,
                 scratch_bytes: int = 0):
        self.label = label
        self.source = source
        self.signature = signature
        self.array_indices = array_indices
        #: Whether span bookkeeping was inlined at emission time.  Traced and
        #: untraced kernels are separate cache entries; the untraced source is
        #: statement-identical to a build without observability at all.
        self.traced = traced
        #: Scratch bytes each call allocates up front; no step allocates more.
        self.scratch_bytes = scratch_bytes
        code = compile(source, f"<megakernel:{label}>", "exec")
        exec(code, namespace)
        self._fn = namespace["_megakernel"]

    def matches(self, args) -> bool:
        """Whether ``args`` has the traced layout (count, shapes, dtypes)."""
        count, arrays = self.signature
        if len(args) != count:
            return False
        array_positions = set()
        for index, shape, dtype in arrays:
            value = args[index]
            if not isinstance(value, np.ndarray) or value.shape != shape \
                    or value.dtype.str != dtype:
                return False
            array_positions.add(index)
        for index, value in enumerate(args):
            if index not in array_positions and isinstance(value, np.ndarray):
                return False
        return True

    def run(self, args, stats, comm=None, tracer=None) -> bool:
        """Execute; False bounces to the planned path (aliased buffers)."""
        arrays = [args[index] for index in self.array_indices]
        for first in range(len(arrays)):
            for second in range(first + 1, len(arrays)):
                if np.shares_memory(arrays[first], arrays[second]):
                    return False
        if self.traced:
            self._fn(args, stats, comm, tracer)
        else:
            self._fn(args, stats, comm)
        return True


def megakernel_signature(args) -> tuple:
    """The layout key of an argument list: count + per-array (i, shape, dtype)."""
    return (
        len(args),
        tuple(
            (index, value.shape, value.dtype.str)
            for index, value in enumerate(args)
            if isinstance(value, np.ndarray)
        ),
    )


# ---------------------------------------------------------------------------
# the emitter
# ---------------------------------------------------------------------------

def _perm_order(perm: list[int]) -> int:
    order = 1
    seen: set[int] = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, position = 0, start
        while position not in seen:
            seen.add(position)
            position = perm[position]
            length += 1
        order = math.lcm(order, length)
    return order


def _slice_src(slices) -> str:
    parts = []
    for piece in slices:
        if piece.step in (None, 1):
            parts.append(f"{piece.start}:{piece.stop}")
        else:
            parts.append(f"{piece.start}:{piece.stop}:{piece.step}")
    return ", ".join(parts)


def _slice_key(slices) -> tuple:
    return tuple((piece.start, piece.stop, piece.step) for piece in slices)


def _last_uses(instrs) -> dict:
    """Position of each nest value's last read; store reads count at the end.

    A store's commit is deferred past the last instruction (and a prepared
    value may still view its source), so the value it stores must stay
    intact until the end of the box.
    """
    end = len(instrs)
    last: dict[SSAValue, int] = {}
    for position, instr in enumerate(instrs):
        for value in _operand_values(instr):
            last[value] = end if instr[0] == "store" else position
    return last


def _operand_values(instr) -> list:
    """The nest values (``("arr", v)`` refs) an instruction reads."""
    kind = instr[0]
    if kind == "store":
        refs = (instr[1],)
    elif kind == "binary":
        refs = (instr[3], instr[4])
    elif kind == "unary":
        refs = (instr[3],)
    elif kind == "select":
        refs = instr[2:5]
    else:
        refs = ()
    return [ref[1] for ref in refs if ref[0] == "arr"]


class _BoxScratch:
    """Liveness-driven register allocation of one box's full-box values.

    A register is one scratch buffer of the box's shape and one dtype.  It
    is busy while any live value may reference it: the value computed into
    it, and conservatively every value an allocating statement derived from
    it (``_np.asarray`` of a float64 array, a context callable, ...), since
    such a result may alias its operand.  A register is handed out again
    only once all of those are dead, so no live value is ever overwritten.
    Only registers are ever chosen as outputs — never field views.
    """

    def __init__(self, last_use: dict):
        self.last_use = last_use
        self.holders: dict[tuple, set] = {}
        self.refs: dict[SSAValue, set] = {}

    def output(self, dtype: np.dtype, operands: list, position: int) -> tuple:
        """A free register for a result at ``position``, in place if possible.

        A register whose every holder dies at this instruction is free for
        the result: the ufunc reads each element before writing it.
        """
        dying = {value for value in operands
                 if self.last_use.get(value) == position}
        for value in operands:
            for key in self.refs.get(value, ()):
                if key[0] == dtype.str and self.holders[key] <= dying:
                    return key
        busy = {key[1] for key in self.holders if key[0] == dtype.str}
        index = 0
        while index in busy:
            index += 1
        return (dtype.str, index)

    def define(self, value: SSAValue, key: Optional[tuple], operands: list,
               position: int) -> None:
        """Record ``value``'s storage and retire operands dying here."""
        aliased = set() if key is not None else {
            ref for operand in operands for ref in self.refs.get(operand, ())
        }
        for operand in set(operands):
            if self.last_use.get(operand) == position:
                self._release(operand)
        held = {key} if key is not None else aliased
        if held and value in self.last_use:
            self.refs[value] = held
            for ref in held:
                self.holders.setdefault(ref, set()).add(value)

    def _release(self, value: SSAValue) -> None:
        for key in self.refs.pop(value, ()):
            holders = self.holders[key]
            holders.discard(value)
            if not holders:
                del self.holders[key]


def _known_operand(operand: tuple) -> bool:
    """Whether an operand's dtype is statically known exactly."""
    if operand[1]:
        return isinstance(operand[2], np.dtype)
    return operand[2] in ("pyint", "pyfloat", "pybool")


def emit_megakernel(trace: MegakernelTrace, sample_args, *, rank: int = 0,
                    size: int = 1, label: Optional[str] = None,
                    traced: bool = False) -> CompiledMegakernel:
    """Emit (and compile) the megakernel of ``trace`` for one rank.

    ``sample_args`` fixes the buffer layout the generated code is specialized
    to; :meth:`CompiledMegakernel.matches` gates reuse on later calls.
    Raises :class:`CodegenError` with a fallback reason when the concrete
    geometry cannot be emitted (aliased fields, rotation-dependent geometry,
    un-sliceable regions...).

    With ``traced=True`` the generated function takes a fourth ``_tracer``
    argument and brackets each timestep, nest, and halo post/wait with span
    bookkeeping.  With ``traced=False`` (the default) no bookkeeping is
    emitted at all — the source is statement-identical to a build without
    the observability layer.
    """
    emitter = _MegakernelEmitter(trace, list(sample_args), rank, size,
                                 traced=traced)
    return emitter.emit(
        label or f"{trace.function_name}@r{rank}of{size}"
    )


class _MegakernelEmitter:
    def __init__(self, trace: MegakernelTrace, args: list, rank: int, size: int,
                 traced: bool = False):
        self.trace = trace
        self.args = args
        self.rank = rank
        self.size = size
        self.traced = traced
        self._span = 0
        if len(args) != trace.arg_count:
            raise CodegenError(
                f"expected {trace.arg_count} arguments, got {len(args)}"
            )
        self.static_env = {
            value: sym[1] for value, sym in trace.sym.items()
            if sym[0] == "const"
        }
        self.array_indices = tuple(
            index for index, value in enumerate(args)
            if isinstance(value, np.ndarray)
        )
        arrays = [args[index] for index in self.array_indices]
        for first in range(len(arrays)):
            for second in range(first + 1, len(arrays)):
                if np.shares_memory(arrays[first], arrays[second]):
                    raise CodegenError("field arguments alias each other")
        # Source-building state (filled by the parity-0 replay).
        self.lines: list[tuple[int, str]] = []
        self.ctx: list[Any] = []
        self._var = 0
        self.iter_cells = 0
        self.iter_mpi_messages = 0
        self.iter_halo_elements = 0
        self.iter_overlapped = 0
        #: Scratch registers: (dtype str, index) -> {box shape: view name}.
        self.scratch: dict[tuple, dict[tuple, str]] = {}

    # -- argument/slot resolution -------------------------------------------
    def _array_for(self, sym: _Sym, slot_arrays: list) -> np.ndarray:
        if sym[0] == "slot":
            return slot_arrays[sym[1]]
        value = self.args[sym[1]]
        if not isinstance(value, np.ndarray):
            raise CodegenError("a traced buffer argument is not an array")
        return value

    @staticmethod
    def _var_for(sym: _Sym) -> str:
        return f"b{sym[1]}" if sym[0] == "slot" else f"a{sym[1]}"

    def _new_var(self) -> str:
        self._var += 1
        return f"_v{self._var}"

    def _span_lines(self, name: str) -> tuple[str, str]:
        """Begin/end source lines for one inlined span (unique local var)."""
        self._span += 1
        var = f"_s{self._span}"
        return (
            f"{var} = _tracer.begin('{name}')",
            f"_tracer.end('{name}', {var})",
        )

    def _add_ctx(self, value) -> int:
        self.ctx.append(value)
        return len(self.ctx) - 1

    # -- top level -----------------------------------------------------------
    def emit(self, label: str) -> CompiledMegakernel:
        trace = self.trace
        loop = trace.loop
        if loop is None:
            parities = 1
            init_slots: list = []
        else:
            parities = _perm_order(loop.perm)
            if parities > 8:
                raise CodegenError(
                    "buffer rotation period too long to validate"
                )
            init_slots = [self.args[index] for index in loop.init_args]
            for value in init_slots:
                if not isinstance(value, np.ndarray):
                    raise CodegenError(
                        "a loop-carried buffer argument is not an array"
                    )
        slot_arrays = list(init_slots)
        reference = self._replay(slot_arrays, emit=True)
        for _parity in range(1, parities):
            slot_arrays = [slot_arrays[j] for j in loop.perm]
            if self._replay(slot_arrays, emit=False) != reference:
                raise CodegenError("buffer rotation changes nest geometry")
        source = self._render(label)
        if os.environ.get("REPRO_DUMP_MEGAKERNEL", "0") not in ("", "0"):
            print(f"# --- megakernel {label} ---\n{source}", file=sys.stderr)
        namespace = {
            "_np": np,
            "_ctx": tuple(self.ctx),
            "_post": _post_swap,
            "_cm": _complete_swap,
        }
        return CompiledMegakernel(
            label, source, megakernel_signature(self.args),
            self.array_indices, namespace, traced=self.traced,
            scratch_bytes=self._scratch_bytes(),
        )

    # -- one-iteration replay -------------------------------------------------
    def _replay(self, slot_arrays: list, emit: bool) -> tuple:
        """Replay one loop iteration against concrete (parity) buffers.

        Returns the geometry signature of every action taken; the emit pass
        (parity 0) additionally records source lines, context values and the
        hoisted per-iteration statistics.  Every decision — swap prefix
        completion, overlap split, slice resolution — is the one the dynamic
        path would make, so comparing signatures across parities proves the
        single emitted body is exact for all of them.
        """
        actions: list[tuple] = []
        # In-flight swaps: (ordinal, array, mock halo, element count).
        inflight: list[tuple] = []

        def complete(entries: list[tuple], overlapped: bool) -> None:
            for ordinal, _array, _mock, elements in entries:
                actions.append(("complete", ordinal, overlapped))
                if emit:
                    if self.traced:
                        begin, end = self._span_lines("halo.wait")
                        self.lines.append((1, begin))
                        self.lines.append((1, f"_cm(_comm, _h{ordinal})"))
                        self.lines.append((1, end))
                    else:
                        self.lines.append((1, f"_cm(_comm, _h{ordinal})"))
                    self.iter_halo_elements += elements
                    if overlapped:
                        self.iter_overlapped += 1

        for step in self.trace.steps:
            if step[0] == "swap":
                _, op, src, ordinal = step
                array = self._array_for(src, slot_arrays)
                actions.append(("swap", ordinal, array.shape, array.dtype.str))
                # complete_pending_halos_touching: the posting-order prefix
                # up to the last halo sharing this buffer.
                last = -1
                for index, entry in enumerate(inflight):
                    if entry[1] is array or np.shares_memory(entry[1], array):
                        last = index
                if last >= 0:
                    complete(inflight[: last + 1], overlapped=False)
                    del inflight[: last + 1]
                if self.size == 1:
                    continue
                plan = swap_message_plan(op, self.rank)
                mock = _MockHalo(
                    array,
                    [_MockReceive(axis, recv_slice)
                     for recv_slice, _n, _t, _s, _e, axis in plan.receives],
                )
                elements = sum(record[4] for record in plan.receives)
                entry = (ordinal, array, mock, elements)
                if emit:
                    slot = self._add_ctx(plan)
                    variable = self._var_for(src)
                    if self.traced:
                        begin, end = self._span_lines("halo.post")
                        self.lines.append((1, begin))
                        self.lines.append(
                            (1, f"_h{ordinal} = _post(_comm, {variable}, "
                                f"_ctx[{slot}])")
                        )
                        self.lines.append((1, end))
                    else:
                        self.lines.append(
                            (1, f"_h{ordinal} = _post(_comm, {variable}, "
                                f"_ctx[{slot}])")
                        )
                    self.iter_mpi_messages += len(plan.sends)
                if self.trace.overlap:
                    inflight.append(entry)
                else:
                    complete([entry], overlapped=False)
            else:
                _, op, nest, base_syms = step
                self._replay_nest(
                    nest, base_syms, slot_arrays, inflight, actions,
                    complete, emit,
                )

        if inflight:
            if self.trace.loop is not None:
                raise CodegenError(
                    "a halo exchange is still in flight at the end of the "
                    "time-loop body"
                )
            # No time loop: the interpreter completes leftovers at function
            # end (non-overlapped).
            complete(inflight, overlapped=False)
            inflight.clear()
        return tuple(actions)

    def _replay_nest(self, nest: CompiledNest, base_syms, slot_arrays,
                     inflight, actions, complete, emit: bool) -> None:
        env: dict = dict(self.static_env)
        position_syms: dict[int, _Sym] = {}
        sym_iter = iter(base_syms)
        for position, instr in enumerate(nest.instrs):
            if instr[0] in ("load", "store"):
                sym = next(sym_iter)
                position_syms[position] = sym
                env[instr[2]] = self._array_for(sym, slot_arrays)
        try:
            dims = nest._concrete_dims(env, nest.bounds)
            cells = nest._cell_count(env)
            resolved = nest._resolve_regions(_EMIT_INTERP, env, dims)
            loads, stores, regions = resolved
            if not nest._aliasing_is_safe(loads, stores, regions):
                raise CodegenError(
                    "aliasing stores: load/store regions overlap between "
                    "cells"
                )
            overlap_plan = None
            if inflight:
                mocks = [entry[2] for entry in inflight]
                plan = nest._plan_overlap(env, dims, resolved, mocks)
                if plan is None:
                    complete(list(inflight), overlapped=False)
                    inflight.clear()
                elif plan != "defer":
                    overlap_plan = plan
            actions.append(("nest", cells, tuple(dims)))
            if emit:
                self.iter_cells += cells
            spans = emit and self.traced
            if spans:
                nest_begin, nest_end = self._span_lines("nest")
                self.lines.append((1, nest_begin))
            if overlap_plan is None:
                self._emit_box(
                    nest, position_syms, env, dims, resolved, actions, emit
                )
            else:
                interior_dims, strips = overlap_plan
                interior_dims = [tuple(dim) for dim in interior_dims]
                interior = nest._resolve_regions(
                    _EMIT_INTERP, env, interior_dims
                )
                if spans:
                    in_begin, in_end = self._span_lines("nest.interior")
                    self.lines.append((1, in_begin))
                self._emit_box(
                    nest, position_syms, env, interior_dims, interior,
                    actions, emit,
                )
                if spans:
                    self.lines.append((1, in_end))
                complete(list(inflight), overlapped=True)
                inflight.clear()
                if spans:
                    bd_begin, bd_end = self._span_lines("nest.boundary")
                    self.lines.append((1, bd_begin))
                for strip_dims in strips:
                    strip_dims = [tuple(dim) for dim in strip_dims]
                    strip = nest._resolve_regions(
                        _EMIT_INTERP, env, strip_dims
                    )
                    self._emit_box(
                        nest, position_syms, env, strip_dims, strip,
                        actions, emit,
                    )
                if spans:
                    self.lines.append((1, bd_end))
            if spans:
                self.lines.append((1, nest_end))
        except _Bailout as bail:
            raise CodegenError(f"nest cannot be emitted: {bail.reason}")

    # -- one box of one nest --------------------------------------------------
    def _emit_box(self, nest: CompiledNest, position_syms, env, box_dims,
                  resolved, actions, emit: bool) -> None:
        """Emit the straight-line statements of one (nest, box) pair.

        The statement order mirrors ``CompiledNest._prepare_box`` exactly:
        loads and element-wise math in instruction order, store values
        prepared in place, every commit deferred past the last instruction.

        Full-box values of known dtype live in scratch registers allocated
        once per call (:class:`_BoxScratch`): a widening load becomes
        ``_np.copyto(register, view)`` and an operator its ufunc with a
        positional output, in place when an operand dies there.  The last
        operation of a single-store nest writes straight into the stored
        field region.  Every other value keeps its allocating statement.
        """
        loads, stores, regions = resolved
        actions.append((
            "box",
            tuple(box_dims),
            tuple(
                (position, _slice_key(slices), view_shape, region_shape)
                for position, (array, slices, view_shape, region_shape)
                in sorted(regions.items())
            ),
        ))
        if not emit:
            return
        instrs = nest.instrs
        nest_shape = tuple(
            len(range(lower, upper, step)) for lower, upper, step in box_dims
        )
        force_copy = sum(1 for instr in instrs if instr[0] == "store") > 1
        direct = None if force_copy else self._direct_store(
            instrs, position_syms, regions, nest_shape
        )
        stored_directly = False
        scratch = _BoxScratch(_last_uses(instrs))
        values: dict[SSAValue, tuple] = {}
        commits: list[str] = []
        for position, instr in enumerate(instrs):
            kind = instr[0]
            operands = _operand_values(instr)
            key = None
            if kind == "load":
                array, slices, view_shape, _ = regions[position]
                variable = self._var_for(position_syms[position])
                source = f"{variable}[{_slice_src(slices)}]"
                if array[slices].shape != view_shape:
                    source += f".reshape({view_shape!r})"
                dtype_kind = array.dtype.kind
                if dtype_kind == "f":
                    dtype: Any = np.dtype(np.float64)
                elif dtype_kind == "b":
                    dtype = array.dtype
                else:
                    dtype = np.dtype(np.int64)
                widened = widen_expression(source, array.dtype)
                if (widened != source and view_shape == nest_shape
                        and np.can_cast(array.dtype, dtype, "same_kind")):
                    key = scratch.output(dtype, operands, position)
                    name = self._register(key, nest_shape)
                    self.lines.append((1, f"_np.copyto({name}, {source})"))
                else:
                    # Unwidened loads stay views of the field: never outputs.
                    name = self._new_var()
                    self.lines.append((1, f"{name} = {widened}"))
                values[instr[1]] = (name, True, dtype, view_shape)
            elif kind == "store":
                if stored_directly:
                    continue  # the producer already wrote the field region
                array, slices, _, region_shape = regions[position]
                ref = self._resolve_ref(instr[1], values, box_dims)
                expr, is_array, dtype, shape = ref
                variable = self._var_for(position_syms[position])
                try:
                    if np.broadcast_shapes(shape, nest_shape) != nest_shape:
                        raise ValueError
                except ValueError:
                    raise CodegenError(
                        "store value cannot be broadcast to the iteration "
                        "space"
                    )
                if (not force_copy and is_array
                        and isinstance(dtype, np.dtype)
                        and dtype == array.dtype
                        and shape == nest_shape
                        and region_shape == nest_shape):
                    # array[slices] = value is bit-identical to the
                    # broadcast/reshape/astype pipeline when every step of
                    # that pipeline is the identity.
                    commits.append(
                        f"{variable}[{_slice_src(slices)}] = {expr}"
                    )
                else:
                    prepared = self._new_var()
                    self.lines.append((1,
                        f"{prepared} = _np.broadcast_to(_np.asarray({expr}), "
                        f"{nest_shape!r}).reshape({region_shape!r})"
                        f".astype({variable}.dtype, copy={force_copy})"
                    ))
                    commits.append(
                        f"{variable}[{_slice_src(slices)}] = {prepared}"
                    )
            elif kind in ("binary", "unary"):
                op_name = instr[-1]
                if kind == "binary":
                    a = self._resolve_ref(instr[3], values, box_dims)
                    b = self._resolve_ref(instr[4], values, box_dims)
                    inputs = (a, b)
                    shape = self._broadcast(a[3], b[3])
                    dtype = self._binary_dtype(op_name, a, b)
                    ufunc = BINARY_UFUNCS.get(op_name)
                    expr = binary_expression(op_name, a[0], b[0])
                    if expr is None:
                        slot = self._add_ctx(instr[2])
                        expr = f"_ctx[{slot}]({a[0]}, {b[0]})"
                    is_array = a[1] or b[1]
                else:
                    a = self._resolve_ref(instr[3], values, box_dims)
                    inputs = (a,)
                    shape = a[3]
                    dtype = self._unary_dtype(op_name, a)
                    ufunc = UNARY_UFUNCS.get(op_name) if a[1] else None
                    expr = unary_expression(op_name, a[0], a[1])
                    if expr is None:
                        slot = self._add_ctx(instr[2])
                        expr = f"_ctx[{slot}]({a[0]})"
                    is_array = a[1]
                if (ufunc is not None and isinstance(dtype, np.dtype)
                        and shape == nest_shape
                        and all(_known_operand(ref) for ref in inputs)):
                    args = ", ".join(ref[0] for ref in inputs)
                    if (direct is not None and direct[0] == position
                            and np.can_cast(dtype, direct[2], "same_kind")):
                        name = direct[1]
                        stored_directly = True
                    else:
                        key = scratch.output(dtype, operands, position)
                        name = self._register(key, nest_shape)
                    self.lines.append((1, ufunc_call(ufunc, args, name)))
                else:
                    name = self._new_var()
                    self.lines.append((1, f"{name} = {expr}"))
                values[instr[1]] = (name, is_array, dtype, shape)
            elif kind == "select":
                cond = self._resolve_ref(instr[2], values, box_dims)
                a = self._resolve_ref(instr[3], values, box_dims)
                b = self._resolve_ref(instr[4], values, box_dims)
                shape = self._broadcast(self._broadcast(cond[3], a[3]), b[3])
                dtype = (
                    a[2]
                    if a[1] and b[1] and isinstance(a[2], np.dtype)
                    and a[2] == b[2] else None
                )
                name = self._new_var()
                self.lines.append(
                    (1, f"{name} = _np.where({cond[0]}, {a[0]}, {b[0]})")
                )
                values[instr[1]] = (name, True, dtype, shape)
            else:  # pragma: no cover - has_reduce nests are rejected earlier
                raise CodegenError("unsupported nest instruction")
            if kind != "store":
                scratch.define(instr[1], key, operands, position)
        for line in commits:
            self.lines.append((1, line))

    def _direct_store(self, instrs, position_syms, regions, nest_shape):
        """``(producer position, target source, field dtype)`` or None.

        A single-store nest whose store comes last and stores the value of
        the instruction right before it may have that instruction write
        straight into the field region: no load or other read follows the
        write, so deferring the commit past the last instruction is moot.
        The producer still has to qualify for a ufunc output (checked at
        emission), and the region must be exactly the iteration space.
        """
        if len(instrs) < 2:
            return None
        store, producer = instrs[-1], instrs[-2]
        if store[0] != "store" or store[1][0] != "arr" \
                or producer[0] not in ("binary", "unary") \
                or producer[1] is not store[1][1]:
            return None
        position = len(instrs) - 1
        array, slices, _, region_shape = regions[position]
        if region_shape != nest_shape or array[slices].shape != nest_shape:
            return None
        variable = self._var_for(position_syms[position])
        return (position - 1, f"{variable}[{_slice_src(slices)}]", array.dtype)

    def _register(self, key: tuple, shape: tuple) -> str:
        """The prologue-built view of scratch register ``key`` in ``shape``."""
        views = self.scratch.setdefault(key, {})
        name = views.get(shape)
        if name is None:
            dtype = np.dtype(key[0])
            name = f"_{dtype.kind}{dtype.itemsize}_{key[1]}"
            if views:
                name += f"s{len(views)}"
            views[shape] = name
        return name

    # -- operand references ---------------------------------------------------
    def _resolve_ref(self, ref: tuple, values: dict, box_dims) -> tuple:
        """Resolve a vectorize _Ref to ``(expr, is_array, dtype, shape)``.

        ``dtype`` is a numpy dtype when statically known, a "pyint" /
        "pyfloat" / "pybool" marker for python scalars, or None (unknown —
        which only forfeits the simple-store optimization, never
        correctness).
        """
        tag = ref[0]
        if tag == "arr":
            return values[ref[1]]
        if tag == "const":
            return (_literal(ref[1]), False, _scalar_marker(ref[1]), ())
        if tag == "free":
            sym = self.trace.sym[ref[1]]
            if sym[0] == "const":
                return (
                    _literal(sym[1]), False, _scalar_marker(sym[1]), ()
                )
            if sym[0] == "arg":
                return (f"a{sym[1]}", False, None, ())
            return ("_t", False, "pyint", ())
        # ("aff", affine) — materialized per box; geometry-free terms were
        # validated to be emit-time constants.
        value = CompiledNest._materialize(ref[1], list(box_dims), self.static_env)
        if isinstance(value, np.ndarray):
            slot = self._add_ctx(value)
            return (f"_ctx[{slot}]", True, np.dtype(np.int64), value.shape)
        return (repr(int(value)), False, "pyint", ())

    @staticmethod
    def _broadcast(a: tuple, b: tuple) -> tuple:
        try:
            return np.broadcast_shapes(a, b)
        except ValueError:
            raise CodegenError("operand shapes do not broadcast")

    @staticmethod
    def _binary_dtype(name: str, a: tuple, b: tuple):
        if name.startswith("arith.cmp"):
            return np.dtype(np.bool_)
        kinds = []
        for operand in (a, b):
            dtype = operand[2]
            if operand[1]:
                if not isinstance(dtype, np.dtype):
                    return None
            elif dtype not in ("pyint", "pyfloat"):
                return None
            kinds.append(dtype)
        arrays = [dtype for dtype in kinds if isinstance(dtype, np.dtype)]
        if not arrays:
            return None
        if name in _FLOAT_BINOPS:
            if all(dtype == np.float64 for dtype in arrays):
                return np.dtype(np.float64)
            return None
        if name in _INT_BINOPS:
            if all(dtype == np.int64 for dtype in arrays) and "pyfloat" not in kinds:
                return np.dtype(np.int64)
        return None

    @staticmethod
    def _unary_dtype(name: str, a: tuple):
        if name in ("arith.sitofp", "arith.extf", "arith.truncf"):
            return np.dtype(np.float64) if a[1] else "pyfloat"
        if name == "arith.fptosi":
            return np.dtype(np.int64) if a[1] else "pyint"
        if name in ("arith.extsi", "arith.trunci", "arith.negf"):
            return a[2]
        return None

    # -- source assembly ------------------------------------------------------
    @staticmethod
    def _bound_src(sym: _Sym) -> str:
        if sym[0] == "const":
            return str(sym[1])
        return f"int(a{sym[1]})"

    def _scratch_prologue(self) -> list[str]:
        """Allocate every scratch register once per call, before the loop.

        Per call, not per kernel: one cached kernel object may run on
        several thread ranks or batched jobs at once.  A register used by
        boxes of several shapes (overlap interior and strips) gets one flat
        buffer sized to the largest box, with a view per shape.
        """
        lines = []
        for key, views in self.scratch.items():
            dtype = np.dtype(key[0])
            if len(views) == 1:
                ((shape, name),) = views.items()
                lines.append(f"{name} = _np.empty({shape!r}, {dtype.name!r})")
                continue
            backing = f"_p{dtype.kind}{dtype.itemsize}_{key[1]}"
            cells = max(math.prod(shape) for shape in views)
            lines.append(f"{backing} = _np.empty({cells}, {dtype.name!r})")
            for shape, name in views.items():
                lines.append(
                    f"{name} = {backing}[:{math.prod(shape)}]"
                    f".reshape({shape!r})"
                )
        return lines

    def _scratch_bytes(self) -> int:
        """Bytes of scratch one call allocates in its prologue."""
        return sum(
            max(math.prod(shape) for shape in views) * np.dtype(key[0]).itemsize
            for key, views in self.scratch.items()
        )

    def _render(self, label: str) -> str:
        trace = self.trace
        indent = "    "
        body: list[str] = [f"# megakernel {label}"]
        for index in range(trace.arg_count):
            body.append(f"a{index} = _args[{index}]")
        loop = trace.loop
        if loop is None:
            body.append("_trips = 1")
        else:
            body.append(f"_lo = {self._bound_src(loop.lower)}")
            body.append(f"_hi = {self._bound_src(loop.upper)}")
            body.append(f"_st = {loop.step}")
            body.append("_trips = len(range(_lo, _hi, _st))")
        body.append(
            f"_stats.ops_executed += {trace.pre_ops} + _trips * {trace.iter_ops}"
        )
        for field, per_iteration in (
            ("omp_regions", trace.iter_omp_regions),
            ("omp_barriers", trace.iter_omp_barriers),
            ("kernel_launches", trace.iter_kernel_launches),
            ("halo_swaps", trace.iter_halo_swaps),
            ("cells_updated", self.iter_cells),
            ("mpi_messages", self.iter_mpi_messages),
            ("halo_elements_exchanged", self.iter_halo_elements),
            ("halo_swaps_overlapped", self.iter_overlapped),
        ):
            if per_iteration:
                body.append(f"_stats.{field} += _trips * {per_iteration}")
        body.extend(self._scratch_prologue())
        inner = [text for _level, text in self.lines]
        if loop is None:
            body.extend(inner)
        else:
            for slot, index in enumerate(loop.init_args):
                body.append(f"b{slot} = a{index}")
            body.append("for _t in range(_lo, _hi, _st):")
            loop_body = list(inner)
            perm = loop.perm
            if perm != list(range(len(perm))):
                targets = ", ".join(f"b{j}" for j in range(len(perm)))
                sources = ", ".join(f"b{j}" for j in perm)
                loop_body.append(f"{targets} = {sources}")
            if self.traced:
                # One "step" span per time-loop trip, rotation included —
                # mirrors the interpreter's per-iteration span.
                loop_body = (
                    ["_spt = _tracer.begin('step')"]
                    + loop_body
                    + ["_tracer.end('step', _spt)"]
                )
            if not loop_body:
                loop_body.append("pass")
            body.extend(indent + line for line in loop_body)
        body.append("return True")
        header = (
            "def _megakernel(_args, _stats, _comm, _tracer):\n"
            if self.traced else
            "def _megakernel(_args, _stats, _comm):\n"
        )
        return header + "\n".join(indent + line for line in body) + "\n"


_FLOAT_BINOPS = frozenset({
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.powf",
    "arith.maximumf", "arith.minimumf",
})

_INT_BINOPS = frozenset({
    "arith.addi", "arith.subi", "arith.muli", "arith.minsi", "arith.maxsi",
})


def _scalar_marker(value) -> str:
    if isinstance(value, bool):
        return "pybool"
    if isinstance(value, int):
        return "pyint"
    return "pyfloat"


def _literal(value) -> str:
    """Python source for a scalar literal; repr round-trips floats exactly."""
    if isinstance(value, float) and not math.isfinite(value):
        return f'float("{value!r}")'
    return repr(value)


def program_fingerprint(text: str) -> str:
    """A stable content hash for megakernel cache keys."""
    return hashlib.sha256(text.encode()).hexdigest()
