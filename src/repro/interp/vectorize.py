"""Vectorized NumPy execution backend for lowered loop nests.

The tree-walking interpreter dispatches every lowered operation once *per grid
cell*, which makes the cost of a stencil sweep proportional to ``cells x ops``
python bytecode dispatches.  This module removes the per-cell dispatch: it
pattern-matches the loop nests produced by ``convert-stencil-to-scf`` (and the
OpenMP conversion) and compiles each nest *once* into whole-array NumPy slice
expressions — the moral equivalent of the C code Devito generates.

A nest is vectorizable when

* it is an ``scf.parallel`` / ``omp.wsloop`` nest, or an ``scf.for`` (without
  loop-carried values), possibly perfectly nested;
* inner ``scf.for`` bounds are either nest-invariant, or the ``min``-clamped
  tile pattern emitted by ``convert-stencil-to-scf{tile}`` (lower bound = an
  outer tile origin, upper bound = ``arith.minsi(origin + tile, extent)``):
  the (origin, intra-tile) loop pair walks its extent contiguously, so it is
  *collapsed* back into one whole-extent unit-step dimension and the nest
  becomes plain whole-array slices again;
* every index expression is affine in the induction variables with unit
  coefficients (``iv + c`` per memref axis, or a nest-invariant constant);
* the body consists only of ``memref.load`` / ``memref.store``, pure
  element-wise ``arith`` ops (including ``cmpf``/``cmpi``/``select`` chains,
  which become ``np.where`` trees), and optionally a terminating
  ``scf.reduce`` whose combiner is one of the ops in
  :data:`repro.dialects.arith.REDUCTION_OP_METADATA` — compiled into a NumPy
  reduction that replays the tree walker's deterministic left-fold (via
  ``ufunc.accumulate`` for order-sensitive float ``+``/``*``).

Anything else — data-dependent control flow, ``scf.while``, MPI operations,
non-affine indices — is left to the tree walker, *per nest*, so one
non-vectorizable region never forfeits the speedup of its neighbours.  Every
rejection (at compile time) and every run-time bounce is described by a
:class:`VectorizeFallback` carrying an explicit reason string, surfaced via
:meth:`CompiledKernel.fallback_for` and :attr:`CompiledNest.last_fallback`.

Equivalence with the tree walker is bit-exact: scalar loads are widened to
float64 exactly as ``ndarray.item()`` does, the element-wise expressions apply
the same operation tree in the same order, reductions fold in iteration order,
and stores down-cast on assignment.  Nests whose execution the slicing model
cannot reproduce exactly (aliased read/write buffers with shifted offsets,
out-of-range indices that python's negative indexing would wrap, non-positive
steps) are detected at *run* time and bounce back to the interpreter for that
invocation.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Union

import numpy as np

from ..dialects import arith, func, memref, omp, scf
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import Operation, SSAValue
from ..ir.types import IndexType, IntegerType, is_float_type


class VectorizationError(Exception):
    """Internal: raised while analysing a nest that cannot be vectorized."""


class VectorizeFallback:
    """Why a nest (or one invocation of it) bounced to the tree walker."""

    __slots__ = ("op_name", "reason")

    def __init__(self, op_name: str, reason: str):
        self.op_name = op_name
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.op_name}: {self.reason}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorizeFallback({self.op_name!r}, {self.reason!r})"


class _Bailout(Exception):
    """Internal: a run-time condition the slicing model cannot reproduce."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# affine index expressions
# ---------------------------------------------------------------------------

class _Affine:
    """``sum(coeffs[d] * iv_d) + sum(free[v] * env[v]) + const``.

    ``free`` terms are SSA values defined outside the nest; they are resolved
    against the interpreter environment when the nest executes.
    """

    __slots__ = ("coeffs", "const", "free")

    def __init__(
        self,
        coeffs: Optional[dict[int, int]] = None,
        const: int = 0,
        free: Optional[dict[SSAValue, int]] = None,
    ):
        self.coeffs: dict[int, int] = dict(coeffs or {})
        self.const = int(const)
        self.free: dict[SSAValue, int] = dict(free or {})

    @property
    def is_invariant(self) -> bool:
        """True when the expression does not involve any induction variable."""
        return not self.coeffs

    @property
    def is_literal(self) -> bool:
        return not self.coeffs and not self.free

    def combine(self, other: "_Affine", sign: int) -> "_Affine":
        result = _Affine(self.coeffs, self.const + sign * other.const, self.free)
        for dim, coeff in other.coeffs.items():
            updated = result.coeffs.get(dim, 0) + sign * coeff
            if updated:
                result.coeffs[dim] = updated
            else:
                result.coeffs.pop(dim, None)
        for value, coeff in other.free.items():
            updated = result.free.get(value, 0) + sign * coeff
            if updated:
                result.free[value] = updated
            else:
                result.free.pop(value, None)
        return result

    def scale(self, factor: int) -> "_Affine":
        if factor == 0:
            return _Affine()
        return _Affine(
            {d: c * factor for d, c in self.coeffs.items()},
            self.const * factor,
            {v: c * factor for v, c in self.free.items()},
        )

    def invariant_value(self, env: dict) -> int:
        """Evaluate a nest-invariant expression against the environment."""
        total = self.const
        for value, coeff in self.free.items():
            total += coeff * int(env[value])
        return total


def _affine_equal(a: _Affine, b: _Affine) -> bool:
    return a.coeffs == b.coeffs and a.const == b.const and a.free == b.free


# ---------------------------------------------------------------------------
# element-wise operation tables (must mirror the scalar interpreter exactly)
# ---------------------------------------------------------------------------

_BINARY_FNS: dict[str, Callable[[Any, Any], Any]] = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.powf": lambda a, b: a ** b,
    "arith.maximumf": np.maximum,
    "arith.minimumf": np.minimum,
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.minsi": np.minimum,
    "arith.maxsi": np.maximum,
}

_UNARY_FNS: dict[str, Callable[[Any], Any]] = {
    "arith.negf": lambda a: -a,
    "arith.sitofp": lambda a: np.asarray(a, dtype=np.float64)
    if isinstance(a, np.ndarray) else float(a),
    "arith.extf": lambda a: np.asarray(a, dtype=np.float64)
    if isinstance(a, np.ndarray) else float(a),
    "arith.truncf": lambda a: np.asarray(
        np.asarray(a, dtype=np.float32), dtype=np.float64
    ) if isinstance(a, np.ndarray) else float(np.float32(a)),
    "arith.fptosi": lambda a: np.asarray(a).astype(np.int64)
    if isinstance(a, np.ndarray) else int(a),
    "arith.extsi": lambda a: a,
    "arith.trunci": lambda a: a,
}

_CMPF_FNS = {
    "oeq": np.equal, "ogt": np.greater, "oge": np.greater_equal,
    "olt": np.less, "ole": np.less_equal, "one": np.not_equal,
}

_CMPI_FNS = {
    "eq": np.equal, "ne": np.not_equal, "slt": np.less, "sle": np.less_equal,
    "sgt": np.greater, "sge": np.greater_equal,
}

#: NumPy ufuncs implementing the reduction combiners named by
#: :data:`repro.dialects.arith.REDUCTION_OP_METADATA`.
_REDUCE_UFUNCS = {
    "add": np.add,
    "multiply": np.multiply,
    "minimum": np.minimum,
    "maximum": np.maximum,
}


# Compile-time operand references, resolved per execution:
#   ("arr", value)   — tensor computed by an earlier instruction of the nest
#   ("const", x)     — compile-time literal
#   ("aff", affine)  — affine index expression (materialised as an int grid)
#   ("free", value)  — scalar defined outside the nest, read from the env
_Ref = tuple


#: A nest smaller than this (in iteration-space cells) is not worth spreading
#: over a thread team: the dispatch overhead would exceed the NumPy work.
_TEAM_MIN_CELLS = 4096


# ---------------------------------------------------------------------------
# statement emission (shared with repro.interp.codegen)
# ---------------------------------------------------------------------------
#
# The tables below are the *source-code* counterparts of _BINARY_FNS and
# _UNARY_FNS: each template applies exactly the same NumPy call / Python
# operator as the callable the interpreter executes, so a statement emitted
# from them computes bit-identical results.  The megakernel code generator
# (repro.interp.codegen) renders nest instruction lists through these; ops
# with no template fall back to calling the original table function through
# the generated module's context tuple — still bit-identical by construction.

BINARY_EXPRESSIONS: dict[str, str] = {
    "arith.addf": "({a} + {b})",
    "arith.subf": "({a} - {b})",
    "arith.mulf": "({a} * {b})",
    "arith.divf": "({a} / {b})",
    "arith.powf": "({a} ** {b})",
    "arith.maximumf": "_np.maximum({a}, {b})",
    "arith.minimumf": "_np.minimum({a}, {b})",
    "arith.addi": "({a} + {b})",
    "arith.subi": "({a} - {b})",
    "arith.muli": "({a} * {b})",
    "arith.minsi": "_np.minimum({a}, {b})",
    "arith.maxsi": "_np.maximum({a}, {b})",
    "arith.cmpf:oeq": "_np.equal({a}, {b})",
    "arith.cmpf:ogt": "_np.greater({a}, {b})",
    "arith.cmpf:oge": "_np.greater_equal({a}, {b})",
    "arith.cmpf:olt": "_np.less({a}, {b})",
    "arith.cmpf:ole": "_np.less_equal({a}, {b})",
    "arith.cmpf:one": "_np.not_equal({a}, {b})",
    "arith.cmpi:eq": "_np.equal({a}, {b})",
    "arith.cmpi:ne": "_np.not_equal({a}, {b})",
    "arith.cmpi:slt": "_np.less({a}, {b})",
    "arith.cmpi:sle": "_np.less_equal({a}, {b})",
    "arith.cmpi:sgt": "_np.greater({a}, {b})",
    "arith.cmpi:sge": "_np.greater_equal({a}, {b})",
}

_UNARY_ARRAY_EXPRESSIONS: dict[str, str] = {
    "arith.negf": "(-{a})",
    "arith.sitofp": "_np.asarray({a}, dtype=_np.float64)",
    "arith.extf": "_np.asarray({a}, dtype=_np.float64)",
    "arith.truncf":
        "_np.asarray(_np.asarray({a}, dtype=_np.float32), dtype=_np.float64)",
    "arith.fptosi": "_np.asarray({a}).astype(_np.int64)",
    "arith.extsi": "{a}",
    "arith.trunci": "{a}",
}

_UNARY_SCALAR_EXPRESSIONS: dict[str, str] = {
    "arith.negf": "(-{a})",
    "arith.sitofp": "float({a})",
    "arith.extf": "float({a})",
    "arith.truncf": "float(_np.float32({a}))",
    "arith.fptosi": "int({a})",
    "arith.extsi": "{a}",
    "arith.trunci": "{a}",
}


#: The ufunc each operator template above calls, for emission with an
#: explicit output buffer: ``ufunc(a, b, out)`` picks its inner loop from the
#: inputs alone and only then casts into ``out``, so it computes exactly what
#: the operator form does.  ``arith.powf`` is deliberately absent: ``a ** b``
#: takes NumPy's scalar-exponent fast paths, which ``np.power`` does not.
BINARY_UFUNCS: dict[str, str] = {
    "arith.addf": "_np.add",
    "arith.subf": "_np.subtract",
    "arith.mulf": "_np.multiply",
    "arith.divf": "_np.true_divide",
    "arith.maximumf": "_np.maximum",
    "arith.minimumf": "_np.minimum",
    "arith.addi": "_np.add",
    "arith.subi": "_np.subtract",
    "arith.muli": "_np.multiply",
    "arith.minsi": "_np.minimum",
    "arith.maxsi": "_np.maximum",
    **{
        name: template[: template.index("(")]
        for name, template in BINARY_EXPRESSIONS.items()
        if name.startswith(("arith.cmpf:", "arith.cmpi:"))
    },
}

#: Unary counterpart of :data:`BINARY_UFUNCS` (array operands only).
UNARY_UFUNCS: dict[str, str] = {"arith.negf": "_np.negative"}


def ufunc_call(ufunc: str, operands: str, out: str) -> str:
    """Python source calling ``ufunc`` on ``operands`` into ``out``.

    The output is positional except for ``maximum``/``minimum``, whose
    third positional argument NumPy deprecates.
    """
    if ufunc in ("_np.maximum", "_np.minimum"):
        return f"{ufunc}({operands}, out={out})"
    return f"{ufunc}({operands}, {out})"


def binary_expression(name: str, a: str, b: str) -> Optional[str]:
    """Python source applying binary op ``name``, or None (no template)."""
    template = BINARY_EXPRESSIONS.get(name)
    return None if template is None else template.format(a=a, b=b)


def unary_expression(name: str, operand: str, operand_is_array: bool) -> Optional[str]:
    """Python source applying unary op ``name``, or None (no template).

    The _UNARY_FNS callables branch on ``isinstance(a, np.ndarray)``; the
    caller must therefore know statically whether the operand is an array
    (pass None -> no template -> context-function fallback when unsure).
    """
    table = (
        _UNARY_ARRAY_EXPRESSIONS if operand_is_array else _UNARY_SCALAR_EXPRESSIONS
    )
    template = table.get(name)
    return None if template is None else template.format(a=operand)


def widen_expression(source: str, dtype: np.dtype) -> str:
    """The emitted-source equivalent of :func:`_widen` applied to ``source``."""
    kind = dtype.kind
    if kind == "f":
        if dtype.itemsize == 8:
            return source
        return f"_np.asarray({source}, dtype=_np.float64)"
    if kind == "b":
        return source
    if dtype == np.dtype(np.int64):
        return source
    return f"_np.asarray({source}, dtype=_np.int64)"


class CompiledNest:
    """One vectorizable loop nest, compiled to NumPy slice expressions."""

    __slots__ = ("bounds", "instrs", "count_bounds", "rank", "op_name",
                 "has_reduce", "last_fallback", "_alias_cache",
                 "_region_cache", "_geometry_free_values")

    def __init__(
        self,
        bounds: list[tuple[_Affine, _Affine, _Affine]],
        instrs: list[tuple],
        count_bounds: list[tuple[_Affine, _Affine, _Affine]],
        op_name: str = "scf.parallel",
    ):
        self.bounds = bounds
        self.instrs = instrs
        #: The parallel-root bounds *as the tree walker sees them*: it counts
        #: one cells_updated per point of the scf.parallel/omp.wsloop root
        #: (for tiled nests that is one per *tile origin*, even though the
        #: collapsed ``bounds`` walk individual cells; perfectly nested inner
        #: scf.for dims do not count, and a plain scf.for root counts
        #: nothing — empty ``count_bounds``).
        self.count_bounds = count_bounds
        self.rank = len(bounds)
        self.op_name = op_name
        #: Reductions fold in iteration order, so they can be neither chunked
        #: over a thread team nor split into overlap phases.
        self.has_reduce = any(instr[0] == "reduce" for instr in instrs)
        #: Why the most recent :meth:`execute` bounced (None after a success).
        self.last_fallback: Optional[VectorizeFallback] = None
        #: Aliasing verdicts keyed by the memory layout of every accessed
        #: region (base address, shape, strides, dtype, slices).  A repeated
        #: run over the same buffers — every time step of a time loop, every
        #: request served by a Plan — hits the cache instead of re-running
        #: ``np.shares_memory`` per load/store pair.  The key captures the
        #: complete overlap-relevant state, so object identity (and id reuse)
        #: cannot poison it.
        self._alias_cache: dict[tuple, bool] = {}
        #: Memoized slice plans (satellite of the codegen PR): resolving a
        #: region turns per-axis affine expressions back into slices, which is
        #: pure bookkeeping repeated identically on every invocation of a time
        #: loop.  The cache keys on everything the resolution reads — the
        #: concrete box, the free index values, and each accessed buffer's
        #: memory layout — and stores geometry only (slices and shapes, never
        #: array objects), so a hit rebuilds the records against the arrays of
        #: *this* invocation.
        self._region_cache: dict[tuple, list] = {}
        free_values: list[SSAValue] = []
        seen_free: set[int] = set()
        for instr in self.instrs:
            if instr[0] not in ("load", "store"):
                continue
            for affine in instr[3]:
                for value in affine.free:
                    if id(value) not in seen_free:
                        seen_free.add(id(value))
                        free_values.append(value)
        #: The SSA values whose env entries parameterize region geometry.
        self._geometry_free_values = tuple(free_values)

    # -- runtime ------------------------------------------------------------
    def execute(self, interp, env: dict) -> bool:
        """Run the nest against ``env``; return False to request a fallback.

        A ``False`` return leaves every buffer untouched, so the caller can
        safely re-run the nest through the tree walker;
        :attr:`last_fallback` then says why.

        Two optional execution structures layer on top of the plain
        prepare-then-commit path, both bit-identical to it:

        * **thread team** — when the interpreter carries an intra-rank
          :class:`~repro.interp.thread_team.ThreadTeam`, the outermost
          dimension is split into per-thread chunks whose preparation (loads
          and element-wise math) runs concurrently; every chunk finishes
          preparing before any chunk commits, preserving the
          all-loads-then-all-stores semantics;
        * **halo overlap** — when the interpreter holds pending (posted but
          uncompleted) halo receives, the iteration space is partitioned into
          an interior box whose loads provably avoid the in-flight halo
          regions and up to ``2 * rank`` boundary strips: the interior is
          prepared and committed while the messages travel, the receives are
          then completed, and the strips finish afterwards.
        """
        pending_halos = list(getattr(interp, "pending_halos", ()))
        try:
            dims = self._concrete_dims(env, self.bounds)
            cells = self._cell_count(env)
            resolved = self._resolve_regions(interp, env, dims)
            loads, stores, regions = resolved
            alias_key = tuple(
                (
                    position,
                    array.__array_interface__["data"][0],
                    array.shape,
                    array.strides,
                    array.dtype.str,
                    tuple((s.start, s.stop, s.step) for s in slices),
                )
                for position, (array, slices, _, _) in sorted(regions.items())
            )
            safe = self._alias_cache.get(alias_key)
            if safe is None:
                safe = self._aliasing_is_safe(loads, stores, regions)
                if len(self._alias_cache) >= 128:
                    self._alias_cache.clear()
                self._alias_cache[alias_key] = safe
            if not safe:
                raise _Bailout(
                    "aliasing stores: load/store regions overlap between "
                    "cells, so per-cell execution order is observable"
                )
            overlap = None
            if pending_halos:
                plan = self._plan_overlap(env, dims, resolved, pending_halos)
                if plan is None:
                    # The split cannot be proven safe: fall back to the
                    # blocking discipline before touching any data.
                    interp.complete_pending_halos()
                elif plan != "defer":
                    # "defer" means the nest never reads an in-flight region:
                    # run it whole and leave the halos pending for a later
                    # consumer (no overlap credit for this nest).
                    overlap = plan
            team = None if self.has_reduce else getattr(interp, "thread_team", None)
            if overlap is not None:
                interior_dims, strips = overlap
                parts = self._prepare_boxes(interp, env, interior_dims, team)
            else:
                parts = self._prepare_boxes(
                    interp, env, dims, team, resolved=resolved
                )
        except _Bailout as bail:
            if pending_halos:
                interp.complete_pending_halos()
            self.last_fallback = VectorizeFallback(self.op_name, bail.reason)
            return False
        except Exception as err:
            # Any surprise during preparation (unresolvable free value,
            # unexpected runtime type) means the static analysis was too
            # optimistic; no buffer has been touched yet, so falling back to
            # the tree walker is always safe.
            if pending_halos:
                interp.complete_pending_halos()
            self.last_fallback = VectorizeFallback(
                self.op_name, f"preparation failed: {err}"
            )
            return False
        # The commit cannot raise: every prepared array was validated to have
        # exactly the target region's shape and dtype.
        tracer = getattr(interp, "tracer", None)
        if overlap is not None and tracer is not None:
            span = tracer.begin("nest.interior")
            self._commit(interp, env, parts)
            tracer.end("nest.interior", span)
        else:
            self._commit(interp, env, parts)
        if overlap is not None:
            _, strips = overlap
            interp.complete_pending_halos(overlapped=True)
            # The strips were region-validated against the full box above
            # (their bounds are subsets), so preparing them cannot bail.
            span = tracer.begin("nest.boundary") if tracer is not None else 0.0
            for strip_dims in strips:
                self._commit(
                    interp, env, self._prepare_boxes(interp, env, strip_dims, None)
                )
            if tracer is not None:
                tracer.end("nest.boundary", span)
        interp.stats.cells_updated += cells
        self.last_fallback = None
        return True

    @staticmethod
    def _concrete_dims(env: dict, bounds) -> list[tuple[int, int, int]]:
        dims: list[tuple[int, int, int]] = []
        for lower, upper, step in bounds:
            dims.append(
                (
                    lower.invariant_value(env),
                    upper.invariant_value(env),
                    step.invariant_value(env),
                )
            )
        if any(step <= 0 for _, _, step in dims):
            # The interpreter defines the (error) semantics of dynamic
            # non-positive steps.
            raise _Bailout("non-positive (dynamic) loop step")
        return dims

    def _cell_count(self, env: dict) -> int:
        if not self.count_bounds:
            return 0
        count_dims = self._concrete_dims(env, self.count_bounds)
        return math.prod(
            len(range(lower, upper, step)) for lower, upper, step in count_dims
        )

    def _resolve_regions(self, interp, env: dict, dims) -> tuple[list, list, dict]:
        """Resolve every load/store region of the nest over the ``dims`` box.

        Returns ``(loads, stores, regions)`` where loads/stores are
        ``(instr index, array id, slices)`` records and ``regions`` maps the
        instruction index to ``(array, slices, view_shape, region_shape)``.
        Raising :class:`_Bailout` here means the box cannot be executed by
        slicing at all (and nothing has been written yet).

        Successful resolutions are memoized per buffer layout: the slice
        derivation depends only on the box, the free index values and each
        accessed array's memory layout, so a repeated invocation (every
        timestep of a time loop) skips the per-axis affine work entirely.
        """
        accesses: list[tuple[int, bool, np.ndarray]] = []
        for position, instr in enumerate(self.instrs):
            kind = instr[0]
            if kind not in ("load", "store"):
                continue
            array = interp.as_array(env[instr[2]])
            accesses.append((position, kind == "store", array))
        try:
            key = (
                tuple(dims),
                tuple(int(env[value]) for value in self._geometry_free_values),
                tuple(
                    (
                        array.__array_interface__["data"][0],
                        array.shape,
                        array.strides,
                        array.dtype.str,
                    )
                    for _, _, array in accesses
                ),
            )
        except (KeyError, TypeError, ValueError):
            key = None  # unhashable/unresolvable env: skip memoization
        if key is not None:
            cached = self._region_cache.get(key)
            if cached is not None:
                loads, stores, regions = [], [], {}
                for (position, is_store, array), geometry in zip(accesses, cached):
                    slices, view_shape, region_shape = geometry
                    regions[position] = (array, slices, view_shape, region_shape)
                    record = (position, id(array), slices)
                    (stores if is_store else loads).append(record)
                return loads, stores, regions
        loads: list[tuple[int, int, tuple]] = []
        stores: list[tuple[int, int, tuple]] = []
        regions: dict[int, tuple] = {}
        plan: list[tuple] = []
        for position, is_store, array in accesses:
            axes = self.instrs[position][3]
            slices, view_shape, region_shape = self._resolve_region(
                array, axes, dims, env, is_store
            )
            regions[position] = (array, slices, view_shape, region_shape)
            plan.append((slices, view_shape, region_shape))
            record = (position, id(array), slices)
            (stores if is_store else loads).append(record)
        if key is not None:
            # Bailouts raise before reaching here, so only successful
            # geometry is ever memoized.
            if len(self._region_cache) >= 64:
                self._region_cache.clear()
            self._region_cache[key] = plan
        return loads, stores, regions

    # -- thread-team chunking -------------------------------------------------
    def _prepare_boxes(self, interp, env: dict, dims, team, *, resolved=None):
        """Prepare one box, split over the team's threads when worthwhile.

        Returns a list of ``(pending stores, bindings)`` pairs — one per
        chunk — with *nothing committed yet*, so a bailing chunk leaves every
        buffer untouched.  Chunks split the outermost dimension only, which
        keeps their store regions disjoint.
        """
        boxes = [dims]
        if team is not None:
            trips = [len(range(lower, upper, step)) for lower, upper, step in dims]
            if trips and trips[0] >= 2 and math.prod(trips) >= _TEAM_MIN_CELLS:
                from .thread_team import split_trip_counts

                lower, _, step = dims[0]
                boxes = [
                    [(lower + start * step, lower + end * step, step), *dims[1:]]
                    for start, end in split_trip_counts(trips[0], team.size)
                ]
        if len(boxes) == 1:
            return [self._prepare_box(interp, env, boxes[0], resolved=resolved)]

        def worker(box):
            try:
                return self._prepare_box(interp, env, box)
            except _Bailout as bail:
                return bail

        results = team.map(worker, boxes)
        for result in results:
            if isinstance(result, _Bailout):
                raise result
        return results

    @staticmethod
    def _commit(interp, env: dict, parts) -> None:
        for pending, bindings in parts:
            for array, slices, prepared in pending:
                array[slices] = prepared
            for value, result in bindings:
                interp.set(env, value, result)

    # -- halo/compute overlap --------------------------------------------------
    def _plan_overlap(self, env: dict, dims, resolved, pending_halos):
        """Partition ``dims`` into an interior box and boundary strips.

        The interior contains exactly the iterations whose loads provably
        avoid every in-flight halo region, so it can execute before the
        receives complete.  Returns ``(interior dims, [strip dims, ...])``,
        or None when the split cannot be proven safe (the caller then
        completes the halos first and runs the plain path).  When the nest is
        unrelated to every pending halo, the result is the sentinel
        ``"defer"`` — the caller runs the plain path and the halos stay in
        flight for a later consumer.
        """
        if self.has_reduce:
            return None
        if any(step != 1 for _, _, step in dims):
            return None
        loads, stores, regions = resolved
        forbidden: dict[int, list[tuple[int, int]]] = {}
        for halo in pending_halos:
            halo_array = halo.array
            for position, _, _ in stores:
                if np.shares_memory(regions[position][0], halo_array):
                    # Stores into the swapped buffer: completion would race
                    # with (or be clobbered by) the interior commit.
                    return None
            for position, _, _ in loads:
                array, slices = regions[position][:2]
                if array is not halo_array:
                    if np.shares_memory(array, halo_array):
                        return None  # an aliased view we cannot reason about
                    continue
                for item in halo.items:
                    axis = item.axis
                    box = item.recv_slice[axis]
                    affine = self.instrs[position][3][axis]
                    if affine.is_invariant:
                        if box.start <= slices[axis].start < box.stop:
                            return None  # every iteration reads the halo
                        continue
                    dim = next(iter(affine.coeffs))
                    offset = slices[axis].start - dims[dim][0]
                    forbidden.setdefault(dim, []).append(
                        (box.start - offset, box.stop - offset)
                    )
        interior = [[lower, upper] for lower, upper, _ in dims]
        constrained = False
        for dim, intervals in forbidden.items():
            lower, upper = interior[dim]
            changed = True
            while changed:
                changed = False
                for begin, end in intervals:
                    if begin <= lower < end:
                        lower, changed = end, True
                    if begin < upper <= end:
                        upper, changed = begin, True
            for begin, end in intervals:
                if max(begin, lower) < min(end, upper):
                    return None  # a halo-dependent band strictly inside
            if lower >= upper:
                return None  # no interior left: nothing to overlap with
            if [lower, upper] != interior[dim]:
                constrained = True
            interior[dim] = [lower, upper]
        if not constrained:
            return "defer"
        strips = []
        for dim in range(self.rank):
            lower, upper, _ = dims[dim]
            ilower, iupper = interior[dim]
            prefix = [(interior[k][0], interior[k][1], 1) for k in range(dim)]
            suffix = [dims[k] for k in range(dim + 1, self.rank)]
            if lower < ilower:
                strips.append([*prefix, (lower, ilower, 1), *suffix])
            if iupper < upper:
                strips.append([*prefix, (iupper, upper, 1), *suffix])
        interior_dims = [(lower, upper, 1) for lower, upper in interior]
        return interior_dims, strips

    # -- single-box preparation -------------------------------------------------
    def _prepare_box(self, interp, env: dict, dims, *, resolved=None):
        """Prepare (but do not commit) the nest restricted to the ``dims`` box."""
        trips = tuple(len(range(lower, upper, step)) for lower, upper, step in dims)
        nest_shape = trips
        if resolved is None:
            resolved = self._resolve_regions(interp, env, dims)
        loads, stores, regions = resolved

        # Evaluate the element-wise program.
        values: dict[SSAValue, Any] = {}

        def resolve(ref: _Ref) -> Any:
            tag = ref[0]
            if tag == "arr":
                return values[ref[1]]
            if tag == "const":
                return ref[1]
            if tag == "free":
                return env[ref[1]]
            return self._materialize(ref[1], dims, env)

        # With several stores in one nest, an earlier commit may mutate memory
        # that a later store's value still *views* (loads and broadcasts avoid
        # copies); materialise every value in that case so the committed data
        # is what was computed, not what the buffer holds mid-commit.
        force_copy = len(stores) > 1
        pending: list[tuple[np.ndarray, tuple, np.ndarray]] = []
        bindings: list[tuple[SSAValue, Any]] = []
        for position, instr in enumerate(self.instrs):
            kind = instr[0]
            if kind == "load":
                array, slices, view_shape, _ = regions[position]
                view = array[slices].reshape(view_shape)
                values[instr[1]] = _widen(view)
            elif kind == "store":
                array, slices, _, region_shape = regions[position]
                value = resolve(instr[1])
                prepared = np.broadcast_to(
                    np.asarray(value), nest_shape
                ).reshape(region_shape).astype(array.dtype, copy=force_copy)
                if prepared.shape != array[slices].shape:
                    raise _Bailout(
                        "store value does not match the target region shape"
                    )
                pending.append((array, slices, prepared))
            elif kind == "binary":
                values[instr[1]] = instr[2](resolve(instr[3]), resolve(instr[4]))
            elif kind == "unary":
                values[instr[1]] = instr[2](resolve(instr[3]))
            elif kind == "select":
                values[instr[1]] = np.where(
                    resolve(instr[2]), resolve(instr[3]), resolve(instr[4])
                )
            else:  # reduce
                _, result_value, fn, sequential, value_ref, init_ref, convert = instr
                value = resolve(value_ref)
                flattened = np.broadcast_to(np.asarray(value), nest_shape).ravel()
                init = resolve(init_ref)
                if flattened.size == 0:
                    total: Any = init
                elif sequential:
                    # Order-sensitive combiners (float +/*) must replay the
                    # tree walker's left-fold bit-for-bit: ufunc.accumulate is
                    # defined as the sequential recurrence r[i] = r[i-1] op
                    # a[i] (never pairwise), and ravel() of the iteration
                    # space is exactly the tree walker's visit order.
                    chain = np.empty(flattened.size + 1, dtype=flattened.dtype)
                    chain[0] = init
                    chain[1:] = flattened
                    total = fn.accumulate(chain)[-1]
                else:
                    total = fn(init, fn.reduce(flattened))
                bindings.append((result_value, convert(total)))

        return pending, bindings

    def _resolve_region(
        self,
        array: np.ndarray,
        axes: list[_Affine],
        dims: list[tuple[int, int, int]],
        env: dict,
        is_store: bool,
    ) -> tuple[tuple, tuple, tuple]:
        """Turn per-axis affine indices into slices + broadcastable shapes.

        Returns ``(slices, view_shape, region_shape)``: ``view_shape`` has the
        nest's rank with the trip count at every mapped dimension and 1
        elsewhere (for broadcasting loads into the iteration space), while
        ``region_shape`` has the *memref's* rank and matches ``array[slices]``
        exactly (for shaping store values).  Raises :class:`_Bailout` when the
        region cannot be reproduced exactly by slicing.
        """
        if len(axes) != array.ndim:
            raise _Bailout("access rank does not match the memref rank")
        trips = tuple(len(range(*dim)) for dim in dims)
        slices = []
        view_shape = [1] * len(dims)
        region_shape = [1] * array.ndim
        used_dims: list[int] = []
        for axis, affine in enumerate(axes):
            offset = affine.invariant_value(env)
            if not affine.coeffs:
                if not 0 <= offset < array.shape[axis]:
                    raise _Bailout("constant index outside the memref extent")
                slices.append(slice(offset, offset + 1))
                continue
            mapping = list(affine.coeffs.items())
            if len(mapping) != 1 or mapping[0][1] != 1:
                raise _Bailout("non-unit-stride index expression cannot be sliced")
            dim = mapping[0][0]
            if used_dims and dim <= used_dims[-1]:
                raise _Bailout(
                    "transposed or repeated induction variables in one access"
                )
            used_dims.append(dim)
            lower, upper, step = dims[dim]
            start = lower + offset
            last = start + (trips[dim] - 1) * step
            if trips[dim] and (start < 0 or last >= array.shape[axis]):
                # Out-of-range accesses would wrap (negative) or raise in the
                # tree walker; preserve those semantics by falling back.
                raise _Bailout(
                    "out-of-range access would wrap or raise in the tree walker"
                )
            slices.append(slice(start, upper + offset, step))
            view_shape[dim] = trips[dim]
            region_shape[axis] = trips[dim]
        if is_store and len(used_dims) != len(dims):
            raise _Bailout(
                "store does not cover every nest dimension "
                "(iterations would collapse onto the same cells)"
            )
        return tuple(slices), tuple(view_shape), tuple(region_shape)

    @staticmethod
    def _aliasing_is_safe(loads, stores, regions) -> bool:
        """Check that all-loads-then-all-stores matches per-cell execution."""
        for store_position, store_array_id, store_slices in stores:
            store_view = None
            for load_position, load_array_id, load_slices in loads:
                same_region = (
                    load_array_id == store_array_id and load_slices == store_slices
                )
                if same_region and load_position < store_position:
                    continue  # reads its own cell before writing it: safe
                if store_view is None:
                    array, slices = regions[store_position][:2]
                    store_view = array[slices]
                load_array, slices = regions[load_position][:2]
                if np.shares_memory(load_array[slices], store_view):
                    return False
            for other_position, other_array_id, other_slices in stores:
                if other_position >= store_position:
                    continue
                if other_array_id == store_array_id and other_slices == store_slices:
                    continue  # re-written identically: program order preserved
                if store_view is None:
                    array, slices = regions[store_position][:2]
                    store_view = array[slices]
                other_array, slices = regions[other_position][:2]
                if np.shares_memory(other_array[slices], store_view):
                    return False
        return True

    @staticmethod
    def _materialize(
        affine: _Affine, dims: list[tuple[int, int, int]], env: dict
    ) -> Any:
        """Evaluate an affine expression over the whole iteration space."""
        total: Any = affine.const + sum(
            coeff * int(env[value]) for value, coeff in affine.free.items()
        )
        rank = len(dims)
        for dim, coeff in affine.coeffs.items():
            lower, upper, step = dims[dim]
            shape = [1] * rank
            shape[dim] = len(range(lower, upper, step))
            axis = np.arange(lower, upper, step, dtype=np.int64).reshape(shape)
            total = total + coeff * axis
        return total


def _widen(view: np.ndarray) -> np.ndarray:
    """Widen loaded elements exactly as ``ndarray.item()`` does per cell."""
    kind = view.dtype.kind
    if kind == "f":
        return view.astype(np.float64, copy=False)
    if kind == "b":
        return view
    return view.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# the nest compiler
# ---------------------------------------------------------------------------

_NEST_TERMINATORS = ("scf.yield", "omp.yield")


class _NestCompiler:
    """Analyses one loop nest and emits a :class:`CompiledNest`."""

    def __init__(self, root: Operation):
        self.root = root
        self.bounds: list[tuple[_Affine, _Affine, _Affine]] = []
        self.count_bounds: list[tuple[_Affine, _Affine, _Affine]] = []
        self.ivs: dict[SSAValue, int] = {}
        # SSA value -> _Affine | ("const", literal) | ("min"|"max", lhs, rhs)
        #            | "array"
        self.sym: dict[SSAValue, Union[_Affine, tuple, str]] = {}
        self.instrs: list[tuple] = []
        #: Values whose compile-time meaning was invalidated by a tile
        #: collapse (the tile-origin iv and expressions derived from it);
        #: consuming one after the collapse aborts the nest.
        self.banned: dict[SSAValue, str] = {}
        self.parallel_dims = 0
        self.collapsed_dims: set[int] = set()

    def compile(self) -> CompiledNest:
        root = self.root
        if isinstance(root, (scf.ParallelOp, omp.WsLoopOp)):
            block = root.body.block
            for iv, lower, upper, step in zip(
                block.args, root.lower_bounds, root.upper_bounds, root.steps
            ):
                self._push_dim(iv, lower, upper, step)
            # The tree walker counts cells_updated once per point of the
            # parallel dims only; inner scf.for dims flattened later by
            # _compile_block must not inflate the statistic.  Collapsing a
            # tile pair rewrites self.bounds[dim] but leaves this snapshot
            # (the tile-origin bounds) untouched.
            self.count_bounds = list(self.bounds)
            self.parallel_dims = len(self.bounds)
        elif isinstance(root, scf.ForOp):
            if root.iter_args or root.results:
                raise VectorizationError("loop-carried values cannot be vectorized")
            block = root.body.block
            self._push_dim(block.args[0], root.lower_bound, root.upper_bound, root.step)
        else:
            raise VectorizationError(f"{root.name} is not a vectorizable nest")
        self._compile_block(block)
        return CompiledNest(self.bounds, self.instrs, self.count_bounds, root.name)

    def _push_dim(self, iv: SSAValue, lower, upper, step) -> None:
        self.ivs[iv] = len(self.bounds)
        self.bounds.append(
            (
                self._invariant_operand(lower),
                self._invariant_operand(upper),
                self._invariant_operand(step),
            )
        )

    def _invariant_operand(self, value: SSAValue) -> _Affine:
        affine = self._index_operand(value)
        if affine is None or affine.coeffs:
            raise VectorizationError("loop bounds must be nest-invariant")
        return affine

    # -- structure ----------------------------------------------------------
    def _compile_block(self, block) -> None:
        ops = list(block.ops)
        for position, op in enumerate(ops):
            name = op.name
            if name in _NEST_TERMINATORS:
                if op.operands or position != len(ops) - 1:
                    raise VectorizationError("nests must not yield values")
                return
            if isinstance(op, scf.ReduceOp):
                if position != len(ops) - 1:
                    raise VectorizationError("scf.reduce must terminate the nest body")
                self._compile_reduce(op)
                return
            if isinstance(op, scf.ForOp):
                # Perfectly nested inner loop: nothing may follow it.
                if op.iter_args or op.results:
                    raise VectorizationError("inner loop carries values")
                remainder = ops[position + 1 :]
                if len(remainder) != 1 or remainder[0].name not in _NEST_TERMINATORS \
                        or remainder[0].operands:
                    raise VectorizationError("inner loop is not perfectly nested")
                self._enter_inner_for(op)
                self._compile_block(op.body.block)
                return
            self._compile_op(op)

    def _enter_inner_for(self, op: scf.ForOp) -> None:
        """Add an inner ``scf.for`` as a nest dimension, or collapse a tile.

        Nest-invariant bounds extend the iteration space by one dimension.
        The min-clamped tile pattern (lower bound = an outer tile-origin iv,
        upper bound = ``minsi(origin + tile_size, extent)``) instead rewrites
        the origin dimension into the full ``[lower, extent)`` unit-step range
        and maps this loop's iv onto it.  Loops tagged ``tile_dim`` by
        ``convert-stencil-to-scf{tile}`` go straight to the tile path.
        """
        iv = op.body.block.args[0]
        if "tile_dim" not in op.attributes:
            try:
                lower = self._invariant_operand(op.lower_bound)
                upper = self._invariant_operand(op.upper_bound)
                step = self._invariant_operand(op.step)
            except VectorizationError:
                pass
            else:
                self.ivs[iv] = len(self.bounds)
                self.bounds.append((lower, upper, step))
                return
        self._collapse_tile(op, iv)

    def _collapse_tile(self, op: scf.ForOp, iv: SSAValue) -> None:
        lower = self._index_operand(op.lower_bound)
        if (
            lower is None or lower.const or lower.free
            or list(lower.coeffs.values()) != [1]
        ):
            raise VectorizationError(
                "inner loop bounds are neither nest-invariant nor the "
                "min-clamped tile pattern"
            )
        dim = next(iter(lower.coeffs))
        if dim >= self.parallel_dims or dim in self.collapsed_dims:
            raise VectorizationError(
                "tile lower bound must be an un-collapsed outer parallel "
                "induction variable"
            )
        step = self._index_operand(op.step)
        if step is None or not step.is_literal or step.const != 1:
            raise VectorizationError("intra-tile loops must have unit step")
        clamp = self.sym.get(op.upper_bound)
        if not (isinstance(clamp, tuple) and clamp[0] == "min"):
            raise VectorizationError(
                "tile upper bound must be an arith.minsi clamp of the tile end"
            )
        outer_lower, outer_upper, outer_step = self.bounds[dim]
        if not outer_step.is_literal or outer_step.const <= 0:
            raise VectorizationError(
                "tile loop step (the tile size) must be a positive literal"
            )
        matched: Optional[_Affine] = None
        for tile_end, limit in ((clamp[1], clamp[2]), (clamp[2], clamp[1])):
            if limit.coeffs:
                continue
            extent = tile_end.combine(_Affine({dim: 1}), -1)
            if extent.coeffs:
                continue
            # The clamp must be min(origin + tile_size, outer_upper) with
            # tile_size == the outer step: only then does the (origin,
            # intra-tile) pair cover [outer_lower, outer_upper) contiguously
            # in ascending order.
            if _affine_equal(extent, outer_step) and _affine_equal(limit, outer_upper):
                matched = limit
                break
        if matched is None:
            raise VectorizationError(
                "tile clamp does not match the outer tile loop's step and bound"
            )
        if self._instrs_mention_dim(dim):
            # A load/store/value emitted *before* this tile loop already
            # captured the dimension at tile-origin granularity; rewriting it
            # to cell granularity would silently change what those
            # instructions compute (e.g. a hoisted load of u[origin]).
            raise VectorizationError(
                "tile origin used by instructions before the tile loop"
            )
        self.bounds[dim] = (outer_lower, matched, _Affine(const=1))
        self.collapsed_dims.add(dim)
        # The collapsed dimension now means "cell index", not "tile origin":
        # ban the origin iv and every symbolic expression that captured the
        # old meaning (they were only ever legitimate inputs to this loop's
        # bounds, which have been consumed).
        for value, mapped in list(self.ivs.items()):
            if mapped == dim:
                del self.ivs[value]
                self.banned[value] = "tile origin used outside its tile loop"
        for value, symbol in list(self.sym.items()):
            if self._mentions_dim(symbol, dim):
                del self.sym[value]
                self.banned[value] = (
                    "tile-origin expression used outside the tile-loop bounds"
                )
        self.ivs[iv] = dim

    @staticmethod
    def _mentions_dim(symbol, dim: int) -> bool:
        if isinstance(symbol, _Affine):
            return dim in symbol.coeffs
        if isinstance(symbol, tuple) and symbol[0] in ("min", "max"):
            return dim in symbol[1].coeffs or dim in symbol[2].coeffs
        return False

    def _instrs_mention_dim(self, dim: int) -> bool:
        """Whether any already-compiled instruction references dimension ``dim``."""

        def ref_mentions(ref) -> bool:
            return (
                isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "aff"
                and dim in ref[1].coeffs
            )

        for instr in self.instrs:
            kind = instr[0]
            if kind in ("load", "store"):
                if any(dim in affine.coeffs for affine in instr[3]):
                    return True
                if kind == "store" and ref_mentions(instr[1]):
                    return True
            elif any(ref_mentions(part) for part in instr[2:]):
                return True
        return False

    # -- reductions ---------------------------------------------------------
    def _compile_reduce(self, op: scf.ReduceOp) -> None:
        root = self.root
        if not isinstance(root, scf.ParallelOp) or op.parent is not root.body.block:
            raise VectorizationError(
                "scf.reduce must terminate the scf.parallel body"
            )
        if len(op.operands) != len(root.results) or len(op.regions) != len(op.operands):
            raise VectorizationError("scf.reduce value/combiner count mismatch")
        for value, region, init, result in zip(
            op.operands, op.regions, root.init_values, root.results
        ):
            fn, sequential = self._combiner_kind(region)
            convert = float if is_float_type(result.type) else int
            self.instrs.append(
                (
                    "reduce", result, fn, sequential,
                    self._value_ref(value), self._value_ref(init), convert,
                )
            )

    @staticmethod
    def _combiner_kind(region) -> tuple[Any, bool]:
        block = region.block
        ops = list(block.ops)
        if len(block.args) != 2 or len(ops) != 2:
            raise VectorizationError("unsupported scf.reduce combiner structure")
        combine, terminator = ops
        metadata = arith.REDUCTION_OP_METADATA.get(combine.name)
        if metadata is None:
            raise VectorizationError(
                f"reduction over {combine.name!r} is not supported"
            )
        if set(combine.operands) != set(block.args):
            raise VectorizationError(
                "combiner must apply its op to (accumulator, value)"
            )
        if not isinstance(terminator, scf.YieldOp) or list(terminator.operands) != [
            combine.results[0]
        ]:
            raise VectorizationError("combiner must yield the combined value")
        ufunc_name, sequential = metadata
        return _REDUCE_UFUNCS[ufunc_name], sequential

    # -- per-op classification ----------------------------------------------
    def _compile_op(self, op: Operation) -> None:
        name = op.name
        if isinstance(op, arith.ConstantOp):
            attr = op.value
            if isinstance(attr, IntegerAttr):
                result_type = op.results[0].type
                if isinstance(result_type, IntegerType) and result_type.width == 1:
                    self.sym[op.results[0]] = ("const", bool(attr.value))
                else:
                    self.sym[op.results[0]] = _Affine(const=int(attr.value))
            elif isinstance(attr, FloatAttr):
                self.sym[op.results[0]] = ("const", float(attr.value))
            else:
                raise VectorizationError("unsupported constant payload")
            return

        if isinstance(op, memref.LoadOp):
            self._compile_access(op.memref, op.indices, result=op.results[0])
            return
        if isinstance(op, memref.StoreOp):
            self._compile_access(op.memref, op.indices, stored=op.value)
            return

        # Integer/index arithmetic stays symbolic whenever possible so it can
        # feed memref indices.
        if name in ("arith.addi", "arith.subi", "arith.muli"):
            lhs = self._index_operand(op.operands[0])
            rhs = self._index_operand(op.operands[1])
            if lhs is not None and rhs is not None:
                if name == "arith.addi":
                    self.sym[op.results[0]] = lhs.combine(rhs, 1)
                elif name == "arith.subi":
                    self.sym[op.results[0]] = lhs.combine(rhs, -1)
                else:
                    if lhs.is_literal:
                        self.sym[op.results[0]] = rhs.scale(lhs.const)
                    elif rhs.is_literal:
                        self.sym[op.results[0]] = lhs.scale(rhs.const)
                    else:
                        raise VectorizationError("non-affine index product")
                return
        if name in ("arith.minsi", "arith.maxsi"):
            # Symbolic min/max of index expressions: the clamp of a tiled
            # loop's upper bound.  Elementwise minsi on loaded data still hits
            # the _BINARY_FNS path below (its operands are arrays, not
            # affines).
            lhs = self._index_operand(op.operands[0])
            rhs = self._index_operand(op.operands[1])
            if lhs is not None and rhs is not None:
                if lhs.is_literal and rhs.is_literal:
                    fold = min if name == "arith.minsi" else max
                    self.sym[op.results[0]] = _Affine(const=fold(lhs.const, rhs.const))
                else:
                    self.sym[op.results[0]] = (
                        "min" if name == "arith.minsi" else "max", lhs, rhs,
                    )
                return
        if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
            affine = self._index_operand(op.operands[0])
            if affine is not None:
                self.sym[op.results[0]] = affine
                return

        if name in _BINARY_FNS:
            self._emit(
                "binary", op.results[0], _BINARY_FNS[name], name,
                self._value_ref(op.operands[0]), self._value_ref(op.operands[1]),
            )
            return
        if name in _UNARY_FNS:
            self._emit(
                "unary", op.results[0], _UNARY_FNS[name], name,
                self._value_ref(op.operands[0]),
            )
            return
        if name == "arith.cmpf":
            assert isinstance(op, arith.CmpfOp)
            fn = _CMPF_FNS.get(op.predicate)
            if fn is None:
                raise VectorizationError(f"cmpf predicate {op.predicate!r}")
            self._emit(
                "binary", op.results[0], fn, f"arith.cmpf:{op.predicate}",
                self._value_ref(op.operands[0]), self._value_ref(op.operands[1]),
            )
            return
        if name == "arith.cmpi":
            assert isinstance(op, arith.CmpiOp)
            fn = _CMPI_FNS.get(op.predicate)
            if fn is None:
                raise VectorizationError(f"cmpi predicate {op.predicate!r}")
            self._emit(
                "binary", op.results[0], fn, f"arith.cmpi:{op.predicate}",
                self._value_ref(op.operands[0]), self._value_ref(op.operands[1]),
            )
            return
        if name == "arith.select":
            self.instrs.append(
                (
                    "select", op.results[0],
                    self._value_ref(op.operands[0]),
                    self._value_ref(op.operands[1]),
                    self._value_ref(op.operands[2]),
                )
            )
            self.sym[op.results[0]] = "array"
            return
        raise VectorizationError(f"operation {name!r} cannot be vectorized")

    def _emit(self, kind: str, result: SSAValue, fn, name: str, *refs: _Ref) -> None:
        # The trailing op name (``arith.addf``, ``arith.cmpf:<pred>``) keys
        # the BINARY_EXPRESSIONS / unary_expression source templates; the
        # positional layout up to the refs is unchanged, so _prepare_box's
        # instr[2](instr[3], ...) dispatch is unaffected.
        self.instrs.append((kind, result, fn, *refs, name))
        self.sym[result] = "array"

    def _compile_access(self, base: SSAValue, indices, result=None, stored=None) -> None:
        if base in self.sym or base in self.ivs:
            raise VectorizationError("memref allocated inside the nest")
        axes = []
        for index_value in indices:
            affine = self._index_operand(index_value)
            if affine is None:
                raise VectorizationError("non-affine memref index")
            axes.append(affine)
        if result is not None:
            self.instrs.append(("load", result, base, axes))
            self.sym[result] = "array"
        else:
            self.instrs.append(("store", self._value_ref(stored), base, axes))

    # -- operand classification ----------------------------------------------
    def _index_operand(self, value: SSAValue) -> Optional[_Affine]:
        """An affine view of ``value``, or None when it is not index-like."""
        if value in self.banned:
            raise VectorizationError(self.banned[value])
        if value in self.ivs:
            return _Affine({self.ivs[value]: 1})
        symbol = self.sym.get(value)
        if symbol is not None:
            if isinstance(symbol, _Affine):
                return symbol
            if isinstance(symbol, tuple) and isinstance(symbol[1], int) \
                    and not isinstance(symbol[1], bool):
                return _Affine(const=symbol[1])
            return None
        # Constants defined *outside* the nest fold to literals so tile
        # clamps survive LICM/CSE hoisting their operands out of the body.
        owner = value.owner
        if isinstance(owner, arith.ConstantOp):
            attr = owner.value
            if isinstance(attr, IntegerAttr):
                result_type = owner.results[0].type
                if isinstance(result_type, IntegerType) and result_type.width == 1:
                    return None
                return _Affine(const=int(attr.value))
            return None
        value_type = value.type
        if isinstance(value_type, IndexType) or (
            isinstance(value_type, IntegerType) and value_type.width > 1
        ):
            return _Affine(free={value: 1})
        return None

    def _value_ref(self, value: SSAValue) -> _Ref:
        if value in self.banned:
            raise VectorizationError(self.banned[value])
        if value in self.ivs:
            return ("aff", _Affine({self.ivs[value]: 1}))
        symbol = self.sym.get(value)
        if symbol is None:
            owner = value.owner
            if isinstance(owner, arith.ConstantOp):
                attr = owner.value
                if isinstance(attr, IntegerAttr):
                    result_type = owner.results[0].type
                    if isinstance(result_type, IntegerType) and result_type.width == 1:
                        return ("const", bool(attr.value))
                    return ("const", int(attr.value))
                if isinstance(attr, FloatAttr):
                    return ("const", float(attr.value))
            return ("free", value)  # defined outside the nest: env lookup
        if symbol == "array":
            return ("arr", value)
        if isinstance(symbol, _Affine):
            if symbol.is_literal:
                return ("const", symbol.const)
            return ("aff", symbol)
        if isinstance(symbol, tuple) and symbol[0] in ("min", "max"):
            raise VectorizationError(
                "min/max index clamp used as a value outside loop bounds"
            )
        return ("const", symbol[1])


def compile_loop_nest(op: Operation) -> Optional[CompiledNest]:
    """Compile one loop nest, or return None when it is not vectorizable."""
    compiled = compile_loop_nest_or_fallback(op)
    return compiled if isinstance(compiled, CompiledNest) else None


def compile_loop_nest_or_fallback(
    op: Operation,
) -> Union[CompiledNest, VectorizeFallback]:
    """Compile one loop nest, or say *why* it cannot be vectorized."""
    try:
        return _NestCompiler(op).compile()
    except VectorizationError as err:
        return VectorizeFallback(op.name, str(err))


# ---------------------------------------------------------------------------
# whole-function compilation + cache entry point
# ---------------------------------------------------------------------------

class CompiledKernel:
    """Vectorized nests of one function, looked up by nest operation."""

    def __init__(
        self,
        function_name: str,
        nests: dict[int, CompiledNest],
        fallbacks: Optional[dict[int, VectorizeFallback]] = None,
    ):
        self.function_name = function_name
        self.nests = nests
        #: Candidate nest roots that could *not* be compiled, with reasons.
        self.fallbacks: dict[int, VectorizeFallback] = fallbacks or {}

    def nest_for(self, op: Operation) -> Optional[CompiledNest]:
        return self.nests.get(id(op))

    def fallback_for(self, op: Operation) -> Optional[VectorizeFallback]:
        """Why ``op`` was not compiled (None when it was, or was never a root)."""
        return self.fallbacks.get(id(op))

    @property
    def nest_count(self) -> int:
        return len(self.nests)

    @property
    def fallback_reasons(self) -> list[str]:
        """Every compile-time rejection, as human-readable strings."""
        return sorted(str(fallback) for fallback in self.fallbacks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledKernel {self.function_name!r}: {len(self.nests)} nests, "
            f"{len(self.fallbacks)} fallbacks>"
        )


_CANDIDATES = (scf.ParallelOp, omp.WsLoopOp, scf.ForOp)


def compile_kernel(module: Operation, function_name: str) -> CompiledKernel:
    """Compile every vectorizable loop nest of one function of ``module``.

    Unknown function names yield an empty kernel (the interpreter will raise
    its usual error when the call is attempted), so callers need not special
    case them.
    """
    nests: dict[int, CompiledNest] = {}
    fallbacks: dict[int, VectorizeFallback] = {}
    for op in module.walk():
        if not (isinstance(op, func.FuncOp) and op.sym_name == function_name):
            continue
        compiled_region_roots: set[int] = set()
        for candidate in op.walk():
            if not isinstance(candidate, _CANDIDATES):
                continue
            if any(
                id(ancestor) in compiled_region_roots
                for ancestor in _ancestors(candidate)
            ):
                continue  # already covered by a vectorized enclosing nest
            nest = compile_loop_nest_or_fallback(candidate)
            if isinstance(nest, CompiledNest):
                nests[id(candidate)] = nest
                compiled_region_roots.add(id(candidate))
            else:
                fallbacks[id(candidate)] = nest
        break
    return CompiledKernel(function_name, nests, fallbacks)


def _ancestors(op: Operation):
    current = op.parent_op
    while current is not None:
        yield current
        current = current.parent_op
