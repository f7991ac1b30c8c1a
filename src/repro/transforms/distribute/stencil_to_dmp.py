"""The global-to-local pass: distribute a stencil program over MPI ranks.

This is the "shared pass that automatically prepares stencil programs for
distributed execution" of paper §4.2.  Given a rank topology and a
decomposition strategy it

1. computes the halo each field needs from the ``stencil.access`` offsets of
   every ``stencil.apply`` in the function,
2. rewrites every ``!stencil.field`` (and dependent temp) type from the global
   bounds to the rank-local bounds (core at ``[0, n)`` plus halo),
3. shrinks every ``stencil.store`` range to the local core, and
4. inserts a ``dmp.swap`` in front of every ``stencil.load`` whose consumers
   read beyond the core, so neighbouring ranks hold up-to-date halo data
   before each stencil computation.

Swaps are footprint-exact: each one exchanges only the halo depth that the
``stencil.apply`` operations consuming its load actually read (their access
offsets), not the combined halo of the whole program.  A load read only at
offset zero gets no swap at all.  A load consumed by anything other than an
apply whose reads are all ``stencil.access`` keeps the full exchanges.

The produced module is SPMD: every rank executes the same IR; which slab of
the global domain a rank owns is decided by the runtime (data scatter/gather
in the executor) and by the neighbour checks emitted when lowering dmp to mpi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...dialects import func, stencil
from ...dialects.builtin import UnrealizedConversionCastOp
from ...dialects.dmp import ExchangeAttr, SwapOp
from ...ir.builder import Builder
from ...ir.context import MLContext
from ...ir.core import Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import FunctionType, MemRefType
from ..stencil.shape_inference import (
    infer_shapes,
    required_input_bounds,
    stored_output_bounds,
)
from .decomposition import DecompositionError, DecompositionStrategy, LocalDomain


@dataclass
class DistributionSummary:
    """What the global-to-local pass did (used by tests and the cost model)."""

    global_shape: tuple[int, ...]
    local_domain: LocalDomain
    swaps_inserted: int
    #: Loads that needed no swap (core-only reads, single-rank grids).
    swaps_elided: int
    #: Halo elements exchanged per rank, summed over the inserted swaps.
    halo_elements: int


def _collect_global_bounds(module: Operation) -> stencil.StencilBoundsAttr:
    """The common store bounds of the program == the global compute domain."""
    bounds: Optional[stencil.StencilBoundsAttr] = None
    for op in module.walk():
        if isinstance(op, stencil.StoreOp):
            if bounds is None:
                bounds = op.bounds
            elif bounds != op.bounds:
                raise DecompositionError(
                    "all stencil.store operations must share the same global bounds "
                    "to be distributed automatically"
                )
    if bounds is None:
        raise DecompositionError("no stencil.store found; nothing to distribute")
    return bounds


def _retype_fields(module: Operation, new_bounds: stencil.StencilBoundsAttr) -> int:
    """Give every field-typed SSA value the local bounds; returns the count."""
    retyped = 0

    def new_field_type(old: stencil.FieldType) -> stencil.FieldType:
        return stencil.FieldType(new_bounds, old.element_type)

    for op in module.walk():
        for result in op.results:
            if isinstance(result.type, stencil.FieldType):
                result.type = new_field_type(result.type)
                retyped += 1
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    if isinstance(arg.type, stencil.FieldType):
                        arg.type = new_field_type(arg.type)
                        retyped += 1
        if isinstance(op, func.FuncOp):
            ftype = op.function_type
            new_inputs = [
                new_field_type(t) if isinstance(t, stencil.FieldType) else t
                for t in ftype.inputs
            ]
            new_outputs = [
                new_field_type(t) if isinstance(t, stencil.FieldType) else t
                for t in ftype.outputs
            ]
            op.attributes["function_type"] = FunctionType(new_inputs, new_outputs)
    return retyped


def _reset_temp_types(module: Operation) -> None:
    """Drop stale (global) bounds from temps so shape inference recomputes them."""
    for op in module.walk():
        if isinstance(op, stencil.LoadOp):
            field_type = op.field.type
            assert isinstance(field_type, stencil.FieldType)
            op.result.type = stencil.TempType(field_type.bounds, field_type.element_type)
        if isinstance(op, stencil.ApplyOp):
            for arg, operand in zip(op.region_args, op.operands):
                arg.type = operand.type


def distribute_stencil(
    module: Operation,
    strategy: DecompositionStrategy,
) -> DistributionSummary:
    """Apply the global-to-local transformation in place."""
    applies = stencil.apply_ops_of(module)
    if not applies:
        raise DecompositionError("module contains no stencil.apply operations")
    halo_lower, halo_upper = stencil.combined_halo(applies)

    global_bounds = _collect_global_bounds(module)
    global_shape = global_bounds.shape
    domain = strategy.local_domain(global_shape, halo_lower, halo_upper)
    local_field_bounds = domain.field_bounds()
    local_store_bounds = domain.compute_bounds()

    # 1. Retype fields to the local buffer bounds.
    _retype_fields(module, local_field_bounds)

    # 2. Shrink stores to the local core.
    for op in module.walk():
        if isinstance(op, stencil.StoreOp):
            op.attributes["bounds"] = local_store_bounds

    # 3. Temps follow from the new field types / store bounds.
    _reset_temp_types(module)
    infer_shapes(module)

    # 4. Insert a dmp.swap before every stencil.load that reads its halo.
    grid = strategy.rank_grid()
    swaps = elided = elements = 0
    for op in list(module.walk()):
        if not isinstance(op, stencil.LoadOp):
            continue
        exchanges = strategy.exchanges(domain, _load_footprint(op, domain))
        _check_exchanges(exchanges, domain)
        if not exchanges:
            elided += 1
            continue
        builder = Builder.before(op)
        cast = builder.insert(
            UnrealizedConversionCastOp.get(
                op.field, MemRefType(domain.buffer_shape, _element_type_of(op.field))
            )
        )
        builder.insert(SwapOp(cast.output, grid, exchanges))
        swaps += 1
        elements += sum(exchange.element_count() for exchange in exchanges)

    return DistributionSummary(
        global_shape=tuple(global_shape),
        local_domain=domain,
        swaps_inserted=swaps,
        swaps_elided=elided,
        halo_elements=elements,
    )


def _load_footprint(
    load: stencil.LoadOp, domain: LocalDomain
) -> Optional[tuple[list[int], list[int]]]:
    """Halo depth per dimension that the consumers of ``load`` read.

    Returns ``(lower, upper)`` widths for the strategy, or None (the whole
    halo) when a consumer is not an apply whose uses of the operand are all
    ``stencil.access``, or when the apply's output bounds are unknown.  An
    exchange's send and receive share one size, and the send of one rank's
    lower exchange is the receive of its neighbour's upper one, so each
    dimension exchanges ``max(lower, upper)`` layers in both directions
    (:func:`_check_exchanges` rejects a halo too shallow on one side).
    """
    rank = domain.rank
    depth = [0] * rank
    for use in load.result.uses:
        apply_op = use.operation
        if not isinstance(apply_op, stencil.ApplyOp):
            return None
        region_arg = apply_op.region_args[use.index]
        if any(not isinstance(arg_use.operation, stencil.AccessOp)
               for arg_use in region_arg.uses):
            return None
        output_bounds = stored_output_bounds(apply_op)
        if output_bounds is None:
            return None
        required = required_input_bounds(apply_op, output_bounds).get(use.index)
        if required is None:
            continue  # the operand is never read
        for dim in range(rank):
            depth[dim] = max(depth[dim], -required.lb[dim],
                             required.ub[dim] - domain.core_shape[dim])
    return depth, depth


def _check_exchanges(exchanges: list[ExchangeAttr], domain: LocalDomain) -> None:
    """Reject exchanges that the local buffer or the neighbours cannot match.

    An exchange sends and receives the same number of layers, and one
    rank's exchange towards a neighbour is matched by that neighbour's
    exchange in the opposite direction.  A decomposed dimension whose halo
    is one-sided (or deeper on one side) therefore cannot be expressed: the
    exchange would receive outside the buffer or have no partner.
    """
    sizes = {exchange.neighbor: exchange.size for exchange in exchanges}
    for exchange in exchanges:
        partner = tuple(-offset for offset in exchange.neighbor)
        inside = all(
            0 <= start and start + size <= extent
            for start, size, extent in zip(
                exchange.offset, exchange.size, domain.buffer_shape)
        )
        if not inside or sizes.get(partner) != exchange.size:
            raise DecompositionError(
                f"halo exchange towards neighbour {list(exchange.neighbor)} "
                f"cannot be matched: the local halo is lower "
                f"{list(domain.halo_lower)}, upper {list(domain.halo_upper)}, "
                f"and a dmp.exchange moves the same depth both ways"
            )


def _element_type_of(field: SSAValue):
    field_type = field.type
    assert isinstance(field_type, stencil.FieldType)
    return field_type.element_type


class DistributeStencilPass(ModulePass):
    """Decompose the stencil domain over a rank grid and insert halo swaps."""

    name = "distribute-stencil"

    def __init__(self, strategy: DecompositionStrategy):
        self.strategy = strategy
        self.summary: Optional[DistributionSummary] = None

    def apply(self, ctx: MLContext, module: Operation) -> None:
        self.summary = distribute_stencil(module, self.strategy)
