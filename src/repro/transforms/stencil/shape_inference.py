"""Stencil shape inference.

Propagates bounds information through a stencil program:

* the bounds of each ``stencil.apply`` result are the bounds of the store that
  consumes it;
* each apply *input* must cover the store bounds grown by the access offsets
  used on it (the stencil footprint);
* ``stencil.load`` results inherit the bounds required by their consumers, and
  the loaded field must contain them.

Because the paper's redesigned dialect attaches bounds to types, this pass
simply retypes SSA values in place.
"""

from __future__ import annotations

from ...dialects import stencil
from ...ir.context import MLContext
from ...ir.core import Operation
from ...ir.pass_manager import ModulePass, PassRegistry


class ShapeInferenceError(Exception):
    """Raised when bounds cannot be inferred or are inconsistent."""


def required_input_bounds(
    apply_op: stencil.ApplyOp, output_bounds: stencil.StencilBoundsAttr
) -> dict[int, stencil.StencilBoundsAttr]:
    """Bounds each operand must cover, derived from the access offsets."""
    required: dict[int, stencil.StencilBoundsAttr] = {}
    for operand_index, offsets in apply_op.access_offsets().items():
        rank = output_bounds.rank
        lower_growth = [0] * rank
        upper_growth = [0] * rank
        for offset in offsets:
            for dim, component in enumerate(offset):
                lower_growth[dim] = max(lower_growth[dim], max(0, -component))
                upper_growth[dim] = max(upper_growth[dim], max(0, component))
        required[operand_index] = stencil.StencilBoundsAttr(
            [l - g for l, g in zip(output_bounds.lb, lower_growth)],
            [u + g for u, g in zip(output_bounds.ub, upper_growth)],
        )
    return required


def stored_output_bounds(
    apply_op: stencil.ApplyOp,
) -> stencil.StencilBoundsAttr | None:
    """The common bounds of the stores consuming ``apply_op``'s results.

    None when no result is stored directly.
    """
    output_bounds: stencil.StencilBoundsAttr | None = None
    for result in apply_op.results:
        for use in result.uses:
            if isinstance(use.operation, stencil.StoreOp):
                store_bounds = use.operation.bounds
                if output_bounds is None:
                    output_bounds = store_bounds
                elif output_bounds != store_bounds:
                    raise ShapeInferenceError(
                        "results of one stencil.apply are stored with "
                        "inconsistent bounds"
                    )
    return output_bounds


def infer_shapes(module: Operation) -> int:
    """Infer and attach bounds to every stencil temp; return the number retyped."""
    retyped = 0
    for apply_op in stencil.apply_ops_of(module):
        # 1. Output bounds come from the consuming stores.
        output_bounds = stored_output_bounds(apply_op)
        if output_bounds is None:
            continue
        for result in apply_op.results:
            result_type = result.type
            assert isinstance(result_type, stencil.TempType)
            if result_type.bounds != output_bounds:
                result.type = stencil.TempType(output_bounds, result_type.element_type)
                retyped += 1

        # 2. Input bounds are the output bounds grown by the stencil footprint.
        required = required_input_bounds(apply_op, output_bounds)
        for operand_index, bounds in required.items():
            operand = apply_op.operands[operand_index]
            operand_type = operand.type
            if not isinstance(operand_type, stencil.TempType):
                continue
            if operand_type.bounds is None or not operand_type.bounds.contains(bounds):
                new_bounds = (
                    bounds
                    if operand_type.bounds is None
                    else stencil.StencilBoundsAttr(
                        [min(a, b) for a, b in zip(operand_type.bounds.lb, bounds.lb)],
                        [max(a, b) for a, b in zip(operand_type.bounds.ub, bounds.ub)],
                    )
                )
                operand.type = stencil.TempType(new_bounds, operand_type.element_type)
                retyped += 1
            # Keep the apply region argument types in sync with the operands.
            region_arg = apply_op.region_args[operand_index]
            if region_arg.type != operand.type:
                region_arg.type = operand.type
                retyped += 1

        # 3. Check the loaded fields can provide the required bounds.
        for operand_index, bounds in required.items():
            operand = apply_op.operands[operand_index]
            owner = operand.owner
            if isinstance(owner, stencil.LoadOp):
                field_type = owner.field.type
                if (
                    isinstance(field_type, stencil.FieldType)
                    and field_type.bounds is not None
                    and not field_type.bounds.contains(bounds)
                ):
                    raise ShapeInferenceError(
                        f"stencil.load of field with bounds {field_type.bounds} cannot "
                        f"provide the required bounds {bounds} (missing halo?)"
                    )
    return retyped


class StencilShapeInferencePass(ModulePass):
    """Attach inferred bounds to stencil temps (paper §4.1 type-carried bounds)."""

    name = "stencil-shape-inference"

    def apply(self, ctx: MLContext, module: Operation) -> None:
        infer_shapes(module)


PassRegistry.register("stencil-shape-inference", StencilShapeInferencePass)
