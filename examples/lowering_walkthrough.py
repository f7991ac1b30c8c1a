"""Walk through the lowering chain of fig. 4: stencil -> dmp -> mpi -> func.

Builds the paper's 1D Jacobi example, distributes it over two ranks, and
prints the IR after each lowering stage so the progressive introduction of
halo-exchange and message-passing detail is visible.

Run with:  python examples/lowering_walkthrough.py
"""

from repro.dialects.dmp import SwapOp
from repro.dialects.mpi import IsendOp, IrecvOp, WaitallOp
from repro.frontends.oec import StencilProgramBuilder
from repro.ir import print_module
from repro.transforms.distribute import (
    GridSlicingStrategy,
    distribute_stencil,
    lower_dmp_to_mpi,
)
from repro.transforms.mpi import lower_mpi_to_func
from repro.transforms.stencil import infer_shapes


def build_program():
    builder = StencilProgramBuilder("kernel", shape=(64,), halo=1, dtype="f64")
    u = builder.add_field("u")
    v = builder.add_field("v")

    def jacobi(s):
        left, centre, right = s.access(0, (-1,)), s.access(0, (0,)), s.access(0, (1,))
        two = s.constant(2.0)
        return s.sub(s.add(left, right), s.mul(two, centre))

    builder.add_stencil(inputs=[u], output=v, body=jacobi)
    builder.swap(u, v)
    return builder.build()


def show(title: str, module, keep=18) -> None:
    print(f"\n{'=' * 12} {title} {'=' * 12}")
    lines = print_module(module).splitlines()
    print("\n".join(lines[:keep]))
    if len(lines) > keep:
        print(f"  ... ({len(lines) - keep} more lines)")


def main() -> None:
    module = build_program()
    infer_shapes(module)
    show("stencil level (global domain)", module)

    strategy = GridSlicingStrategy([2])
    summary = distribute_stencil(module, strategy)
    print(f"\nglobal domain {summary.global_shape} -> local core "
          f"{summary.local_domain.core_shape} + halo {summary.local_domain.halo_lower}; "
          f"{summary.swaps_inserted} dmp.swap inserted "
          f"({summary.swaps_elided} elided: core-only reads), "
          f"{summary.halo_elements} halo elements over all swaps")
    show("dmp level (local domain + declarative halo exchange)", module)
    swaps = [op for op in module.walk() if isinstance(op, SwapOp)]
    for exchange in swaps[0].swaps:
        print("  ", exchange)

    lower_dmp_to_mpi(module)
    point_to_point = sum(1 for op in module.walk() if isinstance(op, (IsendOp, IrecvOp)))
    waits = sum(1 for op in module.walk() if isinstance(op, WaitallOp))
    print(f"\nafter dmp->mpi: {point_to_point} isend/irecv pairs, {waits} waitall")

    lower_mpi_to_func(module)
    calls = sorted(
        {op.callee for op in module.walk() if op.name == "func.call" and op.callee.startswith("MPI_")}
    )
    print(f"after mpi->func: external MPI symbols referenced: {calls}")
    show("MPI level (library calls with mpich magic constants)", module, keep=30)


if __name__ == "__main__":
    main()
