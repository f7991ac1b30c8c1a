"""The three workloads: inputs, NumPy oracles, set-up and the unit of work.

Every workload goes through the stack's public entry points only: a
frontend builder (``repro.workloads`` / ``Operator.stencil_module``,
``StencilProgramBuilder.build``, ``PsycloneXDSLBackend.build_module``),
``compile_stencil_program``, ``Session``/``Plan`` and ``serve.Server``.
Inputs are generated from the ``--seed`` argument; the program only ever
sees the generated arrays.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    ExecutionConfig,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.frontends.oec import StencilProgramBuilder
from repro.frontends.psyclone import PsycloneXDSLBackend, reference_execute
from repro.serve import Server
from repro.workloads import acoustic_wave, heat_diffusion, tracer_advection

from measure import OutputCheck, Tally, exact_counters

ALPHA = 0.5      # heat diffusivity (the repro.workloads default)
VELOCITY = 1.5   # acoustic wave speed (the repro.workloads default)

#: Relative/absolute tolerance of a first run against its NumPy oracle.  The
#: oracle computes in float64 and stores float32 after every step, as the
#: emitted code does, but may round in another order: a few float32 ulps
#: per step over 20 steps stay far inside these bounds.
RTOL, ATOL = 1e-5, 1e-5

#: Centred second-derivative weights by space order (offsets -so/2..so/2).
_D2_WEIGHTS = {
    2: (1.0, -2.0, 1.0),
    4: (-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0),
}


def off_config(**overrides) -> ExecutionConfig:
    """A config with tracing explicitly off (``REPRO_TRACE`` is ignored)."""
    return ExecutionConfig(trace="off", **overrides)


def _close(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        np.allclose(g, w, rtol=RTOL, atol=ATOL) for g, w in zip(got, want))


# -- Devito stencils -------------------------------------------------------------

@dataclass(frozen=True)
class DevitoStencil:
    """A 2D Devito heat (time order 1) or acoustic wave (time order 2) problem."""

    kind: str
    shape: Tuple[int, int]
    space_order: int
    steps: int
    rank_grid: Optional[Tuple[int, ...]] = None

    @property
    def halo(self) -> int:
        return self.space_order // 2

    @property
    def buffers(self) -> int:
        return 2 if self.kind == "heat" else 3

    def problem(self):
        """The ``repro.workloads`` problem (grid, time function, equations)."""
        if self.kind == "heat":
            return heat_diffusion(self.shape, self.space_order, alpha=ALPHA,
                                  dtype=np.float32)
        return acoustic_wave(self.shape, self.space_order, velocity=VELOCITY,
                             dtype=np.float32)

    def frontend(self):
        """The Devito frontend call: equations to a stencil-dialect module."""
        problem = self.problem()
        return problem.operator(backend="xdsl").stencil_module(dt=problem.dt)

    @cached_property
    def _constants(self) -> Tuple[Tuple[float, ...], float]:
        problem = self.problem()
        inv_h2 = tuple(1.0 / (h * h) for h in problem.grid.spacing)
        if self.kind == "heat":
            return inv_h2, problem.dt * ALPHA
        return inv_h2, (problem.dt * VELOCITY) ** 2

    def target(self):
        return dmp_target(self.rank_grid) if self.rank_grid else cpu_target()

    def fields(self, rng: np.random.Generator) -> List[np.ndarray]:
        padded = tuple(n + 2 * self.halo for n in self.shape)
        return [rng.random(padded, dtype=np.float32) for _ in range(self.buffers)]

    def step(self, order: Sequence[np.ndarray], dtype=np.float64) -> None:
        """Write time t+1 into ``order[-1]`` from ``order[0]`` (t) and ``order[1]``.

        The hand-written NumPy step.  In float64 it is the oracle; in the
        fields' own dtype it is the plain single-threaded baseline that
        ``compute.ref_ratio`` divides the plan's step by.
        """
        halo = self.halo
        inv_h2, scale = self._constants
        now = np.asarray(order[0], dtype=dtype)
        centre = now[halo:-halo, halo:-halo]
        laplacian = 0.0
        for axis in (0, 1):
            extent = now.shape[axis]
            for offset, weight in zip(range(-halo, halo + 1),
                                      _D2_WEIGHTS[self.space_order]):
                window = [slice(halo, -halo), slice(halo, -halo)]
                window[axis] = slice(halo + offset, extent - halo + offset)
                laplacian = laplacian + (weight * inv_h2[axis]) * now[tuple(window)]
        if self.kind == "heat":
            update = centre + scale * laplacian
        else:
            update = 2.0 * centre - order[1][halo:-halo, halo:-halo] \
                + scale * laplacian
        order[-1][halo:-halo, halo:-halo] = update

    def oracle(self, fields: Sequence[np.ndarray], steps: int) -> List[np.ndarray]:
        """The fields after ``steps`` NumPy steps, rotated as Devito rotates."""
        buffers = [np.array(field, copy=True) for field in fields]
        order = list(buffers)
        for _ in range(steps):
            self.step(order)
            order = [order[-1]] + order[:-1]
        return buffers


# -- the plan workloads -------------------------------------------------------------

@dataclass
class Setup:
    """One set-up from the frontend call to the first validated result."""

    stages: Dict[str, float]
    session: Session
    plan: object
    program: object
    result: object


class PlanWorkload:
    """A held plan in a closed loop: ``plan.run(k steps)`` from seeded fields."""

    def __init__(self, name: str, stencil: DevitoStencil, runtime: str,
                 seed: int, setups: int):
        self.name = name
        self.stencil = stencil
        self.runtime = runtime
        self.steps = stencil.steps
        self.setups = setups
        self.init = stencil.fields(np.random.default_rng(seed))
        self.fields = [field.copy() for field in self.init]
        self.tally = Tally()
        self.check: Optional[OutputCheck] = None

    def restore(self) -> List[np.ndarray]:
        """Reset the working fields to the seeded inputs (untimed)."""
        for field, initial in zip(self.fields, self.init):
            field[...] = initial
        return self.fields

    def setup(self) -> Setup:
        """Frontend, compile, session start and warmup, plan, first run."""
        started = time.perf_counter()
        module = self.stencil.frontend()
        built = time.perf_counter()
        program = compile_stencil_program(module, self.stencil.target())
        compiled = time.perf_counter()
        session = Session(off_config(runtime=self.runtime))
        session.warmup(program)
        warm = time.perf_counter()
        plan = session.plan(program)
        planned = time.perf_counter()
        self.restore()
        result = plan.run(self.fields, [self.steps])
        done = time.perf_counter()
        return Setup(
            {"frontend": built - started, "compile": compiled - built,
             "session": warm - compiled, "plan": planned - warm,
             "first_run": done - planned},
            session, plan, program, result)

    def validate(self, setup: Setup) -> None:
        """Check a set-up's first run: the oracle once, then bit-identity."""
        counters = exact_counters(setup.result)
        if self.check is None:
            expected = self.stencil.oracle(self.init, self.steps)
            if not _close(self.fields, expected):
                worst = max(float(np.max(np.abs(g - w)))
                            for g, w in zip(self.fields, expected))
                self.tally.attempted += 1
                self.tally.fail(
                    f"{self.name}: first run differs from the NumPy oracle by "
                    f"{worst:.3g} (rtol {RTOL}, atol {ATOL})")
            self.check = OutputCheck(self.tally, self.fields, counters)
            self.parity(setup.program)
        self.check.check(self.fields, counters)

    def parity(self, program) -> None:
        """Process ranks must match thread ranks bit for bit (fields + counters)."""
        if self.runtime != "processes":
            return
        fields = [field.copy() for field in self.init]
        with Session(off_config(runtime="threads")) as session:
            result = session.plan(program).run(fields, [self.steps])
        self.check.check(fields, exact_counters(result))

    def unit(self, plan) -> Callable[[], Optional[float]]:
        """One unit of work (timed) plus its untimed restore and check."""
        def work() -> Optional[float]:
            fields = self.restore()
            try:
                start = time.perf_counter()
                result = plan.run(fields, [self.steps])
                elapsed = time.perf_counter() - start
            except Exception as error:  # noqa: BLE001 - counted, run continues
                self.tally.attempted += 1
                self.tally.fail(f"plan.run raised {error!r}")
                return None
            return elapsed if self.check.check(fields, exact_counters(result)) \
                else None
        return work

    @property
    def cells_per_unit(self) -> int:
        return self.check.counters["cells_updated"]


def heat2d_1rank(seed: int) -> PlanWorkload:
    return PlanWorkload("heat2d-1rank", DevitoStencil("heat", (256, 256), 2, 20),
                        "threads", seed, setups=60)


def wave2d_2proc(seed: int) -> PlanWorkload:
    return PlanWorkload(
        "wave2d-2proc", DevitoStencil("wave", (128, 128), 4, 20, (2, 1)),
        "processes", seed, setups=60)


# -- serve-mixed -------------------------------------------------------------------

def _jacobi_module():
    """OEC: a 3-point 1D Jacobi smoother over 256 points, double buffered."""
    builder = StencilProgramBuilder("kernel", shape=(256,), halo=1, dtype="f32")
    a, b = builder.add_field("a"), builder.add_field("b")
    builder.add_stencil([a], b, lambda s: s.mul(
        s.add(s.add(s.access(0, (-1,)), s.access(0, (0,))), s.access(0, (1,))),
        s.constant(1.0 / 3.0)))
    builder.swap(a, b)
    return builder.build()


def _jacobi_oracle(fields: Sequence[np.ndarray], steps: int) -> List[np.ndarray]:
    buffers = [np.array(field, copy=True) for field in fields]
    order = list(buffers)
    for _ in range(steps):
        src = order[0].astype(np.float64)
        order[1][1:-1] = (src[:-2] + src[1:-1] + src[2:]) * np.float32(1.0 / 3.0)
        order.reverse()
    return buffers


#: PSyclone NEMO tracer advection at one pass over its six fields (6
#: dependent computations).  At the default depth of 24 a job costs ~16 ms
#: of compute and the mix stops being a mix of tiny jobs.
TRACER = tracer_advection(shape=(32, 16, 8), iterations=5, computations=6)


def _tracer_oracle(fields: Sequence[np.ndarray], steps: int) -> List[np.ndarray]:
    schedule = TRACER.schedule
    arrays = {name: np.array(field, dtype=np.float64)
              for name, field in zip(schedule.array_names(), fields)}
    reference_execute(schedule, arrays, halo=1, iterations=steps)
    return [arrays[name] for name in schedule.array_names()]


@dataclass
class JobClass:
    """One job type of the served mix."""

    name: str
    weight: int
    build: Callable[[], object]            # frontend call -> module
    target: object
    shapes: Tuple[Tuple[int, ...], ...]
    steps: int
    oracle: Callable[[Sequence[np.ndarray], int], List[np.ndarray]]


#: The heat class of serve-mixed; the traced pass attributes it layer by layer.
HEAT64 = DevitoStencil("heat", (64, 64), 2, 10)

JOB_CLASSES = (
    JobClass("heat", 3, HEAT64.frontend, dmp_target((1, 1)),
             ((66, 66),) * 2, 10, HEAT64.oracle),
    JobClass("jacobi", 1, _jacobi_module, dmp_target((1,)),
             ((258,),) * 2, 20, _jacobi_oracle),
    JobClass("tracer", 1,
             lambda: PsycloneXDSLBackend(dtype=np.float32).build_module(
                 TRACER.schedule, TRACER.shape, iterations=TRACER.iterations),
             dmp_target((1, 1, 1)), ((34, 18, 10),) * 6, TRACER.iterations,
             _tracer_oracle),
)

#: Outstanding jobs the single client keeps in flight, and the server's cap.
WINDOW, MAX_BATCH = 4, 8
#: Jobs per timed block; each block is bracketed by calibration samples.
BLOCK_JOBS = 60


def assert_percentiles_off_boundaries(weights: Sequence[int],
                                      fractions: Sequence[float],
                                      margin: float = 0.10) -> None:
    """Every percentile >= ``margin`` from every class boundary of the mix.

    Class latencies form modes; a percentile sitting on the boundary between
    two modes jumps from one to the other between runs.  The latency order
    of the classes is not known in advance, so every order is checked.
    """
    total = sum(weights)
    for order in itertools.permutations(weights):
        boundaries = list(itertools.accumulate(w / total for w in order))[:-1]
        for fraction in fractions:
            for boundary in boundaries:
                if abs(fraction - boundary) < margin - 1e-9:
                    raise ValueError(
                        f"p{fraction * 100:g} is {abs(fraction - boundary):.2f} "
                        f"from a class boundary at {boundary:.2f}")


class ServeWorkload:
    """``serve.Server`` over process ranks with a seeded three-frontend mix."""

    name = "serve-mixed"

    def __init__(self, seed: int, setups: int = 50):
        self.setups = setups
        rng = np.random.default_rng(seed)
        self.inputs = {
            job.name: [rng.random(shape, dtype=np.float32) for shape in job.shapes]
            for job in JOB_CLASSES}
        self._order = random.Random(seed)
        self.tally = Tally()
        self.checks: Dict[str, OutputCheck] = {}
        #: Shared-memory blocks recycled / leased over every verified job.
        self.blocks_reused = self.blocks_leased = 0

    def sequence(self, count: int) -> List[JobClass]:
        """``count`` job classes: seeded shuffles of one exact weight block."""
        block = [job for job in JOB_CLASSES for _ in range(job.weight)]
        jobs: List[JobClass] = []
        while len(jobs) < count:
            self._order.shuffle(block)
            jobs.extend(block)
        return jobs[:count]

    def build(self) -> Tuple[Dict[str, object], float, float]:
        """All three frontends then compiles: (programs, frontend s, compile s)."""
        frontend = compile_s = 0.0
        programs = {}
        for job in JOB_CLASSES:
            started = time.perf_counter()
            module = job.build()
            built = time.perf_counter()
            programs[job.name] = compile_stencil_program(module, job.target)
            frontend += built - started
            compile_s += time.perf_counter() - built
        return programs, frontend, compile_s

    def start_server(self) -> Server:
        server = Server(off_config(runtime="processes"), max_batch=MAX_BATCH,
                        max_pending=4 * MAX_BATCH)
        server.session.warmup(ranks=WINDOW)
        return server

    def submit(self, server: Server, programs, job: JobClass):
        fields = [array.copy() for array in self.inputs[job.name]]
        return fields, server.submit(programs[job.name], fields, [job.steps])

    def setup(self) -> Tuple[Dict[str, float], Server, Dict[str, object], list]:
        """Frontends, compiles, server start + warmup, one job of each class."""
        started = time.perf_counter()
        programs, frontend, compile_s = self.build()
        built = time.perf_counter()
        server = self.start_server()
        warm = time.perf_counter()
        outcomes = [(job, *self.submit(server, programs, job)) for job in JOB_CLASSES]
        results = [(job, fields, handle.result(timeout=60.0))
                   for job, fields, handle in outcomes]
        done = time.perf_counter()
        stages = {"frontend": frontend, "compile": compile_s,
                  "session": warm - built, "first_run": done - warm}
        return stages, server, programs, results

    def reference(self, programs) -> None:
        """Standalone-session outputs, validated once against the oracles."""
        with Session(off_config(runtime="processes")) as session:
            for job in JOB_CLASSES:
                fields = [array.copy() for array in self.inputs[job.name]]
                result = session.plan(programs[job.name]).run(fields, [job.steps])
                if not _close(fields, job.oracle(self.inputs[job.name], job.steps)):
                    self.tally.attempted += 1
                    self.tally.fail(f"serve-mixed/{job.name}: standalone run "
                                    "differs from its NumPy oracle")
                self.checks[job.name] = OutputCheck(
                    self.tally, fields, exact_counters(result))

    def check(self, job: JobClass, fields, result) -> bool:
        return self.checks[job.name].check(fields, exact_counters(result))

    def block(self, server: Server, programs, jobs: Sequence[JobClass],
              latencies: List[float]) -> Callable[[], Optional[float]]:
        """A timed closed-loop block of ``jobs`` with ``WINDOW`` in flight."""
        def work() -> Optional[float]:
            done, pending = [], []
            own: List[float] = []
            start = time.perf_counter()
            for job in jobs:
                if len(pending) == WINDOW:
                    self._collect(pending, done, own)
                try:
                    fields, handle = self.submit(server, programs, job)
                except Exception as error:  # noqa: BLE001 - a rejected job
                    done.append((job, None, error))
                    continue
                pending.append((job, fields, handle, time.perf_counter()))
            while pending:
                self._collect(pending, done, own)
            elapsed = time.perf_counter() - start
            ok = all([self._verify(*entry) for entry in done])
            if not ok:
                return None
            latencies.extend(own)
            return elapsed
        return work

    def _collect(self, pending, done, latencies) -> None:
        job, fields, handle, submitted = pending.pop(0)
        try:
            result = handle.result(timeout=60.0)
        except Exception as error:  # noqa: BLE001 - counted, loop continues
            done.append((job, fields, error))
            return
        latencies.append(time.perf_counter() - submitted)
        done.append((job, fields, result))

    def _verify(self, job: JobClass, fields, result) -> bool:
        if isinstance(result, Exception):
            self.tally.attempted += 1
            self.tally.fail(f"{job.name} job raised {result!r}")
            return False
        self.blocks_reused += result.comm_statistics.shared_blocks_reused
        self.blocks_leased += len(fields)
        return self.check(job, fields, result)

    @property
    def mix_cells(self) -> float:
        """Mean exact cell updates per job of the mix."""
        total = sum(job.weight for job in JOB_CLASSES)
        return sum(job.weight * self.checks[job.name].counters["cells_updated"]
                   for job in JOB_CLASSES) / total
