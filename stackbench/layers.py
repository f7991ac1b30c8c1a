"""Per-layer attribution from a separate traced run.

Only counters and spans the program already exposes are read:
``ExecStatistics``/``CommStatistics`` on each ``ExecutionResult``,
``Session.metrics``, ``Server.metrics``, ``CompiledProgram.compile_record``
and the ``trace="timeline"`` records on ``ExecutionResult.trace``.  Self
times come from timeline depth, never from ``trace="summary"`` totals,
which report a span's exclusive time as equal to its inclusive time.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Sequence

from repro.core import Session
from repro.obs.tracer import DEFAULT_RING

from measure import NumpyCal, OutputCheck, PythonCal, exact_counters, timed
from workloads import off_config

#: The compile passes and pipeline stages reported one by one.
PASSES = ("stencil-fusion", "cse", "dce", "canonicalize")
STAGES = ("verify", "infer-shapes", "precodegen", "characterize", "distribute",
          "lower-stencil", "openmp", "finalize")

#: Traced runs kept for the timeline; each holds one record per rank, so
#: no ring buffer (65 536 spans) comes near wrapping.
MAX_TRACED = 24


def self_times(events: Iterable[tuple]) -> Dict[str, float]:
    """Per-name self seconds of one track from ``(name, start, dur, depth)``.

    A span's self time is its duration minus the durations of the spans
    one level deeper that start inside it.
    """
    totals: Dict[str, float] = {}
    stack: List[list] = []  # [name, end, depth, child seconds, duration]
    for name, start, duration, depth in sorted(events, key=lambda e: (e[1], e[3])):
        while stack and (stack[-1][1] <= start or stack[-1][2] >= depth):
            _close(stack.pop(), totals)
        if stack and stack[-1][2] == depth - 1:
            stack[-1][3] += duration
        stack.append([name, start + duration, depth, 0.0, duration])
    while stack:
        _close(stack.pop(), totals)
    return totals


def _close(entry: list, totals: Dict[str, float]) -> None:
    name, _, _, children, duration = entry
    totals[name] = totals.get(name, 0.0) + max(0.0, duration - children)


def _records(results: Sequence) -> List:
    records = [record for result in results for record in result.trace.records]
    for record in records:
        if len(record.events) >= DEFAULT_RING:
            raise RuntimeError(f"trace ring of track {record.track!r} wrapped")
    return records


def compile_layers(programs: Sequence) -> Dict[str, float]:
    """``compile.pass.*``/``compile.stage.*`` self ms summed over programs."""
    totals: Dict[str, float] = {}
    for program in programs:
        for name, seconds in self_times(program.compile_record.events).items():
            totals[name] = totals.get(name, 0.0) + seconds
    layers = {f"compile.pass.{name}_ms": totals.get(f"pass.{name}", 0.0) * 1e3
              for name in PASSES}
    layers.update({f"compile.stage.{name}_ms":
                   totals.get(f"pipeline.{name}", 0.0) * 1e3 for name in STAGES})
    return layers


def setup_layers(stages: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Medians of the timed set-up stages, in ms."""
    def median_ms(key: str) -> float:
        return statistics.median(stage.get(key, 0.0) for stage in stages) * 1e3
    return {
        "frontend.build_ms": median_ms("frontend"),
        "compile.total_ms": median_ms("compile"),
        "session.start_ms": median_ms("session"),
        "plan.build_ms": median_ms("plan"),
    }


def attribute(session: Session, program, init: Sequence, steps: int,
              ref_step, ref_order: Sequence, seconds: float,
              check: OutputCheck) -> Dict[str, float]:
    """Steady-state attribution of one held plan.

    Interleaves, per cycle: a 1-step run, a k-step run, a traced k-step run,
    one hand-written NumPy step, and one sample of each calibration kernel.
    Both k-step outputs go through ``check`` (traced runs must match too).
    """
    plain = session.plan(program)
    traced = session.plan(program, trace="timeline")
    fields = [array.copy() for array in init]

    def run(plan, count):
        for field, initial in zip(fields, init):
            field[...] = initial
        start = time.perf_counter()
        result = plan.run(fields, [count])
        return time.perf_counter() - start, result

    for plan in (plain, traced):  # emit both megakernels before timing
        run(plan, steps)
    run(plain, 1)
    numpy_cal, python_cal = NumpyCal(), PythonCal()
    ones, ks, traced_ks, refs, cal_numpy, cal_python = [], [], [], [], [], []
    traced_results: List = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ones) < 11:
        ones.append(run(plain, 1)[0])
        seconds_k, last = run(plain, steps)
        check.check(fields, exact_counters(last))
        ks.append(seconds_k)
        seconds_t, traced_result = run(traced, steps)
        check.check(fields, exact_counters(traced_result))
        traced_ks.append(seconds_t)
        if len(traced_results) < MAX_TRACED:
            traced_results.append(traced_result)
        refs.append(timed(lambda: ref_step(ref_order)))
        cal_numpy.append(timed(numpy_cal))
        cal_python.append(timed(python_cal))

    slopes = [(k - one) / (steps - 1) for one, k in zip(ones, ks)]
    cells_per_step = sum(s.cells_updated for s in last.statistics) / steps
    ranks = len(last.statistics)
    layers = {
        "run.fixed_us": statistics.median(
            one - slope for one, slope in zip(ones, slopes)) * 1e6,
        "compute.ns_per_cell": statistics.median(slopes) / cells_per_step * 1e9,
        "compute.ref_ratio": statistics.median(
            slope / ref for slope, ref in zip(slopes, refs)),
        "obs.trace_overhead": statistics.median(traced_ks) / statistics.median(ks),
        "cal.numpy_us": statistics.median(cal_numpy) * 1e6,
        "cal.python_ms": statistics.median(cal_python) * 1e3,
        "steady_run_ms": statistics.median(ks) * 1e3,
    }
    layers.update(counter_layers(last, steps, len(fields)))
    layers.update(timeline_layers(traced_results, steps, ranks))
    layers["vectorize.fallback_nests"] = len(
        program.compiled_kernel(plain.function).fallbacks)
    characteristics = program.characteristics
    layers["compute.bytes_per_cell"] = (
        characteristics.bytes_per_step(fields[0].itemsize)
        / characteristics.cells_per_step)
    return layers


def counter_layers(result, steps: int, fields: int) -> Dict[str, float]:
    """Exact counters of one steady run."""
    stats = result.statistics
    comm = result.comm_statistics
    swaps = sum(s.halo_swaps for s in stats)
    messages = comm.messages_sent if comm is not None else 0
    sent = comm.bytes_sent if comm is not None else 0
    leased = len(stats) * fields
    return {
        "exact.cells_per_run": sum(s.cells_updated for s in stats),
        "exact.ops_per_run": sum(s.ops_executed for s in stats),
        "exact.msgs_per_run": messages,
        "exact.bytes_per_run": sent,
        "halo.msgs_per_step": messages / steps,
        "halo.bytes_per_step": sent / steps,
        "halo.overlap_share": (sum(s.halo_swaps_overlapped for s in stats) / swaps
                               if swaps else 0.0),
        "shm.blocks_reused_share": (comm.shared_blocks_reused / leased
                                    if comm is not None else 0.0),
    }


def timeline_layers(results: Sequence, steps: int, ranks: int) -> Dict[str, float]:
    """Self times of the rank and plan tracks of the traced runs."""
    rank_self: Dict[str, float] = {}
    for record in _records(results):
        if record.track.startswith("rank"):
            for name, seconds in self_times(record.events).items():
                rank_self[name] = rank_self.get(name, 0.0) + seconds
    # The plan track accumulates over the plan's life: the last run's
    # record holds every scatter and gather span.
    plan_events = [event for record in results[-1].trace.records
                   if record.track == "plan" for event in record.events]

    def mean_us(name: str) -> float:
        durations = [event[2] for event in plan_events if event[0] == name]
        return statistics.mean(durations) * 1e6 if durations else 0.0

    messages = sum(result.comm_statistics.messages_sent for result in results
                   if result.comm_statistics is not None)
    rank_steps = len(results) * steps * ranks

    def per_message_us(name: str) -> float:
        return rank_self.get(name, 0.0) / messages * 1e6 if messages else 0.0

    return {
        "run.scatter_us": mean_us("run.scatter"),
        "run.gather_us": mean_us("run.gather"),
        "halo.post_us_per_msg": per_message_us("halo.post"),
        "halo.wait_us_per_msg": per_message_us("halo.wait"),
        "nest.interior_us": rank_self.get("nest.interior", 0.0) / rank_steps * 1e6,
        "nest.boundary_us": rank_self.get("nest.boundary", 0.0) / rank_steps * 1e6,
    }


def engaged_share(programs_weights: Sequence[tuple]) -> float:
    """Weighted share of rank runs that took the megakernel.

    Measured on a thread-world replica, because process workers build their
    megakernels out of the parent's sight.  ``programs_weights`` holds
    ``(program, fields, steps, weight)`` tuples.
    """
    shares, weights = [], []
    with Session(off_config(runtime="threads")) as session:
        for program, fields, steps, weight in programs_weights:
            plan = session.plan(program)
            before = (session.metrics.get("megakernel.engaged"),
                      session.metrics.get("runs"))
            result = None
            for _ in range(2):
                result = plan.run([array.copy() for array in fields], [steps])
            engaged = session.metrics.get("megakernel.engaged") - before[0]
            runs = session.metrics.get("runs") - before[1]
            shares.append(engaged / (runs * len(result.statistics)))
            weights.append(weight)
    return sum(s * w for s, w in zip(shares, weights)) / sum(weights)
