"""One benchmark run: the end-to-end pass (tracing off) or the traced pass.

Each function returns ``(metrics, raw, samples, tally, calibration)``:
``metrics`` maps a metric name to ``(value, unit)``; ``raw`` holds the
uncalibrated value of every timing metric; ``samples`` the sample counts;
``calibration`` every raw calibration sample taken (for the provenance).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core import Session

import layers
from measure import (
    NumpyCal,
    Paired,
    PythonCal,
    StagedPaired,
    calibrated,
    peak_rss_mib,
    percentile,
)
from workloads import (
    BLOCK_JOBS,
    HEAT64,
    JOB_CLASSES,
    PlanWorkload,
    ServeWorkload,
    assert_percentiles_off_boundaries,
    heat2d_1rank,
    off_config,
    wave2d_2proc,
)

#: Set-ups timed (after one discarded) in the traced pass.
LAYER_SETUPS = 8
#: Reported percentiles of unit latency.
PERCENTILES = (0.5, 0.9)

#: Unit of every per-layer metric; the traced pass prints exactly these.
PER_LAYER_UNITS = {
    "frontend.build_ms": "ms",
    "compile.total_ms": "ms",
    **{f"compile.pass.{name}_ms": "ms" for name in layers.PASSES},
    **{f"compile.stage.{name}_ms": "ms" for name in layers.STAGES},
    "session.start_ms": "ms",
    "plan.build_ms": "ms",
    "plan.first_run_ms": "ms",
    "run.fixed_us": "us",
    "run.scatter_us": "us",
    "run.gather_us": "us",
    "compute.ns_per_cell": "ns",
    "compute.ref_ratio": "ratio",
    "compute.bytes_per_cell": "B",
    "megakernel.engaged_share": "share",
    "vectorize.fallback_nests": "count",
    "halo.msgs_per_step": "count",
    "halo.bytes_per_step": "B",
    "halo.post_us_per_msg": "us",
    "halo.wait_us_per_msg": "us",
    "nest.interior_us": "us",
    "nest.boundary_us": "us",
    "halo.overlap_share": "share",
    "shm.blocks_reused_share": "share",
    "serve.queue_wait_us": "us",
    "serve.overhead_us": "us",
    "serve.batch_occupancy": "jobs",
    "serve.plan_cache_hit_share": "share",
    "obs.trace_overhead": "ratio",
    "cal.numpy_us": "us",
    "cal.python_ms": "ms",
    "exact.cells_per_run": "count",
    "exact.ops_per_run": "count",
    "exact.msgs_per_run": "count",
    "exact.bytes_per_run": "B",
}

PLAN_WORKLOADS = {"heat2d-1rank": heat2d_1rank, "wave2d-2proc": wave2d_2proc}


def run(workload: str, seed: int, seconds: float, trace: bool):
    if workload in PLAN_WORKLOADS:
        bench = PLAN_WORKLOADS[workload](seed)
        return (plan_layers if trace else plan_end_to_end)(bench, seconds)
    bench = ServeWorkload(seed)
    return (serve_layers if trace else serve_end_to_end)(bench, seconds)


def _timings(setups: StagedPaired, steady: Paired, unit_ratios: List[float],
             unit_seconds: List[float], units_per_sample: int,
             cells_per_unit: float, kernel: str, rss: float):
    """The end-to-end metrics shared by every workload.

    Latency percentiles come from per-unit ratios; throughput from the
    median sample, ``units_per_sample`` units each (one run, or one block
    of served jobs), so a stray slow sample cannot drag it.
    """
    sample_s = calibrated(steady.ratios(), kernel)
    jobs_per_s = units_per_sample / sample_s
    raw_jobs_per_s = units_per_sample / statistics.median(steady.work)
    metrics = {
        "setup_s": (statistics.median(setups.values), "s"),
        "run_ms_p50": (calibrated(unit_ratios, kernel) * 1e3, "ms"),
        "run_ms_p90": (calibrated(unit_ratios, kernel, 0.9) * 1e3, "ms"),
        "mcells_per_s": (cells_per_unit * jobs_per_s / 1e6, "Mcell/s"),
        "jobs_per_s": (jobs_per_s, "jobs/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    raw = {
        "setup_s": statistics.median(setups.work),
        "run_ms_p50": statistics.median(unit_seconds) * 1e3,
        "run_ms_p90": percentile(unit_seconds, 0.9) * 1e3,
        "mcells_per_s": cells_per_unit * raw_jobs_per_s / 1e6,
        "jobs_per_s": raw_jobs_per_s,
    }
    return metrics, raw


# -- heat2d-1rank / wave2d-2proc -------------------------------------------------------

def _plan_setups(bench: PlanWorkload, count: int,
                 paired: StagedPaired = None) -> List[Dict[str, float]]:
    """One discarded then ``count`` validated set-ups, each session closed."""
    stages = []

    def one() -> Dict[str, float]:
        setup = bench.setup()
        bench.validate(setup)
        setup.session.close()
        stages.append(setup.stages)
        return setup.stages

    one()
    stages.clear()
    for _ in range(count):
        if paired is None:
            one()
        else:
            paired.sample(one)
    return stages


def plan_end_to_end(bench: PlanWorkload, seconds: float):
    setups = StagedPaired()
    _plan_setups(bench, bench.setups, setups)
    held = bench.setup()
    bench.validate(held)
    steady = Paired(NumpyCal())
    work = bench.unit(held.plan)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        steady.sample(work)
    rss = peak_rss_mib()
    held.session.close()
    metrics, raw = _timings(setups, steady, steady.ratios(), steady.work, 1,
                            bench.cells_per_unit, "cal.numpy", rss)
    samples = {"setups": len(setups.work), "runs": len(steady.work),
               "steps_per_run": bench.steps}
    calibration = {"cal.python": setups.cal["cal.python"],
                   "cal.numpy": setups.cal["cal.numpy"] + steady.cal}
    return metrics, raw, samples, bench.tally, calibration


def plan_layers(bench: PlanWorkload, seconds: float):
    stages = _plan_setups(bench, LAYER_SETUPS)
    held = bench.setup()
    bench.validate(held)
    found = layers.setup_layers(stages)
    found.update(layers.compile_layers([held.program]))
    found.update(layers.attribute(
        held.session, held.program, bench.init, bench.steps,
        lambda order: bench.stencil.step(order, np.float32),
        [field.copy() for field in bench.init], seconds, bench.check))
    steady_ms = found.pop("steady_run_ms")
    found["plan.first_run_ms"] = statistics.median(
        stage["first_run"] for stage in stages) * 1e3 - steady_ms
    found["megakernel.engaged_share"] = layers.engaged_share(
        [(held.program, bench.init, bench.steps, 1)])
    held.session.close()
    found.update({"serve.queue_wait_us": 0.0, "serve.overhead_us": 0.0,
                  "serve.batch_occupancy": 0.0, "serve.plan_cache_hit_share": 0.0})
    return _per_layer(found), {}, {"setups": len(stages)}, bench.tally, {}


def _per_layer(found: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    missing = set(PER_LAYER_UNITS) - set(found)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: (float(found[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


# -- serve-mixed -----------------------------------------------------------------------

def _serve_setups(bench: ServeWorkload, count: int, paired: StagedPaired = None,
                  second_round: bool = False) -> List[Dict[str, float]]:
    """One discarded then ``count`` set-ups; returns the stages of each."""
    stages = []

    def one() -> Dict[str, float]:
        found, server, programs, results = bench.setup()
        timed_stages = dict(found)
        for job, fields, result in results:
            bench.check(job, fields, result)
        if second_round:
            found = _second_round(bench, server, programs, found)
        server.close()
        stages.append(found)
        return timed_stages

    found, server, programs, results = bench.setup()
    bench.reference(programs)
    for job, fields, result in results:
        bench.check(job, fields, result)
    server.close()
    for _ in range(count):
        if paired is None:
            one()
        else:
            paired.sample(one)
    return stages


def _second_round(bench, server, programs, found):
    """Attribute the first round: its time minus a warm round's, and plans."""
    start = time.perf_counter()
    outcomes = [(job, *bench.submit(server, programs, job)) for job in JOB_CLASSES]
    for job, fields, handle in outcomes:
        bench.check(job, fields, handle.result(timeout=60.0))
    warm_round = time.perf_counter() - start
    start = time.perf_counter()
    for job in JOB_CLASSES:
        server.session.plan(programs[job.name])
    found = dict(found, plan=time.perf_counter() - start)
    found["first_run_extra"] = found["first_run"] - warm_round
    return found


def _serve_blocks(bench: ServeWorkload, server, programs, seconds: float,
                  paired: Paired) -> List[List[float]]:
    """Closed-loop blocks for ``seconds``; per-block job latencies."""
    blocks = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        latencies: List[float] = []
        jobs = bench.sequence(BLOCK_JOBS)
        if paired.sample(bench.block(server, programs, jobs, latencies)) is not None:
            blocks.append(latencies)
    return blocks


def serve_end_to_end(bench: ServeWorkload, seconds: float):
    assert_percentiles_off_boundaries([job.weight for job in JOB_CLASSES],
                                      PERCENTILES)
    setups = StagedPaired()
    _serve_setups(bench, bench.setups, setups)
    _, server, programs, results = bench.setup()
    for job, fields, result in results:
        bench.check(job, fields, result)
    steady = Paired(PythonCal())
    blocks = _serve_blocks(bench, server, programs, seconds, steady)
    rss = peak_rss_mib()
    server.close()
    # Every job of a block is divided by that block's calibration.
    job_ratios, job_latencies = [], []
    for latencies, left, right in zip(blocks, steady.cal, steady.cal[1:]):
        scale = 0.5 * (left + right)
        job_ratios.extend(latency / scale for latency in latencies)
        job_latencies.extend(latencies)
    metrics, raw = _timings(setups, steady, job_ratios, job_latencies,
                            BLOCK_JOBS, bench.mix_cells, "cal.python", rss)
    jobs = len(job_latencies)
    samples = {"setups": len(setups.work), "jobs": jobs, "blocks": len(blocks)}
    calibration = {"cal.python": setups.cal["cal.python"] + steady.cal,
                   "cal.numpy": setups.cal["cal.numpy"]}
    return metrics, raw, samples, bench.tally, calibration


def serve_layers(bench: ServeWorkload, seconds: float):
    stages = _serve_setups(bench, LAYER_SETUPS, second_round=True)
    found = layers.setup_layers(stages)
    found["plan.first_run_ms"] = statistics.median(
        stage["first_run_extra"] for stage in stages) * 1e3

    # The served loop, then the same mix on a standalone session.
    _, server, programs, results = bench.setup()
    for job, fields, result in results:
        bench.check(job, fields, result)
    before = server.metrics.snapshot()
    bench.blocks_reused = bench.blocks_leased = 0
    blocks = _serve_blocks(bench, server, programs, seconds / 3, Paired(PythonCal()))
    after = server.metrics.snapshot()
    server.close()
    served = [latency for block in blocks for latency in block]

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    hits, misses = delta("serve.plan_cache_hit"), delta("serve.plan_cache_miss")
    found.update({
        "serve.queue_wait_us": delta("serve.queue_wait_us") / delta("serve.batched_jobs"),
        "serve.batch_occupancy": delta("serve.batched_jobs") / delta("serve.batches"),
        "serve.plan_cache_hit_share": hits / (hits + misses),
    })
    shm_share = bench.blocks_reused / bench.blocks_leased

    with Session(off_config(runtime="processes")) as session:
        standalone = _standalone_mix(bench, session, programs, seconds / 3)
        found["serve.overhead_us"] = (statistics.median(served)
                                      - statistics.median(standalone)) * 1e6
        heat = bench.inputs["heat"]
        found.update(layers.attribute(
            session, programs["heat"], heat, HEAT64.steps,
            lambda order: HEAT64.step(order, np.float32),
            [array.copy() for array in heat], seconds / 3, bench.checks["heat"]))
    found.pop("steady_run_ms")
    found["shm.blocks_reused_share"] = shm_share
    found.update(layers.compile_layers(list(programs.values())))
    found["vectorize.fallback_nests"] = sum(
        len(program.compiled_kernel(program.function_names[0]).fallbacks)
        for program in programs.values())
    found["megakernel.engaged_share"] = layers.engaged_share(
        [(programs[job.name], bench.inputs[job.name], job.steps, job.weight)
         for job in JOB_CLASSES])
    # Exact counters per cycle of the mix (one job per unit of weight).
    for key, name in (("exact.cells_per_run", "cells_updated"),
                      ("exact.ops_per_run", "ops_executed"),
                      ("exact.msgs_per_run", "messages_sent"),
                      ("exact.bytes_per_run", "bytes_sent")):
        found[key] = sum(job.weight * bench.checks[job.name].counters[name]
                         for job in JOB_CLASSES)
    return _per_layer(found), {}, {"setups": len(stages), "served": len(served),
                                   "standalone": len(standalone)}, bench.tally, {}


def _standalone_mix(bench: ServeWorkload, session, programs, seconds: float):
    """The served mix run one job at a time on a plain session: per-job s."""
    plans = {job.name: session.plan(programs[job.name]) for job in JOB_CLASSES}
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for job in bench.sequence(BLOCK_JOBS):
            fields = [array.copy() for array in bench.inputs[job.name]]
            start = time.perf_counter()
            result = plans[job.name].run(fields, [job.steps])
            times.append(time.perf_counter() - start)
            bench.check(job, fields, result)
    return times
