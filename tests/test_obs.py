"""Tests for repro.obs: span tracing, the metrics registry, and exporters.

Covers the observability PR's satellite checklist: tracer/record mechanics
(ring bound, pickling, clock references), registry-vs-legacy merge parity,
per-pass compile spans and ``PassManager.timings``, span-structure
determinism across the {threads, processes} x {1, 2 threads_per_rank}
matrix, traced-off bit-identity (and the untraced megakernel emitting zero
bookkeeping), Chrome trace-event JSON validity for a 2-rank x 2-thread run,
the structured :class:`~repro.runtime.WorkerFailure` error payload, and the
``python -m repro.obs.report`` CLI.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core import (
    EXECUTION_TRACE,
    ExecutionConfig,
    ExecutionError,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.interp.interpreter import ExecStatistics
from repro.interp.mpi_runtime import CommStatistics
from repro.obs import MetricsRegistry, Tracer, TraceTimeline, compile_tracing
from repro.obs import report as obs_report
from repro.runtime import (
    WorkerError,
    WorkerFailure,
    processes_available,
    shutdown_worker_pool,
)
from repro.workloads import heat_diffusion

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


def _compile_heat(rank_grid=None, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    target = cpu_target() if rank_grid is None else dmp_target(rank_grid)
    return compile_stencil_program(module, target)


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1,
       shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return [u0, u0.copy()]


def _rank_records(timeline):
    return [r for r in timeline.records if r.track.startswith("rank")]


# ---------------------------------------------------------------------------
# tracer and record mechanics
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_totals_and_events(self):
        tracer = Tracer("timeline", track="t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        record = tracer.record()
        assert record.track == "t"
        assert [name for name, *_ in record.events] == ["inner", "outer"]
        # Depth is recorded at span end: inner ran at depth 1, outer at 0.
        assert [depth for *_, depth in record.events] == [1, 0]
        assert record.totals["outer"][0] == 1 and record.totals["inner"][0] == 1

    def test_summary_mode_keeps_totals_only(self):
        tracer = Tracer("summary")
        with tracer.span("a"):
            pass
        record = tracer.record()
        assert record.events == []
        assert record.totals["a"][0] == 1

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer("timeline", maxlen=4)
        for _ in range(10):
            with tracer.span("s"):
                pass
        record = tracer.record()
        assert len(record.events) == 4          # ring kept the newest spans
        assert record.totals["s"][0] == 10      # totals saw every one

    def test_record_pickles(self):
        tracer = Tracer("timeline", track="rank 3")
        with tracer.span("x"):
            tracer.count("things", 2)
        clone = pickle.loads(pickle.dumps(tracer.record()))
        assert clone.track == "rank 3"
        assert clone.counts == {"things": 2}
        assert clone.events[0][0] == "x"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown trace mode"):
            Tracer("verbose")

    def test_summary_and_timeline_agree_on_exclusive_time(self, monkeypatch):
        """A nested span sequence on a patched clock: summary totals carry
        the same self seconds as the timeline's event stream."""
        import repro.obs.tracer as tracer_module

        def record(mode):
            tracer = Tracer(mode, track="t")
            ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 9.5, 10.0])
            monkeypatch.setattr(tracer_module.time, "perf_counter",
                                lambda: next(ticks))
            outer = tracer.begin("outer")
            inner = tracer.begin("inner")           # 1 -> 3
            tracer.end("inner", inner)
            second = tracer.begin("inner")          # 4 -> 8, holds 5 -> 6
            leaf = tracer.begin("leaf")
            tracer.end("leaf", leaf)
            tracer.end("inner", second)
            tail = tracer.begin("leaf")             # 9 -> 9.5
            tracer.end("leaf", tail)
            tracer.end("outer", outer)              # 0 -> 10
            monkeypatch.undo()
            timeline = TraceTimeline()
            timeline.add(tracer.record())
            return timeline, tracer.record()

        expected = {"outer": 10.0 - 2.0 - 4.0 - 0.5, "inner": 2.0 + 3.0,
                    "leaf": 1.0 + 0.5}
        profiles = {}
        for mode in ("summary", "timeline"):
            timeline, _ = record(mode)
            profiles[mode] = {row["name"]: row["exclusive"]
                              for row in timeline.profile()}
            assert profiles[mode] == pytest.approx(expected), mode
            assert "inner" in timeline.profile_table()
        _, rec = record("timeline")
        # The event stream says the same: duration minus direct children.
        from_events = {}
        for name, start, duration, depth in rec.events:
            children = sum(d for _, s, d, k in rec.events
                           if k == depth + 1 and start <= s < start + duration)
            from_events[name] = from_events.get(name, 0.0) + duration - children
        assert from_events == pytest.approx(expected)
        assert profiles["summary"] == profiles["timeline"]


# ---------------------------------------------------------------------------
# metrics registry vs the legacy dataclass merges
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_ingest_and_materialize_exec(self):
        per_rank = [
            ExecStatistics(ops_executed=3, cells_updated=10, halo_swaps=1),
            ExecStatistics(ops_executed=4, cells_updated=20, mpi_messages=2),
        ]
        registry = MetricsRegistry()
        registry.ingest_all(per_rank, "exec.")
        merged = registry.as_exec_statistics()
        assert merged == ExecStatistics(
            ops_executed=7, cells_updated=30, halo_swaps=1, mpi_messages=2
        )

    def test_comm_merge_matches_hand_sum(self):
        per_rank = [
            CommStatistics(messages_sent=4, bytes_sent=128, collectives=1,
                           barriers=2, bytes_elided=64, shared_blocks_reused=1),
            CommStatistics(messages_sent=6, bytes_sent=256, collectives=3,
                           barriers=2, bytes_elided=32, shared_blocks_reused=2),
        ]
        from repro.runtime.stats import merge_comm_statistics

        merged = merge_comm_statistics(per_rank)
        # Bit-identical to the hand-written field-by-field merge it replaced,
        # including the compare=False transport counters.
        assert merged.messages_sent == 10 and merged.bytes_sent == 384
        assert merged.collectives == 4 and merged.barriers == 4
        assert merged.bytes_elided == 96 and merged.shared_blocks_reused == 3

    def test_session_metrics_mirror_results(self):
        program = _compile_heat((2, 1))
        with Session() as session:
            plan = session.plan(program)
            result = plan.run(_heat_fields(), [2])
            result = plan.run(_heat_fields(), [2])
        assert session.metrics.get("runs") == 2
        expected = 2 * sum(s.cells_updated for s in result.statistics)
        assert session.metrics.get("exec.cells_updated") == expected
        expected_msgs = 2 * result.comm_statistics.messages_sent
        assert session.metrics.get("comm.messages_sent") == expected_msgs


# ---------------------------------------------------------------------------
# compile-phase spans
# ---------------------------------------------------------------------------

class TestCompileTracing:
    def test_pass_manager_exposes_timings(self):
        program = _compile_heat()
        # compile_stencil_program records its stage/pass spans on the program.
        record = program.compile_record
        assert record is not None and record.track == "compile"
        names = {name for name, *_ in record.events}
        assert any(name.startswith("pass.") for name in names)
        assert any(name.startswith("pipeline.") for name in names)

    def test_pass_timings_property(self):
        from repro.ir import LambdaPass, PassManager, default_context

        program = _compile_heat()
        manager = PassManager(
            default_context(),
            [LambdaPass("first", lambda ctx, m: None),
             LambdaPass("second", lambda ctx, m: None)],
        )
        manager.run(program.module)
        timings = manager.timings
        assert [name for name, _ in timings] == ["first", "second"]
        assert all(seconds >= 0.0 for _, seconds in timings)

    def test_nested_scope_shares_one_tracer(self):
        with compile_tracing() as outer:
            with compile_tracing() as inner:
                assert inner is outer


# ---------------------------------------------------------------------------
# traced runs: structure determinism, bit-identity, timeline validity
# ---------------------------------------------------------------------------

def _span_names(record):
    return [name for name, *_ in record.events]


class TestTracedRuns:
    @pytest.mark.parametrize("threads_per_rank", [1, 2])
    def test_span_structure_deterministic_across_worlds(self, threads_per_rank):
        """Per-rank span sequences agree between the thread and process worlds."""
        program = _compile_heat((2, 1))
        sequences = {}
        runtimes = ["threads"]
        if processes_available():
            runtimes.append("processes")
        for runtime in runtimes:
            config = ExecutionConfig(
                runtime=runtime, threads_per_rank=threads_per_rank,
                trace="timeline", codegen="planned",
            )
            with Session(config) as session:
                result = session.plan(program).run(_heat_fields(), [3])
            sequences[runtime] = [
                _span_names(r) for r in _rank_records(result.trace)
            ]
            for names in sequences[runtime]:
                assert names.count("step") == 3
                assert "halo.post" in names and "halo.wait" in names
        if len(sequences) == 2:
            assert sequences["threads"] == sequences["processes"]

    def test_traced_off_is_bit_identical(self):
        program = _compile_heat((2, 1))
        outputs = {}
        for trace in ("off", "timeline"):
            fields = _heat_fields()
            with Session(ExecutionConfig(trace=trace)) as session:
                result = session.plan(program).run(fields, [3])
            outputs[trace] = (fields, result)
        assert outputs["off"][1].trace is None
        assert outputs["timeline"][1].trace is not None
        for off, traced in zip(outputs["off"][0], outputs["timeline"][0]):
            assert np.array_equal(off, traced)
        assert outputs["off"][1].statistics == outputs["timeline"][1].statistics

    def test_untraced_megakernel_emits_no_bookkeeping(self):
        program = _compile_heat()
        with Session(codegen="megakernel") as session:
            plan = session.plan(program)
            plan.run(_heat_fields(), [2])
            sources = [
                kernel.source
                for kernel in session._megakernel_cache.values()
                if hasattr(kernel, "source")
            ]
        assert sources and all("_tracer" not in source for source in sources)

    def test_traced_megakernel_records_spans(self):
        program = _compile_heat()
        with Session(codegen="megakernel", trace="timeline") as session:
            plan = session.plan(program)
            result = plan.run(_heat_fields(), [2])
            sources = [
                kernel.source
                for kernel in session._megakernel_cache.values()
                if hasattr(kernel, "source")
            ]
        assert sources and all("_tracer" in source for source in sources)
        assert session.metrics.get("megakernel.engaged") == 1
        (rank_record,) = _rank_records(result.trace)
        names = _span_names(rank_record)
        assert names.count("step") == 2 and "nest" in names

    def test_chrome_trace_json_is_valid(self, tmp_path):
        """2 ranks x 2 threads: compile passes, steps and halo windows land
        in valid Chrome trace-event JSON with one track per rank."""
        program = _compile_heat((2, 1))
        config = ExecutionConfig(
            runtime="processes" if processes_available() else "threads",
            threads_per_rank=2, trace="timeline",
        )
        path = tmp_path / "trace.json"
        with Session(config) as session:
            result = session.plan(program).run(_heat_fields(), [3])
            assert session.dump_trace(path) == path
        assert isinstance(result.trace, TraceTimeline)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        tracks = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert "rank 0" in tracks and "rank 1" in tracks and "compile" in tracks
        names = set()
        for event in events:
            assert event["ph"] in ("M", "X")
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
                assert isinstance(event["dur"], (int, float))
                assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
                names.add(event["name"])
        assert any(n.startswith("pass.") for n in names)
        assert {"step", "halo.post", "halo.wait"} <= names

    def test_summary_mode_profiles_without_events(self):
        program = _compile_heat((2, 1))
        with Session(ExecutionConfig(trace="summary")) as session:
            result = session.plan(program).run(_heat_fields(), [2])
        rows = {row["name"]: row for row in result.trace.profile()}
        assert rows["step"]["count"] == 4      # 2 ranks x 2 steps
        table = result.trace.profile_table()
        assert "step" in table

    def test_dump_trace_requires_a_traced_run(self):
        with Session() as session:
            with pytest.raises(ExecutionError, match="no traced run"):
                session.dump_trace("nowhere.json")


# ---------------------------------------------------------------------------
# configuration surface
# ---------------------------------------------------------------------------

class TestTraceConfig:
    def test_modes(self):
        assert EXECUTION_TRACE == ("off", "summary", "timeline")
        for mode in EXECUTION_TRACE:
            assert ExecutionConfig(trace=mode).trace == mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ExecutionError, match="unknown trace mode"):
            ExecutionConfig(trace="verbose")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "summary")
        assert ExecutionConfig().trace == "summary"
        monkeypatch.setenv("REPRO_TRACE", "bogus")
        with pytest.raises(ExecutionError, match="unknown trace mode"):
            ExecutionConfig()
        monkeypatch.delenv("REPRO_TRACE")
        assert ExecutionConfig().trace == "off"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "timeline")
        assert ExecutionConfig(trace="off").trace == "off"


# ---------------------------------------------------------------------------
# structured worker failures
# ---------------------------------------------------------------------------

@needs_processes
def test_worker_failure_is_structured():
    program = _compile_heat((2, 1))
    with Session(ExecutionConfig(runtime="processes")) as session:
        plan = session.plan(program)
        with pytest.raises(WorkerError) as excinfo:
            # Wrong scalar arity: every rank's interpreter raises remotely.
            plan.run(_heat_fields(), [2, 99])
        failure = excinfo.value.failure
        assert isinstance(failure, WorkerFailure)
        assert failure.phase == "run"
        assert failure.rank in (0, 1)
        assert failure.exception  # exception type name, e.g. InterpreterError
        assert "Traceback" in failure.traceback_text
        assert str(failure.rank) in failure.describe()
        assert session.metrics.get("worker.errors") == 1
        # The pool recovers: the next run on the same plan works.
        result = plan.run(_heat_fields(), [2])
        assert result.runtime == "processes"


# ---------------------------------------------------------------------------
# report CLI
# ---------------------------------------------------------------------------

class TestReportCLI:
    def _dump(self, tmp_path):
        program = _compile_heat((2, 1))
        path = tmp_path / "trace.json"
        with Session(ExecutionConfig(trace="timeline")) as session:
            session.plan(program).run(_heat_fields(), [2])
            session.dump_trace(path)
        return path

    def test_summarize_and_render(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert obs_report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "rank 0" in out and "step" in out

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert obs_report.main([str(path)]) == 1
        assert "no spans" in capsys.readouterr().err
