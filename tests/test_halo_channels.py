"""Shared-memory halo channels of the process world.

Messages on halo travel tags go through per-pair shared-memory rings (see
:mod:`repro.runtime.channels`); everything else, and any record a ring
cannot take, goes through the queue inboxes.  These tests pin the
transport's contract: FIFO per ``(source, tag)`` across both transports
(including a forced ring overflow), the typed timeout, non-blocking
``test()``, job windows of batched rounds, and recovery from a worker
killed while its channels are in use.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import Session, compile_stencil_program, dmp_target
from repro.interp import MPIRuntimeError, SimulatedMPI
from repro.runtime import (
    ProcessRankCommunicator,
    processes_available,
    run_spmd_processes,
)
from repro.runtime.channels import (
    HALO_TAG_LIMIT,
    MAX_RECORD,
    ChannelEndpoint,
    HaloChannels,
    is_halo_tag,
)
from repro.runtime.worker_pool import PoolBatchJob, WorkerError
from repro.workloads import acoustic_wave, heat_diffusion

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture
def pair():
    """Two communicators of one world, both ends driven from this process."""
    ctx = multiprocessing.get_context("fork")
    channels = HaloChannels.create(ctx, 2)
    if channels is None:
        pytest.skip("halo channels need fork and an x86 machine")
    inboxes = [ctx.Queue(), ctx.Queue()]
    comms = [
        ProcessRankCommunicator(rank, 2, inboxes, run_id=7, timeout=30.0,
                                channels=ChannelEndpoint(channels, 0, rank, 2))
        for rank in range(2)
    ]
    yield comms
    for inbox in inboxes:
        inbox.cancel_join_thread()
        inbox.close()


def _payload(index: int, elements: int) -> np.ndarray:
    return np.full(elements, float(index))


def test_routing_rule():
    assert [is_halo_tag(tag) for tag in (-1, 0, HALO_TAG_LIMIT - 1,
                                         HALO_TAG_LIMIT, 1_000_001)] == [
        False, True, True, False, False]


def test_fifo_per_source_and_tag_across_a_ring_overflow(pair):
    """Interleaved tags, a ring that fills, spills, drains and refills, and
    one oversize payload: each tag still arrives in send order."""
    sender, receiver = pair
    elements = 1024                      # 8 KiB records: ~15 fill a ring
    tags = [0, 3, 1]
    sent = {tag: [] for tag in tags}

    def send(count, start):
        for index in range(start, start + count):
            tag = tags[index % len(tags)]
            size = MAX_RECORD // 8 + 1 if index == start + 2 else elements
            sender.send(_payload(index, size), 1, tag)
            sent[tag].append(index)

    send(30, 0)                          # overflows: the tail spills
    spilled = sender.statistics.messages_sent - sender.statistics.channel_messages
    assert spilled > 0 and sender.statistics.channel_messages > 0
    got = {tag: [] for tag in tags}
    for _ in range(5):                   # free ring space out of tag order
        buffer = np.empty(elements)
        receiver.recv(buffer, 0, 3)
        got[3].append(int(buffer[0]))
    send(15, 30)                         # lands in the ring behind the spill
    for tag in (1, 0, 3):
        while len(got[tag]) < len(sent[tag]):
            index = sent[tag][len(got[tag])]
            size = MAX_RECORD // 8 + 1 if index in (2, 32) else elements
            buffer = np.empty(size)
            receiver.recv(buffer, 0, tag)
            got[tag].append(int(buffer[0]))
    assert got == sent
    assert sender.statistics.messages_sent == 45
    assert sender.statistics.bytes_sent == 8 * (43 * elements
                                                 + 2 * (MAX_RECORD // 8 + 1))


def test_ring_wraps_past_a_tail_shorter_than_a_header(pair):
    """Records that leave 8 bytes at the ring's end: the next record starts
    over at the ring's start and every payload arrives intact."""
    sender, receiver = pair
    # 40-byte header (record + one extent) + payload: 3 x 32768 + 32760
    # bytes leave an 8-byte tail.
    sizes = [4091, 4091, 4091, 4090, 100, 4091, 7]
    for index, elements in enumerate(sizes):
        sender.send(_payload(index, elements), 1, 0)
        if index == 3:
            for earlier, count in enumerate(sizes[:4]):
                buffer = np.empty(count)
                receiver.recv(buffer, 0, 0)
                assert np.all(buffer == earlier)
    for index, elements in enumerate(sizes[4:], start=4):
        buffer = np.empty(elements)
        receiver.recv(buffer, 0, 0)
        assert np.all(buffer == index)
    assert sender.statistics.channel_messages == len(sizes)


def test_non_halo_tags_use_the_queue(pair):
    sender, receiver = pair
    sender.send(np.arange(4.0), 1, HALO_TAG_LIMIT + 1)
    buffer = np.empty(4)
    receiver.recv(buffer, 0, HALO_TAG_LIMIT + 1)
    assert np.array_equal(buffer, np.arange(4.0))
    assert sender.statistics.channel_messages == 0
    assert sender.statistics.messages_sent == 1


def test_timeout_is_typed(pair):
    _, receiver = pair
    receiver.timeout = 0.3
    with pytest.raises(MPIRuntimeError,
                       match="rank 1 timed out waiting for a message from "
                             "rank 0 with tag 2"):
        receiver.recv(np.empty(3), 0, 2)


def test_request_test_polls_the_ring(pair):
    sender, receiver = pair
    buffer = np.empty(3)
    request = receiver.irecv(buffer, 0, 1)
    assert not request.test()
    sender.isend(np.arange(3.0), 1, 1)
    assert request.test()
    assert np.array_equal(buffer, np.arange(3.0))
    assert sender.statistics.channel_messages == 1


def test_messages_of_another_run_are_dropped(pair):
    sender, receiver = pair
    sender._run_id = 6                   # a stranded message of an earlier run
    sender.send(np.zeros(2), 1, 0)
    sender._send_seq[1] = 0
    sender._run_id = 7
    sender.send(np.ones(2), 1, 0)
    buffer = np.empty(2)
    receiver.recv(buffer, 0, 0)
    assert np.array_equal(buffer, np.ones(2))


def test_self_send_on_a_halo_tag_is_received(pair):
    sender, _ = pair
    sender.send(np.arange(3.0), 0)       # default tag 0, a halo tag
    buffer = np.empty(3)
    sender.recv(buffer, 0)
    assert np.array_equal(buffer, np.arange(3.0))
    assert sender.statistics.messages_sent == 1
    assert sender.statistics.channel_messages == 0


def test_doorbell_tokens_stay_bounded_across_runs():
    """Records received without sleeping leave their doorbell tokens behind;
    a new run's endpoint (and any wait) clears them, so they never pile up
    across the runs of a long-lived pool."""
    ctx = multiprocessing.get_context("fork")
    channels = HaloChannels.create(ctx, 2)
    if channels is None:
        pytest.skip("halo channels need fork and an x86 machine")
    inboxes = [ctx.Queue(), ctx.Queue()]
    per_run = 50
    try:
        for run_id in range(4):
            sender, receiver = (
                ProcessRankCommunicator(rank, 2, inboxes, run_id=run_id,
                                        channels=ChannelEndpoint(channels, 0, rank, 2))
                for rank in range(2)
            )
            for index in range(per_run):
                sender.send(_payload(index, 4), 1, 0)
            for index in range(per_run):
                buffer = np.empty(4)
                receiver.recv(buffer, 0, 0)   # found at once: no sleep
                assert buffer[0] == index
            assert channels.doorbells[1].get_value() <= per_run
        receiver.timeout = 0.2
        with pytest.raises(MPIRuntimeError):
            receiver.recv(np.empty(4), 0, 0)
        assert channels.doorbells[1].get_value() == 0
    finally:
        for inbox in inboxes:
            inbox.cancel_join_thread()
            inbox.close()


# ---------------------------------------------------------------------------
# pooled runs
# ---------------------------------------------------------------------------

def _compile(workload_fn, space_order):
    workload = workload_fn((16, 16), space_order, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, dmp_target((2, 1)))


def _fields(count, halo, seed):
    rng = np.random.default_rng(seed)
    return [rng.random((16 + 2 * halo,) * 2) for _ in range(count)]


@needs_processes
def test_batched_round_keeps_each_job_in_its_window():
    """Two 2-rank jobs in one pooled round: each job's channel traffic stays
    within its own worker window and matches its standalone run."""
    wave, heat = _compile(acoustic_wave, 4), _compile(heat_diffusion, 2)
    cases = [(wave, _fields(3, 2, 1)), (heat, _fields(2, 1, 2))]
    with Session(runtime="processes") as session:
        standalone = []
        for program, initial in cases:
            fields = [array.copy() for array in initial]
            standalone.append((fields, session.plan(program).run(fields, [3])))
        prepared, batched_fields = [], []
        for program, initial in cases:
            fields = [array.copy() for array in initial]
            batched_fields.append(fields)
            prepared.append(session.plan(program).prepare(fields, [3]))
        jobs = [
            PoolBatchJob(program=run.plan.program, function_name=run.plan.function,
                         backend=run.plan.config.backend,
                         field_specs=run.buffers.specs, scalars=run.scalars,
                         overlap=run.plan.overlap)
            for run in prepared
        ]
        outcomes = session._pool_manager.run_program_batch(jobs, 60.0)
        for run, outcome in zip(prepared, outcomes):
            assert not isinstance(outcome, WorkerError), outcome
            run.reports = outcome
        for run, fields, (alone_fields, alone) in zip(
                prepared, batched_fields, standalone):
            result = run.finish()
            for mine, theirs in zip(fields, alone_fields):
                assert np.array_equal(mine, theirs)
            assert result.statistics == alone.statistics
            assert result.comm_statistics == alone.comm_statistics
            comm = result.comm_statistics
            assert comm.channel_messages == comm.messages_sent > 0
            run.release()


def _halo_then_die(comm):
    """Module-level (workers unpickle it): exchange on a halo tag, then rank
    1 dies while rank 0 waits on its channel."""
    import os
    import signal

    peer = 1 - comm.rank
    comm.send(np.full(4, float(comm.rank)), peer, 0)
    comm.recv(np.empty(4), peer, 0)
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    comm.recv(np.empty(4), peer, 1)
    return comm.rank


def _halo_ring(comm):
    """Module-level: one halo-tag exchange per neighbour pair."""
    peer = 1 - comm.rank
    comm.send(np.arange(6.0) + comm.rank, peer, 1)
    buffer = np.empty(6)
    comm.recv(buffer, peer, 1)
    return buffer, comm.statistics.channel_messages


def _self_ring(comm):
    """Module-level: a ring on the default tag (a self-send at size 1)."""
    comm.send(np.arange(3.0) + comm.rank, (comm.rank + 1) % comm.size)
    buffer = np.empty(3)
    comm.recv(buffer, (comm.rank - 1) % comm.size)
    return buffer


@needs_processes
@pytest.mark.parametrize("size", [1, 2])
def test_ring_on_the_default_tag_matches_threads(size):
    """Process ranks deliver a default-tag ring, self-send included, as the
    thread world does."""
    threads = SimulatedMPI(size, timeout=10.0).run_spmd(_self_ring)
    values, stats = run_spmd_processes(_self_ring, size, timeout=10.0)
    for mine, theirs in zip(values, threads):
        assert np.array_equal(mine, theirs)
    assert stats.messages_sent == size


@needs_processes
def test_worker_killed_with_channels_engaged_recovers():
    """A rank SIGKILLed mid-run while its peer waits on a channel fails the
    run; the pool (slab and doorbells included) is replaced and the next
    runs are correct."""
    program = _compile(acoustic_wave, 4)
    initial = _fields(3, 2, 5)
    expected = [array.copy() for array in initial]
    with Session(runtime="threads") as session:
        session.plan(program).run(expected, [3])
    with Session(runtime="processes") as session:
        manager = session._pool_manager
        with pytest.raises(WorkerError, match="died"):
            manager.run_spmd(_halo_then_die, 2, (), 30.0)
        assert manager.pools_created == 1
        values, _ = manager.run_spmd(_halo_ring, 2, (), 30.0)
        assert manager.pools_created == 2
        for rank, (buffer, channel_messages) in enumerate(values):
            assert np.array_equal(buffer, np.arange(6.0) + (1 - rank))
            assert channel_messages == 1
        fields = [array.copy() for array in initial]
        result = session.plan(program).run(fields, [3])
    for mine, theirs in zip(fields, expected):
        assert np.array_equal(mine, theirs)
    assert result.comm_statistics.channel_messages == 6
