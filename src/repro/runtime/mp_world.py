"""OS-process SPMD world: shared-memory fields and queue-backed messaging.

This is the process-runtime counterpart of
:class:`~repro.interp.mpi_runtime.SimulatedMPI`.  Each rank runs in its own
OS process (see :mod:`repro.runtime.worker_pool`), so NumPy kernels execute
truly in parallel instead of time-slicing one GIL:

* **fields** live in ``multiprocessing.shared_memory`` blocks: the parent
  scatters each rank's local buffer (core slab + halo) into a block, workers
  attach and compute in place, and the parent gathers straight out of the
  block — field contents never travel through a pickle;
* **messages** travel through one ``multiprocessing.Queue`` inbox per rank,
  except halo strips, which take the pool's shared-memory channels
  (:mod:`repro.runtime.channels`).  :class:`ProcessRankCommunicator` keeps
  the exact mailbox discipline of the thread world — matching by
  ``(source, tag)``, buffered sends, blocking receives with a timeout — and
  implements the same :class:`~repro.interp.mpi_runtime.CommunicatorBase`
  interface, so the collective algorithms (and their tag space) are
  literally shared code;
* **statistics** are counted locally per rank (no cross-process locks) and
  merged deterministically by the parent (:mod:`repro.runtime.stats`).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..interp.mpi_runtime import (
    CommStatistics,
    CommunicatorBase,
    MPIRuntimeError,
    _copy_into,
)
from .channels import ChannelEndpoint, is_halo_tag


def default_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the runtime uses (fork on Linux only).

    Fork keeps worker startup cheap and inherits the imported compiler stack.
    It is restricted to Linux: macOS frameworks abort in forked children
    (which is why CPython's own default there is spawn).  Everything is
    passed explicitly so spawn platforms work identically, just with a
    slower first run.
    """
    methods = multiprocessing.get_all_start_methods()
    if sys.platform == "linux" and "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


_AVAILABLE: Optional[bool] = None


def processes_available() -> bool:
    """True when shared memory and process creation work on this platform.

    ``run_distributed(runtime="processes")`` falls back to the thread world
    when this is False, so callers never have to guard themselves.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            block = shared_memory.SharedMemory(create=True, size=16)
            block.close()
            block.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


# ---------------------------------------------------------------------------
# shared-memory fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedFieldSpec:
    """Everything a worker needs to attach one shared field buffer."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedField:
    """A NumPy array backed by a ``multiprocessing.shared_memory`` block."""

    def __init__(self, block, array: np.ndarray, owner: bool):
        self._block = block
        self.array = array
        self._owner = owner

    @classmethod
    def create(cls, source: np.ndarray) -> "SharedField":
        """Allocate a block in the parent and copy ``source`` into it."""
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(create=True, size=max(source.nbytes, 1))
        array = np.ndarray(source.shape, dtype=source.dtype, buffer=block.buf)
        array[...] = source
        return cls(block, array, owner=True)

    @classmethod
    def attach(cls, spec: SharedFieldSpec) -> "SharedField":
        """Attach to a parent-owned block from a worker process."""
        from multiprocessing import resource_tracker, shared_memory

        # The attaching worker must not (re-)register the block with the
        # resource tracker: the parent owns the lifetime and unlinks it, and
        # a second registration either double-unregisters (fork, shared
        # tracker) or produces bogus "leaked shared_memory" warnings at
        # worker exit (spawn).  Python < 3.13 has no track=False, so the
        # registration hook is silenced for the duration of the attach (the
        # worker command loop is single-threaded).
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            block = shared_memory.SharedMemory(name=spec.name)
        finally:
            resource_tracker.register = original_register
        array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf)
        return cls(block, array, owner=False)

    @property
    def spec(self) -> SharedFieldSpec:
        return SharedFieldSpec(
            name=self._block.name,
            shape=tuple(self.array.shape),
            dtype=self.array.dtype.str,
        )

    def release(self) -> None:
        """Close this handle (and unlink the block when this is the owner)."""
        self.array = None
        self._block.close()
        if self._owner:
            try:
                self._block.unlink()
            except FileNotFoundError:  # pragma: no cover - double release
                pass


# ---------------------------------------------------------------------------
# point-to-point transport
# ---------------------------------------------------------------------------

class MPRequest:
    """Request handle of the process world (same surface as ``SimRequest``)."""

    __slots__ = ("kind", "comm", "source", "tag", "buffer", "completed")

    def __init__(self, kind: str, comm: "ProcessRankCommunicator", source: int,
                 tag: int, buffer: Optional[np.ndarray]):
        self.kind = kind
        self.comm = comm
        self.source = source
        self.tag = tag
        self.buffer = buffer
        self.completed = kind == "send"  # buffered sends complete immediately

    def test(self) -> bool:
        if self.completed:
            return True
        message = self.comm._match(self.source, self.tag, block=False)
        if message is None:
            return False
        _copy_into(self.buffer, message)
        self.completed = True
        return True

    def wait(self, timeout: Optional[float] = None) -> None:
        if self.completed:
            return
        message = self.comm._match(self.source, self.tag, block=True, timeout=timeout)
        _copy_into(self.buffer, message)
        self.completed = True


class ProcessRankCommunicator(CommunicatorBase):
    """One rank's communicator, living inside a worker process.

    ``inboxes[r]`` is rank ``r``'s mailbox queue; any rank may put into any
    other rank's inbox, only the owner gets from its own.  Every envelope
    carries the run id so a message stranded by a failed earlier run can never
    be matched by a later one.

    With ``channels`` (this rank's :class:`~repro.runtime.channels.ChannelEndpoint`),
    messages to other ranks on halo travel tags go through the shared-memory
    rings instead (a self-send, on any tag, goes straight to the rank's own
    mailbox).  Each channel message carries a per-destination sequence
    number, and one that spills to the queue (ring full, payload too large)
    is released to the mailbox in sequence order with the ring traffic, so
    FIFO per ``(source, tag)`` holds across both transports.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: Sequence,
        run_id: int,
        timeout: float = 30.0,
        channels: Optional[ChannelEndpoint] = None,
    ):
        if not 0 <= rank < size:
            raise MPIRuntimeError(f"rank {rank} outside world of size {size}")
        self.rank = rank
        self._size = size
        self._inboxes = inboxes
        self._run_id = run_id
        self.timeout = timeout
        self.statistics = CommStatistics()
        # (source, tag) -> deque of arrays already pulled out of the inbox.
        self._stash: dict[tuple[int, int], deque] = defaultdict(deque)
        self._channels = channels
        # Channel sequence numbers: next to send per destination, next to
        # release per source, and early arrivals held per source by number.
        self._send_seq = [0] * size
        self._recv_seq = [0] * size
        self._held: list[dict[int, tuple[int, np.ndarray]]] = [{} for _ in range(size)]

    @property
    def size(self) -> int:
        return self._size

    # -- transport ------------------------------------------------------------
    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self._size:
            raise MPIRuntimeError(f"send to invalid rank {dest}")
        data = np.asarray(data)
        channels = self._channels
        if dest == self.rank:
            # A self-send lands straight in the mailbox, on any tag.
            self._stash[(dest, tag)].append(np.array(data, copy=True))
        elif channels is not None and is_halo_tag(tag):
            seq = self._send_seq[dest]
            self._send_seq[dest] = seq + 1
            if channels.write(dest, self._run_id, tag, seq, data):
                self.statistics.channel_messages += 1
            else:
                self._inboxes[dest].put(
                    (self._run_id, self.rank, tag, np.array(data, copy=True),
                     seq, channels.worker)
                )
                channels.spilled(dest)
        else:
            self._inboxes[dest].put(
                (self._run_id, self.rank, tag, np.array(data, copy=True))
            )
        self.statistics.messages_sent += 1
        self.statistics.bytes_sent += data.nbytes

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> MPRequest:
        self.send(data, dest, tag)
        return MPRequest("send", self, dest, tag, None)

    def recv(self, buffer: np.ndarray, source: int, tag: int = 0) -> np.ndarray:
        message = self._match(source, tag, block=True)
        _copy_into(np.asarray(buffer), message)
        return buffer

    def irecv(self, buffer: np.ndarray, source: int, tag: int = 0) -> MPRequest:
        return MPRequest("recv", self, source, tag, np.asarray(buffer))

    def wait(self, request: MPRequest) -> None:
        request.wait(self.timeout)

    # -- statistics hooks ------------------------------------------------------
    def _record_collective(self) -> None:
        self.statistics.collectives += 1

    def _record_barrier(self) -> None:
        self.statistics.barriers += 1

    # -- mailbox ---------------------------------------------------------------
    def _match(
        self,
        source: int,
        tag: int,
        *,
        block: bool,
        timeout: Optional[float] = None,
    ) -> Optional[np.ndarray]:
        """Pop the next message from ``(source, tag)``, draining the transports.

        Non-matching messages are stashed for later receives; messages from
        another run are dropped.  Blocking waits honour the world timeout:
        a channel tag sleeps on the rank's doorbell (or on the inbox while a
        spilled message is owed), any other tag on the inbox.
        """
        wanted = (source, tag)
        inbox = self._inboxes[self.rank]
        channels = self._channels
        on_channel = channels is not None and is_halo_tag(tag)
        deadline = None
        while True:
            stashed = self._stash.get(wanted)
            if stashed:
                return stashed.popleft()
            if on_channel:
                channels.drain(self._deliver)
                stashed = self._stash.get(wanted)
                if stashed:
                    return stashed.popleft()
            if not block:
                try:
                    self._accept(inbox.get_nowait())
                except queue_module.Empty:
                    return None
                continue
            if deadline is None:
                deadline = time.monotonic() + (
                    timeout if timeout is not None else self.timeout)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise MPIRuntimeError(
                    f"rank {self.rank} timed out waiting for a message "
                    f"from rank {source} with tag {tag}"
                )
            if on_channel and not channels.spills_owed():
                # Doorbell tokens left by records already drained are
                # consumed first (then the rings drained again), so the
                # count stays bounded and a sleep ends only on a new ring.
                if not channels.clear_doorbell():
                    channels.wait(min(remaining, 0.2))
                continue
            try:
                self._accept(inbox.get(timeout=min(remaining, 0.2)))
            except queue_module.Empty:
                continue

    def _accept(self, envelope: tuple) -> None:
        """File one inbox envelope (plain, or a spilled channel message)."""
        if len(envelope) == 4:
            run_id, sender, sent_tag, payload = envelope
            if run_id == self._run_id:
                self._stash[(sender, sent_tag)].append(payload)
            return  # else stranded by a failed earlier run: drop
        run_id, sender, sent_tag, payload, seq, sender_worker = envelope
        self._channels.spill_seen(sender_worker)
        self._deliver(sender, run_id, sent_tag, seq, payload)

    def _deliver(self, source: int, run_id: int, tag: int, seq: int,
                 payload: np.ndarray) -> None:
        """Release channel messages to the mailbox in sequence order."""
        if run_id != self._run_id:
            return  # left in a ring or inbox by an earlier run: drop
        held = self._held[source]
        expected = self._recv_seq[source]
        if seq == expected and not held:
            self._stash[(source, tag)].append(payload)
            self._recv_seq[source] = expected + 1
            return
        held[seq] = (tag, payload)
        while expected in held:
            sent_tag, message = held.pop(expected)
            self._stash[(source, sent_tag)].append(message)
            expected += 1
        self._recv_seq[source] = expected
