"""Shared-memory halo channels between the worker processes of one pool.

Halo strips are the bulk of the process world's point-to-point traffic, and
a ``multiprocessing.Queue`` pickles each one and hands it to a feeder
thread.  A :class:`HaloChannels` slab gives every ordered pair of pool
workers a single-producer/single-consumer byte ring instead, plus one
*doorbell* semaphore per worker that wakes it when a record lands:

* a send copies the array straight into the ring (no pickle, no thread)
  and rings the receiver's doorbell;
* a receive drains its incoming rings into the communicator's mailbox.

Both the slab and the semaphores are created by the :class:`WorkerPool`
*before* it forks its workers, which inherit them: process-shared
semaphores cannot be sent through a queue, only inherited.  The slab is an
anonymous shared mapping whose pages stay untouched (and unallocated) until
a pair of workers actually exchanges a message.

Only halo travel tags (:func:`is_halo_tag`) use the rings; commands,
results, collectives and payloads a ring cannot hold stay on the queues.
A record that does not fit (ring full, or larger than :data:`MAX_RECORD`)
*spills* to the receiver's queue inbox, so a send never blocks.  Every
channel message carries a per-pair sequence number, and the receiver
releases messages in sequence order whichever transport they came by, so
FIFO per ``(source, tag)`` holds across both.

Records are published by storing the producer's write cursor after the
payload, and read after loading it: this relies on the store ordering of
x86 (TSO).  :meth:`HaloChannels.create` therefore returns None on other
machines and on non-fork start methods, and the world falls back to its
queues.
"""

from __future__ import annotations

import mmap
import platform
import struct
from typing import Callable, Optional

import numpy as np

from ..dialects.dmp import HALO_TAG_LIMIT

#: Data bytes of one ring.
RING_BYTES = 1 << 17
#: The largest record a ring carries; larger payloads spill to the queue.
MAX_RECORD = RING_BYTES // 4

# A ring is a 128-byte header followed by RING_BYTES of records.  The header
# holds two 64-byte lines of int64 words: the producer's (write cursor,
# records spilled to the queue) and the consumer's (read cursor, spilled
# records seen).  Cursors count bytes since creation and only grow.
_HEADER_BYTES = 128
_WRITE, _SPILLED, _READ, _SEEN = 0, 1, 8, 9
_WORDS_PER_RING = (_HEADER_BYTES + RING_BYTES) // 8

# Record: length (0 marks a skip to the ring's start), tag, run id,
# sequence number, dtype character, ndim; then ndim int64 extents and the
# payload, padded to 8 bytes.
_RECORD = struct.Struct("<Iiqqbb6x")
_MAX_NDIM = 8
_SHAPES = [struct.Struct(f"<{ndim}q") for ndim in range(_MAX_NDIM + 1)]
_CODES: dict[np.dtype, int] = {}
_DTYPES: dict[int, np.dtype] = {}


def is_halo_tag(tag: int) -> bool:
    """Whether ``tag`` is a halo travel tag (routed through the rings)."""
    return 0 <= tag < HALO_TAG_LIMIT


def _dtype_code(dtype: np.dtype) -> int:
    """The one-byte code of a plain native dtype, or -1 (use the queue)."""
    code = _CODES.get(dtype)
    if code is None:
        char = dtype.char
        plain = not dtype.hasobject and len(char) == 1 and np.dtype(char) == dtype
        code = _CODES[dtype] = ord(char) if plain else -1
    return code


def _dtype_of(code: int) -> np.dtype:
    dtype = _DTYPES.get(code)
    if dtype is None:
        dtype = _DTYPES[code] = np.dtype(chr(code))
    return dtype


def _tso_machine() -> bool:
    return platform.machine().lower() in ("x86_64", "amd64", "i386", "i686")


class HaloChannels:
    """The slab of rings and the doorbells of one worker pool."""

    def __init__(self, workers: int, slab: mmap.mmap, doorbells: list):
        self.workers = workers
        self.slab = slab
        self.doorbells = doorbells

    @classmethod
    def create(cls, ctx, workers: int) -> Optional["HaloChannels"]:
        """Channels for ``workers`` forked workers, or None when unsupported."""
        if ctx.get_start_method() != "fork" or not _tso_machine():
            return None
        size = workers * workers * _WORDS_PER_RING * 8
        slab = mmap.mmap(-1, size)  # anonymous, shared, zero pages on demand
        return cls(workers, slab, [ctx.Semaphore(0) for _ in range(workers)])

    def close(self) -> None:
        """Unmap the slab in this process (workers keep their own mapping)."""
        try:
            self.slab.close()
        except BufferError:  # pragma: no cover - an endpoint still holds a view
            pass


class ChannelEndpoint:
    """Rank ``rank``'s end of the channels of pool workers ``base..base+size-1``."""

    __slots__ = ("worker", "base", "_workers", "_slab", "_words", "_doorbells",
                 "_doorbell", "_outgoing", "_incoming")

    def __init__(self, channels: HaloChannels, base: int, rank: int, size: int):
        workers = channels.workers
        self.worker = base + rank
        self.base = base
        self._workers = workers
        self._slab = channels.slab
        self._words = memoryview(channels.slab).cast("q")
        self._doorbells = channels.doorbells
        self._doorbell = channels.doorbells[self.worker]

        def ring(src: int, dst: int) -> int:
            return (src * workers + dst) * _WORDS_PER_RING

        #: Header word index of the ring to each job-local rank.
        self._outgoing = [ring(self.worker, base + peer) for peer in range(size)]
        #: (job-local source rank, header word index) of each incoming ring.
        self._incoming = [(peer, ring(base + peer, self.worker))
                          for peer in range(size) if peer != rank]
        # Tokens rung for an earlier run's records, which that run received
        # without sleeping, must not wake this run's first wait.
        self.clear_doorbell()

    # -- producer -------------------------------------------------------------
    def write(self, dest: int, run_id: int, tag: int, seq: int,
              data: np.ndarray) -> bool:
        """Append one record to the ring to ``dest``; False when it won't fit."""
        code = _dtype_code(data.dtype)
        ndim = data.ndim
        size = (_RECORD.size + 8 * ndim + data.nbytes + 7) & ~7
        if code < 0 or ndim > _MAX_NDIM or size > MAX_RECORD:
            return False
        words = self._words
        head = self._outgoing[dest]
        write = words[head + _WRITE]
        offset = write % RING_BYTES
        skip = RING_BYTES - offset if RING_BYTES - offset < size else 0
        if write + skip + size - words[head + _READ] > RING_BYTES:
            return False
        start = head * 8 + _HEADER_BYTES
        if skip >= _RECORD.size:
            struct.pack_into("<I", self._slab, start + offset, 0)
        if skip:
            offset = 0
        start += offset
        _RECORD.pack_into(self._slab, start, size, tag, run_id, seq, code, ndim)
        _SHAPES[ndim].pack_into(self._slab, start + _RECORD.size, *data.shape)
        np.copyto(np.ndarray(data.shape, data.dtype, buffer=self._slab,
                             offset=start + _RECORD.size + 8 * ndim), data)
        words[head + _WRITE] = write + skip + size
        self._doorbells[self.base + dest].release()
        return True

    def spilled(self, dest: int) -> None:
        """Record that a channel message to ``dest`` went by the queue."""
        head = self._outgoing[dest]
        self._words[head + _SPILLED] += 1
        self._doorbells[self.base + dest].release()

    # -- consumer -------------------------------------------------------------
    def drain(self, deliver: Callable[[int, int, int, int, np.ndarray], None]) -> None:
        """Pass every pending record to ``deliver(source, run_id, tag, seq, array)``."""
        words = self._words
        slab = self._slab
        for source, head in self._incoming:
            read = words[head + _READ]
            write = words[head + _WRITE]
            while read < write:
                offset = read % RING_BYTES
                start = head * 8 + _HEADER_BYTES + offset
                # No record fits a tail shorter than a record header; the
                # producer marks a longer unused tail with a zero length.
                if RING_BYTES - offset < _RECORD.size:
                    size = 0
                else:
                    size, tag, run_id, seq, code, ndim = _RECORD.unpack_from(
                        slab, start)
                if size == 0:
                    read += RING_BYTES - offset
                    continue
                shape = _SHAPES[ndim].unpack_from(slab, start + _RECORD.size)
                array = np.ndarray(shape, _dtype_of(code), buffer=slab,
                                   offset=start + _RECORD.size + 8 * ndim).copy()
                read += size
                words[head + _READ] = read
                deliver(source, run_id, tag, seq, array)
            words[head + _READ] = read

    def spills_owed(self) -> bool:
        """Whether a spilled channel message is still on its way by queue."""
        words = self._words
        return any(words[head + _SPILLED] != words[head + _SEEN]
                   for _, head in self._incoming)

    def spill_seen(self, sender_worker: int) -> None:
        """Count one spilled message from pool worker ``sender_worker``."""
        head = (sender_worker * self._workers + self.worker) * _WORDS_PER_RING
        self._words[head + _SEEN] += 1

    def clear_doorbell(self) -> bool:
        """Consume every pending doorbell token; whether there were any.

        A record rings the doorbell whether or not its receiver sleeps, so a
        receiver that finds records at once leaves tokens behind.  A caller
        about to sleep clears them and drains once more first: a record
        published after that drain rings a token the sleep then takes.
        """
        acquire = self._doorbell.acquire
        if not acquire(False):
            return False
        while acquire(False):
            pass
        return True

    def wait(self, timeout: float) -> bool:
        """Block until a doorbell ring (or ``timeout`` seconds)."""
        return self._doorbell.acquire(True, timeout)
