"""Zero-copy shard transport over ``multiprocessing.shared_memory``.

The shard executor (:class:`~repro.streaming.supervisor.ShardSupervisor`,
behind both :class:`~repro.streaming.sharded.ShardedPipeline` and
:class:`~repro.core.parallel.ParallelTriangleCounter`) broadcasts
every batch to every worker. Over pickled queues that costs ``workers``
serialized copies of the same ``(w, 2)`` int64 array per batch -- at
paper-scale batch sizes the dominant parent-side cost, and the reason
shard scaling flattened well below linear. This module replaces the
payload with a *descriptor*: the parent copies each batch **once** into
a ring of named shared-memory blocks and ships ``(tag, slot, rows)``
tuples (a few dozen bytes) through the queues; workers map the blocks
and hand the engine a zero-copy :class:`~repro.streaming.batch.EdgeBatch`
view.

Pieces, parent to worker:

- :class:`ShmRing` -- parent-owned ring of ``slots`` equal-size
  shared-memory blocks plus a per-``(slot, consumer)`` reference-flag
  matrix and a condition variable (both from the multiprocessing
  context, so they inherit into workers under fork *and* spawn).
  :meth:`ShmRing.send` claims a free block (all flags clear), stamps
  each receiving consumer's flag, copies the batch in, and returns the
  descriptor; :meth:`ShmRing.revoke` clears one consumer's whole flag
  column, which is how crash recovery reclaims whatever a SIGKILLed
  worker was holding (flag-clears are idempotent, so no kill instant
  can corrupt the accounting the way a shared counter could);
- :class:`ShmRingClient` -- the picklable worker handle, bound to one
  consumer index: attaches blocks lazily by name, serves numpy views,
  and clears its flag on release (waking a parent blocked on a full
  ring);
- :class:`TransportFeed` -- the worker-side queue iterator: yields
  ``EdgeBatch`` for descriptors (releasing each block as soon as the
  consumer moves on) and raw arrays alike, so the worker loop is
  transport-agnostic;
- :class:`BatchSender` -- the parent-side policy object: resolves
  ``transport="auto"|"shm"|"queue"``, owns the ring, and leaves the
  caller the pickled payload per batch (odd sizes) or wholesale (no
  shm on the platform -- see :func:`shm_available`).

**Lifecycle contract.** A block is reused the moment its refcount
returns to 0, so consumers must not retain references into a batch
after advancing the feed past it -- the engines already honor this
(every state write is a fancy-indexed copy; the per-batch context dies
with the batch). Cleanup is parent-side and crash-safe: every segment
is unlinked in :meth:`ShmRing.close`, which runs in the run's
``finally`` *and* via ``atexit``; a worker killed mid-batch leaves only
refcounts behind, which the parent's liveness callback turns into a
crash report (or a recovery) instead of a hung wait, and the unlink
still proceeds. Worker attachments auto-register with the
``resource_tracker`` (bpo-38119), which is harmless here: children
share the parent's tracker process, so the register is a set re-add of
the parent's own entry, cleared once by the parent's unlink.

**Bit-identity.** The transport moves bytes, never interprets them: a
worker sees the identical canonical array whether it arrived as a view
or a pickle, so results are bit-identical across transports (asserted
by the transport-parity tests).
"""

from __future__ import annotations

import atexit
import os
import secrets

import numpy as np

from ..errors import InvalidParameterError
from .batch import EdgeBatch

__all__ = [
    "BatchSender",
    "ShmRing",
    "ShmRingClient",
    "TransportFeed",
    "check_transport",
    "resolve_transport",
    "shm_available",
]

#: First element of a shared-memory batch descriptor. A plain string
#: tag (not a class) keeps descriptors trivially picklable and lets a
#: queue-path worker recognize -- and reject -- a descriptor it cannot
#: serve, instead of silently treating it as a batch.
DESCRIPTOR_TAG = "__repro_shm_batch__"

#: Ring slots: twice the bounded queue depth. In-flight distinct
#: batches are bounded by the slowest worker's queue backlog plus one
#: in processing plus one the parent holds while blocked on a full
#: queue (= depth + 2), so twice the depth never deadlocks the
#: claim-then-enqueue order.
RING_SLOTS_PER_DEPTH = 2

_NAME_PREFIX = "repro"


def shm_available() -> bool:
    """Whether POSIX shared memory actually works here (probe, cached).

    Import success is not enough: locked-down containers mount no
    ``/dev/shm`` (or mount it unwritable), which surfaces only when a
    segment is created. The probe creates and unlinks a minimal one.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=1)
            try:
                seg.close()
            finally:
                seg.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


_SHM_AVAILABLE: bool | None = None


def check_transport(transport: str) -> str:
    """Normalize a transport name; raise on anything but shm/queue/auto."""
    name = transport.strip().lower()
    if name not in ("auto", "shm", "queue"):
        raise InvalidParameterError(
            f"unknown transport {name!r}; choose shm, queue, or auto"
        )
    return name


def resolve_transport(transport: str) -> str:
    """Resolve a requested transport to ``"shm"`` or ``"queue"``.

    ``auto`` degrades silently to ``queue`` on shm-less platforms; an
    explicit ``shm`` request raises there instead, so a caller that
    asked for shared memory never gets pickled payloads without
    knowing it.
    """
    name = check_transport(transport)
    if name == "auto":
        return "shm" if shm_available() else "queue"
    if name == "shm" and not shm_available():
        raise InvalidParameterError(
            "transport 'shm' requested but shared memory is unavailable "
            "on this platform; use transport='queue' or 'auto'"
        )
    return name


class ShmRingClient:
    """Worker-side handle to a :class:`ShmRing` (ships via Process args).

    Holds only the segment names plus the shared reference-flag matrix
    and condition -- multiprocessing primitives that inherit through
    ``Process(args=...)`` under fork and spawn alike -- and the consumer
    index this client releases on behalf of. Blocks attach lazily on
    first use; :meth:`close` detaches without unlinking (the parent
    owns the segments).
    """

    def __init__(self, names, flags, cond, consumer, consumers) -> None:
        self._names = list(names)
        self._flags = flags
        self._cond = cond
        self._consumer = consumer
        self._consumers = consumers
        self._segments: list = [None] * len(self._names)

    def array(self, slot: int, rows: int) -> np.ndarray:
        """A zero-copy ``(rows, 2)`` int64 view of ``slot``'s block."""
        seg = self._segments[slot]
        if seg is None:
            from multiprocessing import shared_memory

            # Attaching auto-registers with the resource tracker
            # (bpo-38119). That is harmless here: multiprocessing
            # children share the parent's tracker (the fd is inherited
            # under fork and passed explicitly under spawn), so the
            # worker's register is a set re-add of the parent's own
            # entry, cleared once by the parent's unlink. Unregistering
            # from the worker would instead *remove* the shared entry
            # and break crash cleanup.
            seg = shared_memory.SharedMemory(name=self._names[slot])
            self._segments[slot] = seg
        return np.ndarray((rows, 2), dtype=np.int64, buffer=seg.buf)

    def release(self, slot: int) -> None:
        """Return this consumer's reference on ``slot``.

        Clearing a flag (rather than decrementing a shared counter) is
        idempotent, so a release that races the parent's crash-recovery
        :meth:`ShmRing.revoke` of the same consumer cannot corrupt the
        slot's accounting. Wakes a parent blocked on a full ring once
        the slot's last reference drops.
        """
        with self._cond:
            base = slot * self._consumers
            self._flags[base + self._consumer] = 0
            if not any(self._flags[base : base + self._consumers]):
                self._cond.notify_all()

    def close(self) -> None:
        """Detach every mapped block (views must be dropped first)."""
        for i, seg in enumerate(self._segments):
            if seg is None:
                continue
            self._segments[i] = None
            try:
                seg.close()
            except BufferError:  # pragma: no cover - lingering view
                pass

    def __getstate__(self):
        return (self._names, self._flags, self._cond, self._consumer, self._consumers)

    def __setstate__(self, state):
        self._names, self._flags, self._cond, self._consumer, self._consumers = state
        self._segments = [None] * len(self._names)


class ShmRing:
    """Parent-owned ring of shared-memory blocks with refcounted reuse.

    Parameters
    ----------
    ctx:
        The multiprocessing context the workers are spawned from (the
        refcount array and condition must come from the same context to
        inherit correctly).
    slots:
        Ring length.
    block_bytes:
        Capacity of each block; batches that do not fit are the
        caller's problem (:meth:`send` declines them).
    consumers:
        How many workers can receive descriptors -- the width of the
        per-slot reference-flag matrix.

    References are tracked as a per-``(slot, consumer)`` flag matrix
    rather than a per-slot counter: release and :meth:`revoke` are then
    *idempotent* flag-clears, so the parent can reclaim everything a
    SIGKILLed worker held -- whatever instant the kill landed --
    without the negative-count/leaked-count races a shared counter
    cannot avoid.
    """

    def __init__(self, ctx, *, slots: int, block_bytes: int, consumers: int) -> None:
        from multiprocessing import shared_memory

        if slots < 1 or consumers < 1 or block_bytes < 16:
            raise InvalidParameterError(
                f"bad ring geometry: slots={slots}, consumers={consumers}, "
                f"block_bytes={block_bytes}"
            )
        token = secrets.token_hex(4)
        self._names = [
            f"{_NAME_PREFIX}-{os.getpid()}-{token}-{i}" for i in range(slots)
        ]
        self._segments = []
        try:
            for name in self._names:
                self._segments.append(
                    shared_memory.SharedMemory(
                        name=name, create=True, size=block_bytes
                    )
                )
        except Exception:
            self.close()
            raise
        self._block_bytes = block_bytes
        self._consumers = consumers
        self._flags = ctx.Array("q", slots * consumers, lock=False)
        self._cond = ctx.Condition()
        self._closed = False
        atexit.register(self.close)

    @property
    def slots(self) -> int:
        return len(self._names)

    def refcount(self, slot: int) -> int:
        """How many consumers still hold a reference to ``slot``."""
        base = slot * self._consumers
        return sum(
            1 for flag in self._flags[base : base + self._consumers] if flag
        )

    def client(self, consumer: int = 0) -> ShmRingClient:
        """The handle for worker ``consumer``; pass through ``Process(args=...)``."""
        if not 0 <= consumer < self._consumers:
            raise InvalidParameterError(
                f"consumer must be in [0, {self._consumers}), got {consumer}"
            )
        return ShmRingClient(
            self._names, self._flags, self._cond, consumer, self._consumers
        )

    def send(self, array: np.ndarray, alive=None, consumers=None) -> tuple | None:
        """Copy ``array`` into a free block; return its descriptor.

        ``consumers`` selects which workers the descriptor is stamped
        for (default: all) -- a supervised run excludes workers that
        were degraded to the queue payload. Returns ``None`` when the
        batch cannot ride the ring (wrong dtype/shape or larger than a
        block) -- the caller falls back to the pickled payload for that
        batch. Blocks until a slot frees up; every second of waiting
        invokes ``alive`` (if given), whose job is to raise when a
        consumer died holding references, turning a would-be deadlock
        into the standard crash handling.
        """
        if (
            array.dtype != np.int64
            or array.ndim != 2
            or array.shape[1] != 2
            or array.nbytes > self._block_bytes
        ):
            return None
        targets = (
            range(self._consumers) if consumers is None else list(consumers)
        )
        with self._cond:
            while True:
                for slot in range(len(self._names)):
                    base = slot * self._consumers
                    if not any(self._flags[base : base + self._consumers]):
                        break
                else:
                    if not self._cond.wait(timeout=1.0) and alive is not None:
                        alive()
                    continue
                break
            for consumer in targets:
                self._flags[slot * self._consumers + consumer] = 1
        # Copy outside the lock: a claimed block is untouched by workers
        # until its descriptor is enqueued, which happens after we return.
        rows = array.shape[0]
        view = np.ndarray((rows, 2), dtype=np.int64, buffer=self._segments[slot].buf)
        view[...] = array
        del view
        return (DESCRIPTOR_TAG, slot, rows)

    def revoke(self, consumer: int) -> None:
        """Drop every reference ``consumer`` holds, in any slot.

        The crash-recovery path: a killed worker's queue may hold
        descriptors it will never release, and the kill may have landed
        mid-release. Clearing the consumer's whole flag column is
        correct at every such instant (flags are idempotent), frees any
        slots only that worker was holding, and wakes a parent blocked
        on a full ring.
        """
        with self._cond:
            for slot in range(len(self._names)):
                self._flags[slot * self._consumers + consumer] = 0
            self._cond.notify_all()

    def close(self) -> None:
        """Unlink every block (idempotent; also runs at interpreter exit).

        Safe while workers are still attached: POSIX keeps an unlinked
        segment alive until the last map closes, so a worker finishing
        its final batch is unaffected while the names (and ``/dev/shm``
        entries) disappear immediately.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []


class TransportFeed:
    """Iterate a worker's input queue until the ``None`` sentinel.

    Shared-memory descriptors come back as zero-copy :class:`EdgeBatch`
    views (released as soon as the consumer advances past them), raw
    wire arrays as :class:`EdgeBatch` objects, and control tuples
    verbatim.
    """

    def __init__(self, queue, client: ShmRingClient | None = None) -> None:
        self._queue = queue
        self._client = client

    def _is_descriptor(self, item) -> bool:
        return (
            type(item) is tuple
            and len(item) == 3
            and item[0] == DESCRIPTOR_TAG
        )

    def __iter__(self):
        while True:
            item = self._queue.get()
            if item is None:
                return
            if self._is_descriptor(item):
                if self._client is None:  # pragma: no cover - protocol bug
                    raise InvalidParameterError(
                        "received a shared-memory descriptor without a ring "
                        "client; parent and worker disagree on the transport"
                    )
                _, slot, rows = item
                try:
                    yield EdgeBatch(self._client.array(slot, rows))
                finally:
                    # Runs when the consumer advances (or abandons the
                    # generator): the batch is done, free the block.
                    self._client.release(slot)
            elif isinstance(item, np.ndarray):
                # (w, 2) arrays come back as plain batches, (w, 3)
                # signed wire arrays split back into edges + signs.
                yield EdgeBatch.from_wire(item)
            else:
                yield item


class BatchSender:
    """Parent-side transport policy: ring when possible, pickle otherwise.

    One instance per multiprocess run. Each stream batch goes on the
    worker queues as a ring :meth:`descriptor` when the ring takes it,
    else as its :meth:`raw` pickled payload (the batch's wire array).
    """

    def __init__(
        self,
        ctx,
        *,
        transport: str,
        consumers: int,
        batch_size: int,
        queue_depth: int,
    ) -> None:
        self.mode = resolve_transport(transport)
        self._ring: ShmRing | None = None
        if self.mode == "shm":
            try:
                self._ring = ShmRing(
                    ctx,
                    slots=RING_SLOTS_PER_DEPTH * queue_depth,
                    block_bytes=max(16, int(batch_size) * 16),
                    consumers=consumers,
                )
            except InvalidParameterError:
                raise
            except Exception:
                if transport.strip().lower() == "shm":
                    raise
                # auto: a platform that probed fine but cannot size the
                # ring (tiny /dev/shm) degrades to the queue path.
                self.mode = "queue"

    def client(self, consumer: int = 0) -> ShmRingClient | None:
        """Worker ``consumer``'s handle (``None`` on the queue path)."""
        return self._ring.client(consumer) if self._ring is not None else None

    def descriptor(self, batch: EdgeBatch, alive=None, consumers=None):
        """A ring descriptor for ``batch``, or ``None`` (no fallback).

        A descriptor is enqueued only to the workers it was stamped
        for, everyone else gets :meth:`raw`. A signed batch's wire form
        is ``(w, 3)``, which the ring declines by shape: turnstile
        batches ride the pickled payload, leaving the zero-copy path
        insert-only and untouched.
        """
        if self._ring is None:
            return None
        return self._ring.send(batch.wire, alive, consumers)

    @staticmethod
    def raw(batch: EdgeBatch) -> np.ndarray:
        """The pickled-queue payload for ``batch`` (also the replay form)."""
        return batch.wire

    def revoke(self, consumer: int) -> None:
        """Free every ring reference ``consumer`` holds (crash recovery)."""
        if self._ring is not None:
            self._ring.revoke(consumer)

    def close(self) -> None:
        if self._ring is not None:
            self._ring.close()

