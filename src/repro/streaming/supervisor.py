"""The one multiprocess executor: supervised shard workers.

The estimator dimension is embarrassingly parallel *and* bit-exactly
checkpointable: a worker's whole contribution to a run is its shard
state, a pure function of (build plan, batches consumed). Both
multiprocess front-ends -- :class:`~repro.streaming.sharded.ShardedPipeline`
and :class:`~repro.core.parallel.ParallelTriangleCounter` -- hand
:class:`ShardExecutor` one :class:`EstimatorShardProgram` per worker;
the executor reads the stream once and, for more than one program,
drives them through :class:`ShardSupervisor`, the only place a worker
process is spawned. ``max_restarts`` selects what a worker failure
does:

- **0 -- fail fast.** The first failure ends the run: a worker's
  Python exception is re-raised as its own type (with a
  ``worker traceback`` note), a worker that dies or hangs without
  reporting raises :class:`~repro.errors.WorkerCrashedError`. No sync
  barriers are sent and no replay window is kept, since no respawn
  could use them.
- **> 0 -- self-healing**, bit-identical to an uninterrupted run:

  - *Snapshots.* Every ``snapshot_every`` batches the parent emits a
    ``sync`` control message down each worker queue; each worker
    replies with its shard's ``state_dict`` once the message surfaces
    behind the batches before it, so the collected snapshot is exactly
    the state at that batch boundary. The parent keeps the raw payload
    of every batch since the last completed snapshot (the replay
    window). When the run is journaled, the in-memory window may be
    capped (:attr:`Supervision.replay_window`): evicted batches are
    re-read from the durable journal during catch-up instead.
  - *Recovery.* The failed incarnation is killed and fully excised:
    its input queue is discarded wholesale and every shared-memory
    reference it held is revoked
    (:meth:`~repro.streaming.shm.ShmRing.revoke`). A fresh incarnation
    is spawned after exponential backoff, restored from the snapshot,
    and fed the replay window, so it rejoins the run in the exact
    state the dead worker should have had.
  - *Attribution.* Crashes whose traceback implicates shared memory
    (or repeated crashes) degrade that worker's respawn to pickled
    queue payloads.
  - *Bounded retries.* Each worker gets ``max_restarts`` respawns;
    past that the run fails with
    :class:`~repro.errors.RetryExhaustedError` carrying the last worker
    traceback. Every respawn emits a
    :class:`~repro.errors.WorkerRestartedWarning`.

Either way a dead worker is noticed at the next queue ``put``, ring
wait, sync barrier, or result wait (liveness polls), and a *hung*
worker -- alive but not consuming -- by the optional
``worker_deadline`` watchdog on put progress and barrier waits.

Out-queue messages are tagged with the sender's *incarnation* so a
dead worker's stragglers (a result flushed just before the kill
landed) cannot be attributed to its replacement. Worker faults from an
armed :class:`~repro.streaming.faults.FaultPlan` fire keyed on batch
index and incarnation, which is how the chaos tests drive every one of
these paths deterministically.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import warnings
from dataclasses import dataclass, field

from ..errors import (
    InvalidParameterError,
    RetryExhaustedError,
    WorkerCrashedError,
    WorkerRestartedWarning,
)
from . import faults as faults_module
from .batch import EdgeBatch
from .journal import DEFAULT_SEGMENT_BYTES, JournalWriter, journal_records
from .pipeline import FanOut, build_estimators, shared_pools
from .shm import BatchSender, TransportFeed, check_transport

__all__ = [
    "CTL_TAG",
    "EstimatorShardProgram",
    "ShardExecutor",
    "ShardRun",
    "ShardSupervisor",
    "Supervision",
]

#: First element of a control tuple on a worker's input queue. Rides
#: the same queues as batches (so ordering is exact); control tuples are
#: the only items :class:`TransportFeed` passes through verbatim.
CTL_TAG = "__repro_ctl__"

#: Grace period for a worker that exited cleanly before its result
#: surfaces (the queue feeder may still be flushing).
_CLEAN_EXIT_GRACE = 0.5

#: Batches in flight per worker queue; bounds parent-side memory while
#: still hiding transport latency behind worker compute.
_QUEUE_DEPTH = 4


@dataclass(frozen=True)
class Supervision:
    """The supervision policy knobs, validated on construction.

    ``max_restarts`` is per worker; ``0`` fails the run on the first
    worker failure. ``worker_deadline`` (seconds) arms the hang
    watchdog: a worker making no progress for that long is treated as
    crashed (``None`` disables it -- a merely *dead* worker is still
    detected by liveness polls). ``snapshot_every`` is the sync-barrier
    cadence in batches, which bounds both the replay window's memory
    and the batches re-processed after a crash. ``backoff`` is the
    first respawn delay, doubled per consecutive restart of the same
    worker up to ``backoff_cap``.

    ``replay_window`` caps the *in-memory* replay buffer, in batches.
    It is honored only when the supervisor was handed a journal
    writer: batches past the cap are dropped from memory and recovery
    re-reads them from the journal (every batch is appended upstream
    before it is broadcast, so the journal always covers the window).
    Without a journal the cap is ignored -- dropping would lose the
    only copy. ``None`` keeps the buffer unbounded.
    """

    max_restarts: int = 2
    worker_deadline: float | None = None
    snapshot_every: int = 32
    backoff: float = 0.1
    backoff_cap: float = 5.0
    replay_window: int | None = None

    def __post_init__(self) -> None:
        for name, value in (
            ("max_restarts", self.max_restarts),
            ("snapshot_every", self.snapshot_every),
            ("restart backoff", self.backoff),
            ("replay_window", self.replay_window),
        ):
            if value is not None and value < 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {value}")
        if self.worker_deadline is not None and self.worker_deadline <= 0:
            raise InvalidParameterError(
                f"worker_deadline must be positive, got {self.worker_deadline}"
            )


class EstimatorShardProgram:
    """One worker's shard of every requested estimator pool.

    A *program* is the picklable recipe a worker runs. ``specs`` is the
    build plan: one ``{"name", "num_estimators", "seed", "options"}``
    dict per pool (see
    :meth:`~repro.streaming.sharded.ShardedPipeline.worker_specs`).
    :meth:`build` constructs fresh state deterministically from it (so
    a respawn before the first snapshot needs no restore at all), through
    the same :func:`~repro.streaming.pipeline.build_estimators` as a
    single-process pipeline (so shards of one pool size share a pool),
    and exposes the built ``(name, estimator)`` :attr:`pairs`;
    :meth:`consume` feeds one batch through the shared
    :class:`~repro.streaming.pipeline.FanOut`; :meth:`state`/:meth:`load`
    snapshot and restore; :meth:`finish` returns ``(states, timings,
    pools)`` for the parent to merge and report (``pools`` is
    :func:`~repro.streaming.pipeline.shared_pools` of the shard).
    """

    def __init__(self, specs) -> None:
        self.specs = [dict(spec) for spec in specs]

    def build(self) -> None:
        self.pairs = build_estimators(self.specs)
        self._fanout = FanOut(self.pairs)

    def consume(self, batch) -> None:
        self._fanout.consume(batch)

    def state(self) -> dict:
        return {name: est.state_dict() for name, est in self.pairs}

    def load(self, state: dict) -> None:
        for name, est in self.pairs:
            est.load_state_dict(state[name])

    def finish(self):
        return (self.state(), dict(self._fanout.timings), shared_pools(self.pairs))


@dataclass
class ShardRun:
    """What :meth:`ShardExecutor.run` hands back to a front-end."""

    finals: list
    edges: int = 0
    batches: int = 0
    io_seconds: float = 0.0
    restarts: list[int] = field(default_factory=list)


class ShardExecutor:
    """The one entry both multiprocess front-ends run their shards through.

    Built at front-end construction, so the ``transport`` name and the
    :class:`Supervision` ``policy`` are checked before anything runs.
    :meth:`run` reads the stream once (journaling each batch first when
    asked, timing the pulls as ``io_seconds``) and executes one program
    per worker: a single program runs in-process, more go through a
    :class:`ShardSupervisor`. ``fault_plan`` ``None`` defers to the
    ``REPRO_FAULT_PLAN`` environment plan.
    """

    def __init__(self, transport: str, policy: Supervision, fault_plan) -> None:
        check_transport(transport)
        self.transport = transport
        self.policy = policy
        self.fault_plan = fault_plan

    def run(
        self,
        programs,
        source,
        *,
        batch_size: int,
        journal_dir=None,
        journal_fsync: str = "batch",
        journal_max_segment: int = DEFAULT_SEGMENT_BYTES,
    ) -> ShardRun:
        """Stream ``source`` (an ``EdgeSource``) through ``programs``.

        ``batch_size`` is checked before a journal is opened or a
        worker spawned. With ``journal_dir`` each batch is appended to
        the durable journal *before* it fans out, so the journal is
        always a superset of what the workers consumed, and recovery
        can re-read a capped replay window from it.
        """
        if batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
        journal = None
        if journal_dir is not None:
            journal = JournalWriter(
                journal_dir, fsync=journal_fsync, max_segment_bytes=journal_max_segment
            )
        result = ShardRun(finals=[])
        try:
            stream = _metered(source.batches(batch_size), journal, result)
            if len(programs) == 1:
                (program,) = programs
                program.build()
                for batch in stream:
                    program.consume(batch)
                result.finals = [program.finish()]
                result.restarts = [0]
            else:
                supervisor = ShardSupervisor(
                    multiprocessing.get_context(),
                    programs,
                    transport=self.transport,
                    batch_size=batch_size,
                    policy=self.policy,
                    fault_plan=self.fault_plan,
                    journal=journal,
                )
                result.finals = supervisor.run(stream)
                result.restarts = supervisor.restarts
        finally:
            if journal is not None:
                journal.close()
        return result


def _metered(batches, journal, result: ShardRun):
    """Yield ``batches``, journaling each first and metering the pulls.

    The parent's one stream read: ``result.io_seconds`` accumulates the
    wall time of every pull (journal append included), the same
    stream-side share a single-process pipeline reports, and
    ``edges``/``batches`` count what was fanned out.
    """
    it = iter(batches)
    while True:
        t0 = time.perf_counter()
        batch = next(it, None)
        if batch is not None:
            # Third-party sources may yield plain edge lists; every
            # batch past this point is an EdgeBatch.
            batch = EdgeBatch.from_edges(batch)
            if journal is not None:
                journal.append(batch)
        result.io_seconds += time.perf_counter() - t0
        if batch is None:
            return
        result.edges += len(batch)
        result.batches += 1
        yield batch


def _shard_worker(
    in_queue, out_queue, index: int, incarnation: int, program, client, plan
) -> None:
    """The one worker loop: batches, control messages, faults.

    Control tuples ride the batch queue so they are ordered exactly
    against the stream: a ``sync`` ack therefore reports the state at
    precisely the batch boundary the parent keyed it on, and a
    ``restore`` lands before any replayed batch. Every out-queue
    message carries this incarnation, letting the parent drop
    stragglers from a predecessor it already killed.
    """
    import pickle
    import traceback

    if plan is not None:
        faults_module.install(plan)
    arm = faults_module.worker_arm(index, incarnation)
    feed = TransportFeed(in_queue, client)
    try:
        program.build()
        batch_no = 0
        for item in feed:
            if type(item) is tuple and len(item) >= 2 and item[0] == CTL_TAG:
                if item[1] == "restore":
                    program.load(item[2])
                    batch_no = item[3]
                elif item[1] == "sync":
                    out_queue.put(
                        ("ckpt", index, incarnation, item[2], program.state())
                    )
                continue
            batch_no += 1
            program.consume(item)
            arm.after_batch(batch_no)
        result = ("ok", program.finish(), None)
    except Exception as exc:
        tb = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:  # pragma: no cover - unpicklable exception
            exc = RuntimeError(tb)
        result = ("error", exc, tb)
    finally:
        if client is not None:
            client.close()
    out_queue.put(("done", index, incarnation, result))


class _WorkerDown(Exception):
    """Internal: worker ``index`` needs recovery (never escapes run())."""

    def __init__(self, index, message, *, exc=None, tb=None, hung=False):
        super().__init__(message)
        self.index = index
        self.exc = exc
        self.tb = tb
        self.hung = hung


class ShardSupervisor:
    """Parent-side supervision of one multiprocess shard run.

    Owns the workers, their queues, and the batch transport. The
    caller hands one *program* per worker and the batch iterable;
    :meth:`run` returns each program's :meth:`finish` value, in worker
    order, having survived (bounded) crashes and hangs along the way
    -- or, at ``max_restarts=0``, raised on the first one.
    """

    def __init__(
        self,
        ctx,
        programs,
        *,
        transport: str,
        batch_size: int,
        queue_depth: int = _QUEUE_DEPTH,
        policy: Supervision | None = None,
        fault_plan=None,
        journal=None,
    ) -> None:
        self._ctx = ctx
        self._programs = list(programs)
        self._n = len(self._programs)
        self._policy = policy or Supervision()
        # Snapshots and the replay window exist only to catch up a
        # respawn; without a restart budget there is none to catch up.
        self._recoverable = self._policy.max_restarts > 0
        self._plan = (
            fault_plan if fault_plan is not None else faults_module.active_plan()
        )
        self._queue_depth = queue_depth
        self._sender = BatchSender(
            ctx,
            transport=transport,
            consumers=self._n,
            batch_size=batch_size,
            queue_depth=queue_depth,
        )
        self._in_queues = [
            ctx.Queue(maxsize=queue_depth) for _ in range(self._n)
        ]
        self._out_queue = ctx.Queue()
        self._procs: list = [None] * self._n
        self._incarnations = [0] * self._n
        self._restarts = [0] * self._n
        self._degraded = [False] * self._n  # queue payloads only
        self._snapshot_states: list = [None] * self._n
        self._snapshot_batch = 0
        self._replay: list = []  # raw payloads since the last snapshot
        # The durable side of the replay window: when a journal writer
        # is present (batches are appended upstream, before broadcast),
        # the in-memory buffer may be capped (policy.replay_window) and
        # catch-up re-reads the dropped prefix from the journal,
        # starting after the position recorded at the last snapshot.
        self._journal = journal
        self._snapshot_journal_pos = (
            None if journal is None else journal.position()
        )
        self._replay_dropped = 0
        self._global_batch = 0
        self._sync_pending: int | None = None
        self._sentinel_sent = False
        self._acks: dict[int, tuple] = {}
        self._finals: dict[int, object] = {}
        self._last_tb: str | None = None

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self, batches) -> list:
        """Drive ``batches`` through the workers; return their finals."""
        every = self._policy.snapshot_every if self._recoverable else 0
        try:
            for i in range(self._n):
                self._spawn(i)
            for batch in batches:
                self._broadcast(batch)
                if every and self._global_batch % every == 0:
                    self._sync()
            self._finish()
        except BaseException:
            self._shutdown(failed=True)
            raise
        self._shutdown(failed=False)
        return [self._finals[i] for i in range(self._n)]

    @property
    def restarts(self) -> list[int]:
        """Per-worker restart counts (for reporting and benchmarks)."""
        return list(self._restarts)

    # ------------------------------------------------------------------
    # send loop
    # ------------------------------------------------------------------
    def _broadcast(self, batch) -> None:
        self._global_batch += 1
        raw = BatchSender.raw(batch)
        if self._recoverable:
            self._replay.append(raw)
        cap = self._policy.replay_window
        if (
            self._journal is not None
            and not self._journal.degraded
            and cap is not None
            and len(self._replay) > cap
        ):
            # Journal-backed eviction: the dropped prefix stays
            # recoverable on disk (append-before-broadcast upstream).
            drop = len(self._replay) - cap
            del self._replay[:drop]
            self._replay_dropped += drop
        pending = set(range(self._n))
        descriptor = None
        stamped: set[int] = set()
        while pending:
            try:
                self._poll_out()
                if descriptor is None:
                    shm_now = sorted(
                        i for i in pending if not self._degraded[i]
                    )
                    if shm_now:
                        descriptor = self._sender.descriptor(
                            batch,
                            alive=self._ring_alive(),
                            consumers=shm_now,
                        )
                        stamped = set(shm_now) if descriptor is not None else set()
                for i in sorted(pending):
                    self._put(i, descriptor if i in stamped else raw)
                    pending.discard(i)
            except _WorkerDown as down:
                # Recovery replays the window, which already includes
                # this batch -- the respawned worker is fully caught up.
                self._recover(down)
                pending.discard(down.index)
                stamped.discard(down.index)

    def _ring_alive(self):
        """The liveness callback for a blocked ring wait.

        Invoked about once a second while the ring is full: surfaces
        queued worker errors, notices silent deaths, and -- with a
        deadline armed -- escalates a wait that outlives it to the
        most-backlogged worker (the one not consuming its queue).
        """
        started = time.monotonic()

        def alive():
            self._poll_out()
            self._check_alive()
            deadline = self._policy.worker_deadline
            if deadline is not None and time.monotonic() - started > deadline:
                culprit = self._stalled_worker()
                raise _WorkerDown(
                    culprit,
                    f"worker {culprit} held the ring past the "
                    f"{deadline:.1f}s deadline (hung?)",
                    hung=True,
                )

        return alive

    def _stalled_worker(self) -> int:
        """Best guess at the hung consumer: the fullest input queue."""
        candidates = [i for i in range(self._n) if i not in self._finals]
        try:
            return max(candidates, key=lambda i: self._in_queues[i].qsize())
        except NotImplementedError:  # pragma: no cover - macOS qsize
            return candidates[0]

    def _put(self, i: int, item) -> None:
        """Bounded put with liveness polling and the deadline watchdog."""
        start = time.monotonic()
        while True:
            try:
                self._in_queues[i].put(item, timeout=0.2)
                return
            except queue_module.Full:
                self._poll_out()
                proc = self._procs[i]
                if proc is not None and not proc.is_alive():
                    self._grace_poll(i)
                    raise _WorkerDown(
                        i, f"worker {i} died (exitcode {proc.exitcode})"
                    )
                deadline = self._policy.worker_deadline
                if deadline is not None and time.monotonic() - start > deadline:
                    raise _WorkerDown(
                        i,
                        f"worker {i} consumed nothing for {deadline:.1f}s "
                        "(deadline exceeded)",
                        hung=True,
                    )

    # ------------------------------------------------------------------
    # out-queue handling
    # ------------------------------------------------------------------
    def _poll_out(self, block: bool = False, timeout: float = 0.2) -> None:
        """Drain worker messages; raise ``_WorkerDown`` on an error result.

        Messages from stale incarnations -- a straggler the kill beat
        to the queue -- are dropped on the incarnation tag.
        """
        while True:
            try:
                if block:
                    block = False
                    msg = self._out_queue.get(timeout=timeout)
                else:
                    msg = self._out_queue.get_nowait()
            except queue_module.Empty:
                return
            kind, i, incarnation = msg[0], msg[1], msg[2]
            if incarnation != self._incarnations[i]:
                continue
            if kind == "ckpt":
                self._acks[i] = (msg[3], msg[4])
            elif kind == "done":
                status, payload, tb = msg[3]
                if status == "ok":
                    self._finals[i] = payload
                else:
                    raise _WorkerDown(
                        i,
                        f"worker {i} failed: {payload!r}",
                        exc=payload,
                        tb=tb,
                    )

    def _grace_poll(self, i: int) -> None:
        """Give a cleanly-exited worker's last message time to surface.

        A worker that raised ships ``("done", ..., error)`` and exits 0;
        the message may still be in the queue feeder's pipe when the
        liveness check sees the dead process. Finding it here turns an
        anonymous "died (exitcode 0)" into the real traceback (raised
        by :meth:`_poll_out` as the better ``_WorkerDown``).
        """
        proc = self._procs[i]
        if proc is None or proc.exitcode != 0:
            return
        deadline = time.monotonic() + _CLEAN_EXIT_GRACE
        while time.monotonic() < deadline and i not in self._finals:
            self._poll_out(block=True, timeout=0.1)

    def _check_alive(self) -> None:
        """Raise ``_WorkerDown`` for any unfinished worker that died."""
        for i, proc in enumerate(self._procs):
            if proc is None or i in self._finals or proc.is_alive():
                continue
            self._grace_poll(i)
            if i in self._finals:
                continue
            raise _WorkerDown(i, f"worker {i} died (exitcode {proc.exitcode})")

    # ------------------------------------------------------------------
    # sync barrier
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Snapshot every worker at this batch boundary; clear the replay."""
        sid = self._global_batch
        self._sync_pending = sid
        pending = set(range(self._n))
        while pending:
            try:
                for i in sorted(pending):
                    self._put(i, (CTL_TAG, "sync", sid))
                    pending.discard(i)
            except _WorkerDown as down:
                # Recovery sends the pending sync ctl itself; a put the
                # failure interrupted (possibly to a *different* worker)
                # stays pending and is retried.
                self._recover(down)
                pending.discard(down.index)
        collected: dict[int, object] = {}
        progress = time.monotonic()
        while len(collected) < self._n:
            try:
                self._poll_out(block=True)
                self._check_alive()
            except _WorkerDown as down:
                self._recover(down)
                progress = time.monotonic()
                continue
            moved = False
            for i, (ack_sid, state) in list(self._acks.items()):
                if ack_sid == sid:
                    collected[i] = state
                    del self._acks[i]
                    moved = True
            if moved:
                progress = time.monotonic()
                continue
            deadline = self._policy.worker_deadline
            if deadline is not None and time.monotonic() - progress > deadline:
                missing = min(i for i in range(self._n) if i not in collected)
                self._recover(
                    _WorkerDown(
                        missing,
                        f"worker {missing} missed the sync barrier for "
                        f"{deadline:.1f}s (hung?)",
                        hung=True,
                    )
                )
                progress = time.monotonic()
        self._sync_pending = None
        self._snapshot_states = [collected[i] for i in range(self._n)]
        self._snapshot_batch = sid
        self._replay.clear()
        self._replay_dropped = 0
        if self._journal is not None:
            # Batches are appended before broadcast, so the write head
            # right now is exactly "after batch ``sid``" -- the start
            # of any journal-backed catch-up from this snapshot.
            self._snapshot_journal_pos = self._journal.position()

    # ------------------------------------------------------------------
    # finish
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Send sentinels and gather finals, recovering to the last."""
        self._sentinel_sent = True
        pending = set(range(self._n))
        while pending:
            try:
                for i in sorted(pending):
                    self._put(i, None)
                    pending.discard(i)
            except _WorkerDown as down:
                # Recovery re-sends the sentinel to the respawn; an
                # interrupted put to another worker stays pending.
                self._recover(down)
                pending.discard(down.index)
        progress = time.monotonic()
        while len(self._finals) < self._n:
            before = len(self._finals)
            try:
                self._poll_out(block=True)
                self._check_alive()
            except _WorkerDown as down:
                self._recover(down)
                progress = time.monotonic()
                continue
            if len(self._finals) > before:
                progress = time.monotonic()
                continue
            deadline = self._policy.worker_deadline
            if deadline is not None and time.monotonic() - progress > deadline:
                missing = min(
                    i for i in range(self._n) if i not in self._finals
                )
                self._recover(
                    _WorkerDown(
                        missing,
                        f"worker {missing} missed the {deadline:.1f}s "
                        "deadline finishing its shard (hung?)",
                        hung=True,
                    )
                )
                progress = time.monotonic()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, down: _WorkerDown) -> None:
        """Respawn worker ``down.index`` and catch it up, with retries.

        Loops when the fresh incarnation itself dies during catch-up
        (e.g. an ``:always`` fault re-fires on replay), so nested
        failures stay inside recovery instead of leaking the internal
        exception; each turn burns one restart until the budget is
        exhausted.
        """
        i = down.index
        if not self._recoverable:
            self._kill(i)
            if down.exc is None:
                raise WorkerCrashedError(
                    f"{down} without reporting a result"
                ) from None
            if down.tb:
                down.exc.add_note(f"worker traceback:\n{down.tb}")
            raise down.exc from None
        while True:
            if down.tb:
                self._last_tb = down.tb
            self._restarts[i] += 1
            self._kill(i)
            if self._restarts[i] > self._policy.max_restarts:
                raise RetryExhaustedError(
                    f"worker {i} failed {self._restarts[i]} time(s), "
                    f"exhausting max_restarts={self._policy.max_restarts}; "
                    f"last failure: {down}",
                    last_traceback=self._last_tb,
                ) from down.exc
            self._discard_queue(i)
            self._sender.revoke(i)
            detail = self._degrade(i, down)
            if self._replay_dropped:
                detail = (
                    f", {self._replay_dropped} of them re-read from the "
                    f"journal{detail}"
                )
            warnings.warn(
                WorkerRestartedWarning(
                    f"restarting worker {i} "
                    f"(restart {self._restarts[i]}/{self._policy.max_restarts}, "
                    f"replaying {self._replay_dropped + len(self._replay)} "
                    f"batch(es) from the "
                    f"batch-{self._snapshot_batch} snapshot{detail}): {down}"
                ),
                stacklevel=2,
            )
            delay = self._policy.backoff * (2 ** (self._restarts[i] - 1))
            if delay > 0:
                time.sleep(min(delay, self._policy.backoff_cap))
            self._incarnations[i] += 1
            self._acks.pop(i, None)
            self._spawn(i)
            try:
                if self._snapshot_states[i] is not None:
                    self._catchup_put(
                        i,
                        (
                            CTL_TAG,
                            "restore",
                            self._snapshot_states[i],
                            self._snapshot_batch,
                        ),
                    )
                for raw in self._journal_replay():
                    self._catchup_put(i, raw)
                for raw in self._replay:
                    self._catchup_put(i, raw)
                if self._sync_pending is not None:
                    self._catchup_put(i, (CTL_TAG, "sync", self._sync_pending))
                if self._sentinel_sent:
                    self._catchup_put(i, None)
                return
            except _WorkerDown as nested:
                down = self._attribute_catchup_death(nested)

    def _journal_replay(self):
        """Raw payloads for the window prefix evicted to the journal.

        Re-reads exactly the ``_replay_dropped`` batches that followed
        the last snapshot's journal position -- the records between the
        disk prefix and the in-memory ``_replay`` suffix are the same
        batches, so the ``limit`` keeps the two from overlapping. The
        journal's own appends happened *before* broadcast, so every
        evicted batch is guaranteed present.
        """
        if self._replay_dropped == 0 or self._journal is None:
            return
        self._journal.sync()
        for batch, _position in journal_records(
            self._journal.directory,
            start=self._snapshot_journal_pos,
            limit=self._replay_dropped,
        ):
            yield BatchSender.raw(batch)

    def _attribute_catchup_death(self, down: _WorkerDown) -> _WorkerDown:
        """Upgrade an anonymous catch-up death with its shipped error.

        :meth:`_catchup_put` never polls the out queue (recovery must
        not re-enter itself), so a worker that raised during replay
        surfaces as a clean-exit death with no cause attached -- while
        its ``done``-error sits in the out queue. Fish that message out
        so budget exhaustion reports the real exception and traceback.
        Another worker's error found on the way is re-queued for the
        next regular poll (out-queue handling is associative, so
        reordering is safe).
        """
        i = down.index
        proc = self._procs[i]
        if down.exc is not None or down.hung or proc is None or proc.exitcode != 0:
            return down
        found = None
        requeue = []
        deadline = time.monotonic() + _CLEAN_EXIT_GRACE
        while found is None and time.monotonic() < deadline:
            try:
                msg = self._out_queue.get(timeout=0.1)
            except queue_module.Empty:
                continue
            kind, worker, incarnation = msg[0], msg[1], msg[2]
            if incarnation != self._incarnations[worker]:
                continue
            if kind == "ckpt":
                self._acks[worker] = (msg[3], msg[4])
                continue
            status, payload, tb = msg[3]
            if status == "ok":
                self._finals[worker] = payload
            elif worker == i:
                found = _WorkerDown(
                    i, f"worker {i} failed: {payload!r}", exc=payload, tb=tb
                )
            else:
                requeue.append(msg)
        for msg in requeue:
            self._out_queue.put(msg)
        return found or down

    def _degrade(self, i: int, down: _WorkerDown) -> str:
        """Apply layer degradation for the respawn; describe it."""
        shm_implicated = _implicates_shm(down)
        if (
            not self._degraded[i]
            and self._sender.mode == "shm"
            and (shm_implicated or self._restarts[i] >= 2)
        ):
            self._degraded[i] = True
            why = (
                "shared memory implicated"
                if shm_implicated
                else "repeated failures"
            )
            return f"; {why}, degrading it to queue payloads"
        return ""

    def _catchup_put(self, i: int, item) -> None:
        """Put to a freshly respawned worker (own liveness + deadline only).

        Unlike :meth:`_put` this never polls the out queue: recovery
        must not re-enter itself on *another* worker's error mid
        catch-up -- that error is simply picked up by the next regular
        poll once this worker is whole again.
        """
        start = time.monotonic()
        while True:
            try:
                self._in_queues[i].put(item, timeout=0.2)
                return
            except queue_module.Full:
                proc = self._procs[i]
                if proc is not None and not proc.is_alive():
                    raise _WorkerDown(
                        i,
                        f"worker {i} died again during catch-up "
                        f"(exitcode {proc.exitcode})",
                    )
                deadline = self._policy.worker_deadline
                if deadline is not None and time.monotonic() - start > deadline:
                    raise _WorkerDown(
                        i,
                        f"worker {i} hung again during catch-up "
                        f"({deadline:.1f}s deadline)",
                        hung=True,
                    )

    # ------------------------------------------------------------------
    # process plumbing
    # ------------------------------------------------------------------
    def _spawn(self, i: int) -> None:
        client = None if self._degraded[i] else self._sender.client(i)
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                self._in_queues[i],
                self._out_queue,
                i,
                self._incarnations[i],
                self._programs[i],
                client,
                self._plan,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[i] = proc

    def _kill(self, i: int) -> None:
        proc = self._procs[i]
        if proc is None:
            return
        self._procs[i] = None
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
        proc.join(timeout=10.0)

    def _discard_queue(self, i: int) -> None:
        """Replace the worker's queue wholesale (no drain races).

        Whatever the dead incarnation left unconsumed -- batches,
        control messages, ring descriptors -- is abandoned with the old
        queue; descriptors are reclaimed by the revoke that follows.
        """
        old = self._in_queues[i]
        self._in_queues[i] = self._ctx.Queue(maxsize=self._queue_depth)
        try:
            old.cancel_join_thread()
            old.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def _shutdown(self, failed: bool) -> None:
        """Reap every worker, then unlink the ring.

        After a clean finish every worker has shipped its final and is
        exiting, so it gets time to go; after a failure the rest of the
        run is moot and the survivors are killed at once. The ring is
        closed last: unlinking frees the blocks only once the last
        worker detaches, and every named segment is removed either way.
        """
        for i, proc in enumerate(self._procs):
            if proc is not None and not failed:
                proc.join(timeout=5.0)
            self._kill(i)
        self._sender.close()
        for q in self._in_queues:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


def _implicates_shm(down: _WorkerDown) -> bool:
    """Whether the crash evidence implicates the shared-memory layer."""
    text = " ".join(
        part
        for part in (down.tb, repr(down.exc) if down.exc else "", str(down))
        if part
    ).lower()
    return any(
        marker in text
        for marker in ("shared_memory", "sharedmemory", "/dev/shm", "shmring")
    )
