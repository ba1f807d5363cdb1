"""Multicore sharding for *any* registered estimator pool.

The estimator dimension of every algorithm in the paper is
embarrassingly parallel: each estimator observes the whole stream
independently, so a pool of ``r`` splits into ``k`` shards that run on
separate cores over the same edges and merge by concatenation at the
end (the contract :class:`~repro.streaming.protocol.CheckpointableEstimator`
makes first-class -- the same "independent sub-estimators over one
stream" structure Pagh-Tsourakakis colorful sharding exploits).

:class:`ShardedPipeline` generalizes the counter-only
:class:`~repro.core.parallel.ParallelTriangleCounter` to the whole
estimator registry: the parent reads the stream **once** through an
:class:`~repro.streaming.source.EdgeSource` and fans each columnar
batch out to every worker's bounded queue; each worker runs its shard
of every requested estimator (built by name from
:data:`~repro.streaming.registry.ESTIMATORS`) and ships the state
dicts back; the parent restores them through ``load_state_dict`` and
concatenates through ``merge``, producing estimators that answer
queries exactly as a single-process pool of the same total size would.

Seed semantics: worker ``w``'s shard of estimator ``name`` is seeded
from ``SeedSequence([seed, crc32(name), SHARD_DOMAIN, w + 1])`` (see
:func:`derive_shard_seed`) -- deterministic, collision-resistant, and
independent across estimators, workers, and the single-process
fan-out's own seed derivation. A sharded run is
therefore reproducible under a fixed seed and *statistically*
equivalent to -- though not bit-identical with -- the single-process
fan-out, whose per-estimator seeds come from
:func:`~repro.streaming.pipeline.derive_seed`. Estimators whose pool is
smaller than the worker count (e.g. the deterministic ``exact``
baseline with its pool of one) simply run on fewer workers.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .batch import EdgeBatch
from .journal import DEFAULT_SEGMENT_BYTES, JournalWriter
from .pipeline import EstimatorReport, PipelineReport
from .registry import ESTIMATORS, _default_report
from .shm import BatchSender, TransportFeed, check_procs_alive
from .source import as_source

__all__ = ["ShardedPipeline", "derive_shard_seed", "shard_sizes"]

#: Batches in flight per worker queue (see ``core.parallel``).
_QUEUE_DEPTH = 4

#: Domain-separation key for shard seeds. SeedSequence zero-pads its
#: entropy, so ``[seed, crc, 0]`` would collide with the single-process
#: ``derive_seed``'s ``[seed, crc]`` -- worker 0's shard would run the
#: exact random stream of the full single-process pool. The marker (and
#: 1-based worker index) keeps the sharded domain disjoint.
_SHARD_DOMAIN = 0x53484152  # "SHAR"


def shard_sizes(total: int, workers: int) -> list[int]:
    """Split a pool of ``total`` estimators as evenly as possible."""
    if total < 1:
        raise InvalidParameterError(f"pool size must be >= 1, got {total}")
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    base, extra = divmod(total, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def derive_shard_seed(seed: int | None, name: str, worker: int) -> int | None:
    """The seed for worker ``worker``'s shard of estimator ``name``.

    ``None`` stays ``None`` (OS entropy per worker). Otherwise the seed
    is drawn through :class:`numpy.random.SeedSequence` keyed on the
    root seed, the estimator name's CRC-32, a shard-domain marker, and
    the worker index -- the sharded analogue of
    :func:`~repro.streaming.pipeline.derive_seed`, so shards of one
    estimator never run correlated reservoirs, neither do shards of
    different estimators, and no shard shares a stream with the
    single-process fan-out's pools.
    """
    if seed is None:
        return None
    entropy = np.random.SeedSequence(
        [seed, zlib.crc32(name.encode("utf-8")), _SHARD_DOMAIN, worker + 1]
    )
    return int(entropy.generate_state(1, np.uint32)[0])


def _build_estimators(specs: Sequence[Mapping[str, Any]]) -> list[tuple[str, Any]]:
    """Instantiate one worker's shard of every assigned estimator."""
    pairs = []
    for spec in specs:
        registered = ESTIMATORS.get(spec["name"])
        estimator = registered.create(
            spec["num_estimators"], spec["seed"], **spec["options"]
        )
        pairs.append((spec["name"], estimator))
    return pairs


def _consume(
    pairs: Sequence[tuple[str, Any]], batches: Iterable
) -> tuple[int, int, dict[str, float]]:
    """Feed ``batches`` to every estimator (the worker-side stream loop).

    The same dispatch as :meth:`~repro.streaming.pipeline.Pipeline.run`
    -- shared prepared batch, shared per-batch index (with the
    unique-vertex/edge-key views the output-sensitive engines intersect
    against their watch indexes, one precomputation for the whole
    worker pool), per-estimator timings -- minus reporting: workers
    ship state, never results, so reporters that consume randomness
    (e.g. the sampler's release draw) only ever run on the merged
    estimators in the parent.
    """
    fast_paths = [getattr(est, "update_prepared", None) for _, est in pairs]
    want_context = any(
        fast is not None and getattr(est, "uses_batch_context", True)
        for (_, est), fast in zip(pairs, fast_paths)
    )
    insert_only = [
        name
        for name, est in pairs
        if not getattr(est, "supports_deletions", False)
    ]
    timings = {name: 0.0 for name, _ in pairs}
    edges = 0
    batch_count = 0
    for batch in batches:
        if isinstance(batch, np.ndarray):
            batch = EdgeBatch.from_wire(batch)
        prepared = batch if isinstance(batch, EdgeBatch) else None
        if (
            insert_only
            and prepared is not None
            and prepared.signs is not None
        ):
            raise InvalidParameterError(
                "signed batch reached insert-only estimator(s) "
                f"{insert_only}; deletions would be silently counted "
                "as insertions"
            )
        if prepared is not None and want_context:
            prepared.context  # noqa: B018 -- build the shared index once
        edges += len(batch)
        batch_count += 1
        for (name, estimator), fast in zip(pairs, fast_paths):
            t0 = time.perf_counter()
            if fast is not None and prepared is not None:
                fast(prepared)
            else:
                estimator.update_batch(batch)
            timings[name] += time.perf_counter() - t0
    return edges, batch_count, timings


def _journaled(batches: Iterable, journal: JournalWriter) -> Iterable:
    """Append every batch to ``journal`` before it fans out to workers.

    The sharded analogue of the single-process pipeline's
    append-before-deliver: a batch is durably journaled before any
    worker queue (or the supervisor's replay window) sees it, so the
    journal is always a superset of what the workers consumed.
    """
    for batch in batches:
        if not isinstance(batch, EdgeBatch):
            raise InvalidParameterError(
                "journaling requires columnar batches; the source yielded "
                f"{type(batch).__name__}"
            )
        journal.append(batch)
        yield batch


def _timed_pulls(batches: Iterable, elapsed: list) -> Iterable:
    """Yield from ``batches``, adding each pull's wall time to ``elapsed[0]``.

    Wraps the parent's one stream read (journal appends included), so
    a sharded report's ``io_seconds`` is the same stream-side share a
    single-process :class:`~repro.streaming.pipeline.Pipeline` reports.
    """
    it = iter(batches)
    while True:
        t0 = time.perf_counter()
        batch = next(it, None)
        elapsed[0] += time.perf_counter() - t0
        if batch is None:
            return
        yield batch


def _worker_loop(in_queue, out_queue, index: int, specs, shm_client=None) -> None:
    """Process one worker's shards; ship back ``{name: state_dict}``.

    Mirrors ``core.parallel._worker_loop``: on an exception the input
    queue is drained to its sentinel first (the parent writes to
    bounded queues, and shared-memory descriptors must have their ring
    slots released), and the error ships back in the state's place.
    The original traceback text always rides along as the result's
    third element -- ``format_exc`` is captured *before* the pickle
    probe, so even an unpicklable exception reports its own failure
    site rather than the pickling error's.
    """
    import pickle
    import traceback

    feed = TransportFeed(in_queue, shm_client)
    try:
        pairs = _build_estimators(specs)
        _, _, timings = _consume(pairs, feed)
        states = {name: est.state_dict() for name, est in pairs}
        result = ("ok", states, timings)
    except Exception as exc:
        tb = traceback.format_exc()
        feed.drain()
        try:
            pickle.dumps(exc)
            result = ("error", exc, tb)
        except Exception:  # pragma: no cover - unpicklable exception
            result = ("error", RuntimeError(tb), tb)
    finally:
        if shm_client is not None:
            shm_client.close()
    out_queue.put((index, result))


class ShardedPipeline:
    """Fan one stream read out to sharded pools across worker processes.

    Parameters
    ----------
    names:
        Estimator names from :data:`~repro.streaming.registry.ESTIMATORS`
        (the same choices as ``Pipeline.from_registry`` and the CLI).
    workers:
        Worker processes; each runs ``~r/workers`` estimators of every
        pool (estimators whose pool is smaller run on fewer workers).
    num_estimators:
        Total pool size per estimator; ``None`` uses each spec's
        default -- the same totals a single-process fan-out would use.
    seed:
        Root seed; shards draw :func:`derive_shard_seed` children.
    options:
        Per-name factory keyword overrides, as in
        :meth:`~repro.streaming.pipeline.Pipeline.from_registry`.
    transport:
        How batches reach the workers: ``"shm"`` (zero-copy
        shared-memory ring), ``"queue"`` (per-worker pickled copies),
        or ``"auto"`` (shm when the platform supports it). Results are
        bit-identical across transports.
    max_restarts:
        Per-worker respawn budget. ``0`` (the default) keeps the legacy
        fail-fast path: a dead worker aborts the run. Any other value
        routes the run through the self-healing
        :class:`~repro.streaming.supervisor.ShardSupervisor` --
        snapshots, bounded replay, restarts -- and stays bit-identical
        to an uninterrupted run under a fixed seed.
    worker_deadline:
        Seconds of no progress before a live-but-stuck worker is
        treated as hung and recovered (``None`` disables the watchdog).
        Setting it implies the supervised path.
    snapshot_every:
        Supervised-path snapshot cadence in batches (bounds the replay
        window recovery must re-feed).
    restart_backoff:
        First respawn delay in seconds, doubled per consecutive restart
        of the same worker.
    replay_window:
        Cap on the supervised path's in-memory replay buffer, in
        batches. Only honored when the run is journaled (``run`` with
        ``journal_dir``): excess batches are dropped from memory and
        recovery re-reads them from the journal. ``None`` (the
        default) keeps the buffer unbounded, the only safe choice
        without a journal to fall back on.
    fault_plan:
        A :class:`~repro.streaming.faults.FaultPlan` injected into the
        run (tests and chaos drills); implies the supervised path.
        ``None`` defers to the ``REPRO_FAULT_PLAN`` environment plan,
        which does *not* by itself change the execution path.
    """

    def __init__(
        self,
        names: Iterable[str],
        *,
        workers: int = 2,
        num_estimators: int | None = None,
        seed: int | None = None,
        options: Mapping[str, Mapping[str, Any]] | None = None,
        transport: str = "auto",
        max_restarts: int = 0,
        worker_deadline: float | None = None,
        snapshot_every: int = 32,
        restart_backoff: float = 0.1,
        replay_window: int | None = None,
        fault_plan=None,
    ) -> None:
        self.names = list(names)
        if not self.names:
            raise InvalidParameterError("pipeline needs at least one estimator")
        if len(set(self.names)) != len(self.names):
            raise InvalidParameterError(f"duplicate estimator names: {self.names}")
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        for name in self.names:
            ESTIMATORS.get(name)  # fail fast on unknown names
        if transport.strip().lower() not in ("auto", "shm", "queue"):
            raise InvalidParameterError(
                f"unknown transport {transport!r}; choose shm, queue, or auto"
            )
        if max_restarts < 0:
            raise InvalidParameterError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if worker_deadline is not None and worker_deadline <= 0:
            raise InvalidParameterError(
                f"worker_deadline must be positive, got {worker_deadline}"
            )
        if snapshot_every < 0:
            raise InvalidParameterError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        if replay_window is not None and replay_window < 0:
            raise InvalidParameterError(
                f"replay_window must be >= 0, got {replay_window}"
            )
        self.workers = workers
        self.num_estimators = num_estimators
        self.seed = seed
        self.transport = transport
        self.max_restarts = max_restarts
        self.worker_deadline = worker_deadline
        self.snapshot_every = snapshot_every
        self.restart_backoff = restart_backoff
        self.replay_window = replay_window
        self.fault_plan = fault_plan
        self.last_restarts: list[int] = []
        self._options = {k: dict(v) for k, v in (options or {}).items()}
        self._merged: list[tuple[str, Any]] | None = None

    @property
    def _supervised(self) -> bool:
        return (
            self.max_restarts > 0
            or self.worker_deadline is not None
            or self.fault_plan is not None
        )

    # ------------------------------------------------------------------
    # plan
    # ------------------------------------------------------------------
    def _pool_size(self, name: str) -> int:
        default = ESTIMATORS.get(name).default_estimators
        if default == 1:
            # A spec with a declared pool of one (the deterministic
            # exact baseline) gains nothing from sharding: running
            # copies on several workers would just duplicate work.
            return 1
        if self.num_estimators is not None:
            return self.num_estimators
        return default

    def worker_specs(self) -> list[list[dict[str, Any]]]:
        """The per-worker build plan: which shard of which pool, seeded how.

        Exposed so tests (and curious operators) can reproduce a
        sharded run in a single process and verify the merge is
        bit-identical to the multiprocess execution.
        """
        shards = {
            name: shard_sizes(self._pool_size(name), self.workers)
            for name in self.names
        }
        return [
            [
                {
                    "name": name,
                    "num_estimators": shards[name][w],
                    "seed": derive_shard_seed(self.seed, name, w),
                    "options": dict(self._options.get(name, {})),
                }
                for name in self.names
                if shards[name][w] > 0
            ]
            for w in range(self.workers)
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        source,
        *,
        batch_size: int = 65_536,
        journal_dir=None,
        journal_fsync: str = "batch",
        journal_max_segment: int = DEFAULT_SEGMENT_BYTES,
    ) -> PipelineReport:
        """Shard every pool across the workers over one stream read.

        ``source`` is anything :func:`~repro.streaming.source.as_source`
        accepts; the parent reads it exactly once. Returns the same
        :class:`~repro.streaming.pipeline.PipelineReport` a
        single-process run produces (per-estimator ``seconds`` is the
        maximum across workers -- the parallel wall-clock share).

        ``journal_dir`` arms the durable ingest journal: the parent
        appends every batch *before* fanning it out, so the on-disk
        journal is always a superset of what any worker consumed, and
        the supervised path can cap its in-memory replay window
        (``replay_window``) by re-reading dropped batches from disk
        during recovery.
        """
        specs = self.worker_specs()
        source = as_source(source)
        # Fail fast on estimators that cannot ship state back: a probe
        # instance is cheap, and discovering the problem inside a
        # worker would otherwise surface as a shipped-back error after
        # the whole stream was read. state_dict is *called*, not
        # hasattr-checked: delegating wrappers (TriangleCounter over a
        # non-checkpointable engine) expose the method and raise only
        # when it runs. The same probes answer the turnstile capability
        # check: a signed source aimed at any insert-only estimator is
        # rejected here, before a worker is spawned or a byte streamed.
        insert_only = []
        for name in self.names:
            probe = ESTIMATORS.get(name).create(
                1, None, **self._options.get(name, {})
            )
            for method in ("state_dict", "load_state_dict", "merge"):
                if not hasattr(probe, method):
                    raise InvalidParameterError(
                        f"estimator {name!r} does not support {method}(); "
                        "it cannot be sharded across workers"
                    )
            try:
                probe.state_dict()
            except InvalidParameterError as exc:
                raise InvalidParameterError(
                    f"estimator {name!r} cannot be sharded across workers: "
                    f"{exc}"
                ) from exc
            if not getattr(probe, "supports_deletions", False):
                insert_only.append(name)
        if getattr(source, "signed", False) and insert_only:
            raise InvalidParameterError(
                "source is a signed (turnstile) stream, but estimator(s) "
                f"{insert_only} are insert-only and would silently count "
                "deletions as insertions; use deletion-capable estimators "
                "('triest-fd', 'dynamic-sampler') for signed input"
            )
        journal = None
        if journal_dir is not None:
            journal = JournalWriter(
                journal_dir,
                fsync=journal_fsync,
                max_segment_bytes=journal_max_segment,
            )
        io_seconds = [0.0]
        start = time.perf_counter()
        try:
            stream = source.batches(batch_size)
            if journal is not None:
                stream = _journaled(stream, journal)
            stream = _timed_pulls(stream, io_seconds)
            if self.workers == 1:
                pairs = _build_estimators(specs[0])
                edges, batches, timings = _consume(pairs, stream)
                merged_pairs = pairs
                merged_timings = timings
            else:
                if self._supervised:
                    runner = self._run_supervised
                else:
                    runner = self._run_workers
                edges, batches, worker_states, worker_timings = runner(
                    specs, stream, batch_size, journal
                )
                merged_pairs = self._merge_states(worker_states)
                merged_timings = {
                    name: max(
                        (t.get(name, 0.0) for t in worker_timings), default=0.0
                    )
                    for name in self.names
                }
        finally:
            if journal is not None:
                journal.close()
        self._merged = merged_pairs
        total = time.perf_counter() - start
        report = PipelineReport(
            edges=edges, batches=batches, seconds=total, io_seconds=io_seconds[0]
        )
        for name, estimator in merged_pairs:
            reporter = (
                ESTIMATORS.get(name).report if name in ESTIMATORS else _default_report
            )
            report.estimators.append(
                EstimatorReport(
                    name=name,
                    seconds=merged_timings.get(name, 0.0),
                    results=reporter(estimator),
                )
            )
        return report

    def _run_workers(self, specs, stream, batch_size, journal=None):
        """The multiprocess path: bounded queues, one stream read.

        ``journal`` is unused here -- appends already happened upstream
        in the :func:`_journaled` wrapper around ``stream`` -- but rides
        the shared runner signature with :meth:`_run_supervised`, which
        needs the writer for recovery.
        """
        import multiprocessing
        import queue as queue_module

        from ..core.parallel import _collect_results, _put_alive

        ctx = multiprocessing.get_context()
        sender = BatchSender(
            ctx,
            transport=self.transport,
            consumers=self.workers,
            batch_size=batch_size,
            queue_depth=_QUEUE_DEPTH,
        )
        in_queues = [ctx.Queue(maxsize=_QUEUE_DEPTH) for _ in range(self.workers)]
        out_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_worker_loop,
                args=(in_queues[i], out_queue, i, specs[i], sender.client(i)),
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for proc in procs:
            proc.start()
        edges = 0
        batches = 0
        try:
            try:
                for batch in stream:
                    payload = sender.payload(
                        batch, lambda: check_procs_alive(procs)
                    )
                    edges += len(batch)
                    batches += 1
                    for i, queue in enumerate(in_queues):
                        _put_alive(queue, payload, procs[i], i)
            finally:
                # Always send the sentinel, even when the source raises
                # mid-stream -- workers block on get otherwise.
                for queue in in_queues:
                    try:
                        queue.put(None, timeout=5.0)
                    except queue_module.Full:  # pragma: no cover
                        pass
            indexed = _collect_results(out_queue, procs)
        finally:
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
            # After the join: unlinking frees the blocks only once the
            # last worker detaches, and a crash path (terminate above)
            # must still remove every named segment.
            sender.close()
        worker_states: list[dict] = []
        worker_timings: list[dict] = []
        for _, result in sorted(indexed):
            status, payload, extra = result
            if status == "error":
                if extra:
                    payload.add_note(f"worker traceback:\n{extra}")
                raise payload
            worker_states.append(payload)
            worker_timings.append(extra)
        return edges, batches, worker_states, worker_timings

    def _run_supervised(self, specs, stream, batch_size, journal=None):
        """The self-healing path: snapshots, replay, bounded respawns.

        Same contract as :meth:`_run_workers` -- one stream read, the
        same merged result bit for bit -- but worker crashes and hangs
        are recovered (up to ``max_restarts`` each) instead of aborting
        the run. With a ``journal``, the supervisor's replay window may
        be capped (``replay_window``): catch-up re-reads the dropped
        prefix from disk. See :mod:`repro.streaming.supervisor`.
        """
        import multiprocessing

        from .supervisor import (
            EstimatorShardProgram,
            ShardSupervisor,
            Supervision,
        )

        ctx = multiprocessing.get_context()
        supervisor = ShardSupervisor(
            ctx,
            [EstimatorShardProgram(spec) for spec in specs],
            transport=self.transport,
            batch_size=batch_size,
            queue_depth=_QUEUE_DEPTH,
            policy=Supervision(
                max_restarts=self.max_restarts,
                worker_deadline=self.worker_deadline,
                snapshot_every=self.snapshot_every,
                backoff=self.restart_backoff,
                replay_window=self.replay_window,
            ),
            fault_plan=self.fault_plan,
            journal=journal,
        )
        counts = [0, 0]

        def counted(batches):
            for batch in batches:
                counts[0] += len(batch)
                counts[1] += 1
                yield batch

        finals = supervisor.run(counted(stream))
        self.last_restarts = supervisor.restarts
        worker_states = [states for states, _ in finals]
        worker_timings = [timings for _, timings in finals]
        return counts[0], counts[1], worker_states, worker_timings

    def _merge_states(self, worker_states: list[dict]) -> list[tuple[str, Any]]:
        """Restore worker shards and concatenate them per estimator."""
        merged_pairs = []
        for name in self.names:
            registered = ESTIMATORS.get(name)
            options = dict(self._options.get(name, {}))
            merged = None
            for states in worker_states:
                if name not in states:
                    continue  # this worker held no shard of the pool
                shard = registered.create(1, None, **options)
                shard.load_state_dict(states[name])
                if merged is None:
                    merged = shard
                else:
                    merged.merge(shard)
            if merged is None:  # pragma: no cover - defensive
                raise InvalidParameterError(
                    f"no worker returned state for estimator {name!r}"
                )
            merged_pairs.append((name, merged))
        return merged_pairs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimator(self, name: str) -> Any:
        """The merged estimator after :meth:`run` (for further queries)."""
        if self._merged is None:
            raise InvalidParameterError("call run() first")
        for pair_name, estimator in self._merged:
            if pair_name == name:
                return estimator
        raise KeyError(name)
