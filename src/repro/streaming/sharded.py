"""Multicore sharding for *any* registered estimator pool.

The estimator dimension of every algorithm in the paper is
embarrassingly parallel: each estimator observes the whole stream
independently, so a pool of ``r`` splits into ``k`` shards that run on
separate cores over the same edges and merge by concatenation at the
end (the contract :class:`~repro.streaming.protocol.CheckpointableEstimator`
makes first-class -- the same "independent sub-estimators over one
stream" structure Pagh-Tsourakakis colorful sharding exploits).

:class:`ShardedPipeline` shards the whole estimator registry: it
plans one :class:`~repro.streaming.supervisor.EstimatorShardProgram`
per worker (its shard of every requested estimator, built by name from
:data:`~repro.streaming.registry.ESTIMATORS`) and hands the plan to the
one multiprocess executor,
:class:`~repro.streaming.supervisor.ShardExecutor`, which reads the
stream **once** and fans each columnar batch out to every worker. The
workers ship their state dicts back; the parent restores them through
``load_state_dict`` and concatenates through ``merge``, producing
estimators that answer queries exactly as a single-process pool of the
same total size would.

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
from typing import Any, Iterable, Mapping

import numpy as np

from ..errors import InvalidParameterError
from .journal import DEFAULT_SEGMENT_BYTES
from .pipeline import EstimatorReport, PipelineReport
from .registry import ESTIMATORS, _default_report
from .source import as_source
from .supervisor import (
    EstimatorShardProgram,
    ShardExecutor,
    Supervision,
)

__all__ = ["ShardedPipeline", "derive_shard_seed", "shard_sizes"]

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
        Per-worker respawn budget. ``0`` (the default) fails the run on
        the first worker death; any other value recovers crashed and
        hung workers (snapshots, bounded replay, restarts), bit-identical
        to an uninterrupted run under a fixed seed. Either way the run
        goes through :class:`~repro.streaming.supervisor.ShardExecutor`.
    worker_deadline:
        Seconds of no progress before a live-but-stuck worker is
        treated as hung (``None`` disables the watchdog).
    snapshot_every:
        Snapshot cadence in batches when ``max_restarts > 0`` (bounds
        the replay window recovery must re-feed).
    restart_backoff:
        First respawn delay in seconds, doubled per consecutive restart
        of the same worker.
    replay_window:
        Cap on the in-memory replay buffer, in batches. Only honored
        when the run is journaled (``run`` with ``journal_dir``):
        excess batches are dropped from memory and recovery re-reads
        them from the journal. ``None`` (the default) keeps the buffer
        unbounded, the only safe choice without a journal to fall back
        on.
    fault_plan:
        A :class:`~repro.streaming.faults.FaultPlan` injected into the
        run (tests and chaos drills). ``None`` defers to the
        ``REPRO_FAULT_PLAN`` environment plan.
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
        self._executor = ShardExecutor(
            transport,
            Supervision(
                max_restarts=max_restarts,
                worker_deadline=worker_deadline,
                snapshot_every=snapshot_every,
                backoff=restart_backoff,
                replay_window=replay_window,
            ),
            fault_plan,
        )
        self.workers = workers
        self.num_estimators = num_estimators
        self.seed = seed
        self.last_restarts: list[int] = []
        self._options = {k: dict(v) for k, v in (options or {}).items()}
        self._merged: list[tuple[str, Any]] | None = None

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
        recovery can cap its in-memory replay window
        (``replay_window``) by re-reading dropped batches from disk.
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
        start = time.perf_counter()
        run = self._executor.run(
            [EstimatorShardProgram(worker) for worker in specs],
            source,
            batch_size=batch_size,
            journal_dir=journal_dir,
            journal_fsync=journal_fsync,
            journal_max_segment=journal_max_segment,
        )
        self.last_restarts = run.restarts
        worker_states = [states for states, _ in run.finals]
        merged_pairs = self._merge_states(worker_states)
        self._merged = merged_pairs
        report = PipelineReport(
            edges=run.edges,
            batches=run.batches,
            seconds=time.perf_counter() - start,
            io_seconds=run.io_seconds,
        )
        for name, estimator in merged_pairs:
            reporter = (
                ESTIMATORS.get(name).report if name in ESTIMATORS else _default_report
            )
            # The parallel wall-clock share: the slowest worker's time.
            seconds = max(timings.get(name, 0.0) for _, timings in run.finals)
            report.estimators.append(
                EstimatorReport(
                    name=name, seconds=seconds, results=reporter(estimator)
                )
            )
        return report

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
