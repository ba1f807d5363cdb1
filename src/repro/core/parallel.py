"""Multicore triangle counting by estimator-pool sharding.

The paper's conclusion notes that "neighborhood sampling is amenable to
parallelization" (their follow-up implements a cache-efficient multicore
version [20]). The estimator dimension is embarrassingly parallel: every
estimator observes the whole stream independently, so ``r`` estimators
split into ``k`` pools of ``r/k``, each pool runs on its own core over
the same edges, and the final estimate is the pooled mean.

:class:`ParallelTriangleCounter` is the counter-only front-end to the
one multiprocess executor,
:class:`~repro.streaming.supervisor.ShardExecutor`: it plans one
``count`` shard per worker and the executor reads the stream **once**,
fanning each batch out to long-lived workers (zero-copy shared memory
or pickled arrays), so peak memory is O(workers x batch) rather than a
stream copy per worker. Worker seeds are spawned through
:class:`numpy.random.SeedSequence`, whose splitting is
collision-resistant by construction -- and ``seed=None`` means fresh OS
entropy per run. Workers return their estimator state; the parent
concatenates the pools through ``load_state_dict``/``merge`` into a
:class:`~repro.core.vectorized.VectorizedTriangleCounter` that owns a
dedicated spawn child as its generator.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from ..streaming.pipeline import refuse_signed
from ..streaming.source import as_source
from ..streaming.supervisor import (
    EstimatorShardProgram,
    ShardExecutor,
    Supervision,
)
from .vectorized import VectorizedTriangleCounter

__all__ = ["ParallelTriangleCounter", "count_triangles_parallel"]


class ParallelTriangleCounter:
    """Parallel counting: shard estimators across processes, stream once.

    Parameters
    ----------
    num_estimators:
        Total pool size ``r`` (split as evenly as possible).
    workers:
        Number of worker processes.
    seed:
        Root seed; worker pools run on independent
        ``SeedSequence.spawn`` children. ``None`` draws OS entropy.
    transport:
        How batches reach the workers: ``"shm"`` (one copy into a
        shared-memory ring, zero-copy worker views), ``"queue"``
        (per-worker pickled copies), or ``"auto"`` (shm when the
        platform supports it). Results are bit-identical across
        transports.
    max_restarts:
        Per-worker respawn budget. ``0`` (the default) fails the run on
        the first worker death; any other value recovers crashed and
        hung workers (snapshots, bounded replay, restarts),
        bit-identical to an uninterrupted run under a fixed seed.
    worker_deadline:
        Seconds of no progress before a live-but-stuck worker is
        treated as hung (``None`` disables the watchdog).
    snapshot_every:
        Snapshot cadence in batches when ``max_restarts > 0``.
    restart_backoff:
        First respawn delay, doubled per consecutive restart.
    fault_plan:
        A :class:`~repro.streaming.faults.FaultPlan` injected into the
        run (``None`` defers to the ``REPRO_FAULT_PLAN`` environment
        plan).
    """

    def __init__(
        self,
        num_estimators: int,
        *,
        workers: int = 2,
        seed: int | None = None,
        transport: str = "auto",
        max_restarts: int = 0,
        worker_deadline: float | None = None,
        snapshot_every: int = 32,
        restart_backoff: float = 0.1,
        fault_plan=None,
    ) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self._executor = ShardExecutor(
            transport,
            Supervision(
                max_restarts=max_restarts,
                worker_deadline=worker_deadline,
                snapshot_every=snapshot_every,
                backoff=restart_backoff,
            ),
            fault_plan,
        )
        self.num_estimators = num_estimators
        self.workers = min(workers, num_estimators)
        self.seed = seed
        self.last_restarts: list[int] = []
        self._merged: VectorizedTriangleCounter | None = None

    def _shard_sizes(self) -> list[int]:
        from ..streaming.sharded import shard_sizes

        return shard_sizes(self.num_estimators, self.workers)

    def count(self, edges, *, batch_size: int = 65_536) -> float:
        """Process the whole stream across workers; return the estimate.

        ``edges`` is anything :func:`~repro.streaming.source.as_source`
        accepts -- an in-memory sequence, a file path, an
        ``EdgeSource``, or a one-shot generator (the stream is read
        exactly once either way).
        """
        # workers + 1 children: one per worker pool plus a dedicated
        # child for the merged counter's fresh generator. Reusing the
        # root seed for the merged state would correlate its future
        # draws with the sequences the workers were spawned from.
        seed_seqs = np.random.SeedSequence(self.seed).spawn(self.workers + 1)
        programs = [
            EstimatorShardProgram(
                [{"name": "count", "num_estimators": size, "seed": seed_seq, "options": {}}]
            )
            for size, seed_seq in zip(self._shard_sizes(), seed_seqs)
        ]
        source = as_source(edges)
        refuse_signed(source, ["count"])
        run = self._executor.run(programs, source, batch_size=batch_size)
        self.last_restarts = run.restarts
        states = [final[0]["count"] for final in run.finals]
        merged = VectorizedTriangleCounter(1, seed=seed_seqs[-1])
        merged.load_state_dict({k: v for k, v in states[0].items() if k != "rng"})
        for state in states[1:]:
            shard = VectorizedTriangleCounter(1)
            shard.load_state_dict(state)
            merged.merge(shard)
        self._merged = merged
        return merged.estimate()

    @property
    def merged(self) -> VectorizedTriangleCounter:
        """The merged counter after :meth:`count` (for further queries)."""
        if self._merged is None:
            raise InvalidParameterError("call count() first")
        return self._merged


def count_triangles_parallel(
    edges,
    num_estimators: int,
    *,
    workers: int = 2,
    seed: int | None = None,
    batch_size: int = 65_536,
) -> float:
    """One-call parallel triangle estimate over any edge source."""
    counter = ParallelTriangleCounter(num_estimators, workers=workers, seed=seed)
    return counter.count(edges, batch_size=batch_size)
