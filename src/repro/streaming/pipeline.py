"""Single-pass fan-out: drive many estimators over one stream read.

The point of one-pass algorithms is that the stream is the expensive
resource. :class:`Pipeline` reads an :class:`~repro.streaming.source.EdgeSource`
exactly once and feeds every registered estimator the same batches, so
one scan of a 100M-edge file produces a triangle count, a transitivity
coefficient, uniform triangle samples, and windowed estimates
simultaneously -- each with its own timing in the structured
:class:`PipelineReport`.

Estimators come either pre-built (any object satisfying
:class:`~repro.streaming.protocol.StreamingEstimator`) or by name from
the :data:`~repro.streaming.registry.ESTIMATORS` registry via
:meth:`Pipeline.from_registry`. Per-estimator seeds are derived
deterministically from the root seed and the estimator *name* (not the
position). The neighborhood-sampling estimators (``count``,
``transitivity``, ``wedges``, ``sample``) that ask for one pool size
share one pool (:func:`build_estimators`), so the equivalence the test
suite asserts holds per pool, not per name: a pool is bit-identical to
the one its best-ranked member builds alone with :func:`derive_seed`'s
output, and every other estimator is bit-identical to running alone.

The estimators are query-at-any-time, and so is the pipeline:
:meth:`Pipeline.snapshots` is the *live* surface -- a generator that
yields a :class:`PipelineSnapshot` of every estimator's current results
every ``k`` batches while the stream keeps flowing (the ``repro watch``
subcommand and the follow-mode sources build on it). :meth:`Pipeline.run`
and :meth:`Pipeline.snapshots` share one driver (:meth:`Pipeline._drive`):
``run`` simply drains the snapshot stream and returns the final report,
so the two are bit-identical by construction.
"""

from __future__ import annotations

import os
import pickle
import signal as signal_module
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import CheckpointWriteWarning, InvalidParameterError
from .batch import EdgeBatch
from .checkpoint import (
    Checkpoint,
    fingerprints_compatible,
    load_checkpoint,
    save_checkpoint,
    source_fingerprint,
)
from .journal import DEFAULT_SEGMENT_BYTES, JournalWriter, journal_records
from .registry import ESTIMATORS, _default_report
from .source import EdgeSource, as_source

__all__ = [
    "FanOut",
    "build_estimators",
    "refuse_signed",
    "shared_pools",
    "Pipeline",
    "PipelineReport",
    "PipelineSnapshot",
    "EstimatorReport",
    "derive_seed",
]


def derive_seed(seed: int | None, name: str) -> int | None:
    """A per-estimator seed from the root seed and the estimator name.

    ``None`` stays ``None`` (OS entropy). Otherwise the seed is drawn
    through :class:`numpy.random.SeedSequence` keyed on the name's
    CRC-32, so different estimators sharing one root seed do not run
    correlated reservoirs, and the derivation does not depend on the
    order estimators were requested in.
    """
    if seed is None:
        return None
    entropy = np.random.SeedSequence([seed, zlib.crc32(name.encode("utf-8"))])
    return int(entropy.generate_state(1, np.uint32)[0])


def build_estimators(specs: Sequence[Mapping[str, Any]]) -> list[tuple[str, Any]]:
    """Build registry estimators, one neighborhood-sampling pool per size.

    ``specs`` holds one ``{"name", "num_estimators", "seed", "options"}``
    plan per estimator (``num_estimators`` ``None``: the spec's default).
    Specs with a ``pool_rank`` and one pool size share a pool: the
    best-ranked builds it exactly as it would alone and the others read
    it (Theorem 3.12's union bound needs no independence between them).
    A build with no shareable engine (``count`` on another engine)
    leaves the pool to the next rank. Returns pairs in ``specs`` order.
    """
    entries = [ESTIMATORS.get(spec["name"]) for spec in specs]
    built: list[Any] = [None] * len(specs)
    pools: dict[int, Any] = {}
    by_rank = sorted(
        range(len(specs)), key=lambda i: (entries[i].pool_rank is None, entries[i].pool_rank)
    )
    for i in by_rank:
        spec, entry = specs[i], entries[i]
        r = spec["num_estimators"]
        r = entry.default_estimators if r is None else r
        pool = pools.get(r) if entry.pool_rank is not None else None
        built[i] = entry.create(r, spec["seed"], pool=pool, **spec["options"])
        engine = getattr(built[i], "engine", None)
        if entry.pool_rank is not None and pool is None and hasattr(engine, "share"):
            pools[r] = engine
    return [(spec["name"], est) for spec, est in zip(specs, built)]


def shared_pools(pairs: Sequence[tuple[str, Any]]) -> dict[str, str]:
    """``name -> first`` for each estimator reading an earlier one's pool.

    ``first`` is the first of ``pairs`` with the same ``engine``. A
    fan-out feeds it first, so its update time carries the pool's, and
    merging its view merges the pool for the whole group.
    """
    first: dict[int, str] = {}
    owners = {}
    for name, est in pairs:
        engine = getattr(est, "engine", None)
        if engine is not None:
            owner = first.setdefault(id(engine), name)
            if owner != name:
                owners[name] = owner
    return owners


@dataclass
class EstimatorReport:
    """One estimator's share of a pipeline run.

    ``pool`` names the estimator fed first from the pool this one reads,
    whose ``seconds`` carry the pool's update time (``None``: no other's).
    """

    name: str
    seconds: float
    results: dict[str, Any]
    pool: str | None = None

    def render(self) -> str:
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in self.results.items())
        return f"{self.name}: {parts} [{self.seconds:.3f}s]{self._pool_tag()}"

    def to_dict(self) -> dict:
        out = {"name": self.name, "seconds": self.seconds, "results": self.results}
        if self.pool is not None:
            out["pool"] = self.pool
        return out

    def _pool_tag(self) -> str:
        return "" if self.pool is None else f" [pool: {self.pool}]"


@dataclass
class PipelineReport:
    """Structured result of :meth:`Pipeline.run`.

    ``io_seconds`` is the measured stream-side share of ``seconds``:
    reading/decoding the source plus batch preparation (columnar
    coercion and the shared per-batch index), the quantity the paper's
    Table 3 reports as the separate I/O column.
    """

    edges: int
    batches: int
    seconds: float
    io_seconds: float = 0.0
    estimators: list[EstimatorReport] = field(default_factory=list)

    def __getitem__(self, name: str) -> EstimatorReport:
        for report in self.estimators:
            if report.name == name:
                return report
        raise KeyError(name)

    def render(self) -> str:
        """A small human-readable report (what the CLI prints)."""
        lines = [
            f"edges: {self.edges:,} in {self.batches:,} batches",
            f"stream pass: {self.seconds:.3f}s "
            f"({self.edges / max(self.seconds, 1e-9) / 1e6:.2f}M edges/s)",
            f"I/O + batch prep: {self.io_seconds:.3f}s",
        ]
        lines.extend("  " + report.render() for report in self.estimators)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly form (for artifacts and machine consumers)."""
        return {
            "edges": self.edges,
            "batches": self.batches,
            "seconds": self.seconds,
            "io_seconds": self.io_seconds,
            "estimators": [r.to_dict() for r in self.estimators],
        }


@dataclass
class PipelineSnapshot(PipelineReport):
    """A mid-stream :class:`PipelineReport`, as :meth:`Pipeline.snapshots`
    yields them.

    Same fields as the final report -- edges/batches consumed *so far*,
    cumulative wall-clock and I/O seconds, per-estimator results and
    timings -- plus ``final``, true for the one snapshot emitted when
    the stream ends. Non-final snapshots use each estimator's
    ``live_report`` (falling back to its regular reporter), so results
    may expose fewer keys mid-stream than at the end (``sample`` omits
    the drawn triangle, which would consume randomness).

    When the pass runs with a durable journal, ``journal`` carries the
    writer's health (:meth:`JournalWriter.stats`: bytes appended,
    segment count, fsync lag, compactions, degraded flag) so
    ``watch --jsonl`` consumers can alert on durability stalls. With a
    ``checkpoint_path``, ``checkpoint`` carries the pass's save count,
    the last and slowest save's milliseconds, and the last save's bytes.
    """

    final: bool = False
    journal: dict[str, Any] | None = None
    checkpoint: dict[str, Any] | None = None

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["final"] = self.final
        if self.journal is not None:
            out["journal"] = self.journal
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint
        return out

    def render_line(self) -> str:
        """One compact line per snapshot (what ``repro watch`` prints)."""
        marker = " [final]" if self.final else ""
        parts = "; ".join(
            f"{r.name}: "
            + ", ".join(f"{k}={_fmt(v)}" for k, v in r.results.items())
            + r._pool_tag()
            for r in self.estimators
        )
        journal = ""
        if self.journal is not None:
            health = (
                "DEGRADED"
                if self.journal.get("degraded")
                else f"lag {self.journal.get('fsync_lag_s', 0.0):.1f}s"
            )
            journal = (
                f" [journal {self.journal.get('segments', 0)} seg | "
                f"{self.journal.get('bytes_appended', 0):,} B | {health}]"
            )
        if self.checkpoint is not None:
            journal += (
                " [ckpt {saves} | last {last_ms:.0f} ms | "
                "max {max_ms:.0f} ms | {bytes:,} B]"
            ).format(**self.checkpoint)
        return (
            f"[batch {self.batches:,} | {self.edges:,} edges | "
            f"{self.seconds:.2f}s]{marker}{journal} {parts}"
        )


def refuse_signed(source, insert_only: Sequence[str]) -> None:
    """Reject a signed ``source`` aimed at any ``insert_only`` estimator.

    Every front-end runs this before any update or worker spawn.
    Reading ``source.signed`` coerces an in-memory source, so bad
    in-memory input fails here too.
    """
    if getattr(source, "signed", False) and insert_only:
        raise InvalidParameterError(
            "source is a signed (turnstile) stream, but estimator(s) "
            f"{list(insert_only)} are insert-only and would silently count "
            "deletions as insertions; use deletion-capable estimators "
            "('triest-fd', 'dynamic-sampler') for signed input"
        )


class FanOut:
    """One batch to every estimator: the step every stream driver shares.

    :meth:`Pipeline._drive` and every shard worker
    (:class:`~repro.streaming.supervisor.EstimatorShardProgram`) feed
    their :class:`EdgeBatch` batches through here. :meth:`consume` is
    :meth:`prepare` (refuse signed batches for insert-only estimators,
    build the shared per-batch index once when any estimator sets
    ``uses_batch_context``) then :meth:`update` (each estimator's timed
    ``update_batch``). The pipeline calls the two apart so preparation
    counts as stream-side time and the journal append sits between.
    """

    def __init__(self, pairs: Sequence[tuple[str, Any]]) -> None:
        self.pairs = list(pairs)
        self._want_context = any(
            getattr(est, "uses_batch_context", False) for _, est in self.pairs
        )
        self.insert_only = [
            name
            for name, est in self.pairs
            if not getattr(est, "supports_deletions", False)
        ]
        self.timings = {name: 0.0 for name, _ in self.pairs}

    def prepare(self, batch: EdgeBatch) -> None:
        if self.insert_only and batch.signs is not None:
            # Sources that cannot declare themselves signed up front
            # (a generator of (u, v, sign) triples) are caught here,
            # batch by batch.
            raise InvalidParameterError(
                "signed batch reached insert-only estimator(s) "
                f"{self.insert_only}; deletions would be silently "
                "counted as insertions"
            )
        if self._want_context:
            batch.context  # noqa: B018 -- build the shared index once

    def update(self, batch: EdgeBatch) -> None:
        for name, estimator in self.pairs:
            t0 = time.perf_counter()
            estimator.update_batch(batch)
            self.timings[name] += time.perf_counter() - t0

    def consume(self, batch: EdgeBatch) -> None:
        self.prepare(batch)
        self.update(batch)


class Pipeline:
    """Fan a single stream pass out to ``n`` streaming estimators.

    Parameters
    ----------
    estimators:
        ``name -> estimator`` mapping, or a sequence of
        ``(name, estimator)`` pairs (names must be unique -- they key
        the report). Each estimator must satisfy
        :class:`~repro.streaming.protocol.StreamingEstimator`.
    reporters:
        Optional ``name -> (estimator -> dict)`` overrides for how each
        estimator's final results are extracted. Defaults to the
        registry's reporter when the name is registered, else to
        ``{"estimate": estimator.estimate()}``.
    live_reporters:
        Optional ``name -> (estimator -> dict)`` overrides used for
        *mid-stream* snapshots only (:meth:`snapshots`). A live
        reporter must be a pure query -- it runs between batches, and
        the stream must continue exactly as if it had not. Names
        without an entry fall back to ``reporters``, then to the
        registry spec's ``live_report``/``report``.
    """

    def __init__(
        self,
        estimators: Mapping[str, Any] | Sequence[tuple[str, Any]],
        *,
        reporters: Mapping[str, Any] | None = None,
        live_reporters: Mapping[str, Any] | None = None,
    ) -> None:
        pairs = (
            list(estimators.items())
            if isinstance(estimators, Mapping)
            else list(estimators)
        )
        if not pairs:
            raise InvalidParameterError("pipeline needs at least one estimator")
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"duplicate estimator names: {names}")
        self._pairs = pairs
        self._pool_of = shared_pools(pairs)
        self._reporters = dict(reporters or {})
        self._live_reporters = dict(live_reporters or {})
        self._resume: Checkpoint | None = None
        self._resume_path: Any = None
        self._resume_poisoned = False
        self._progress: dict[str, Any] = {
            "edges_seen": 0,
            "batches": 0,
            "batch_size": 0,
            "fingerprint": None,
        }

    @classmethod
    def from_registry(
        cls,
        names: Iterable[str],
        *,
        num_estimators: int | None = None,
        seed: int | None = None,
        options: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> "Pipeline":
        """Build a pipeline of registered estimators.

        Parameters
        ----------
        names:
            Estimator names from the registry (``ESTIMATORS.names()``
            enumerates them; so does ``repro pipeline --help``).
        num_estimators:
            Pool size for every estimator; ``None`` uses each spec's
            own default.
        seed:
            Root seed; each estimator gets ``derive_seed(seed, name)``
            (a shared pool its builder's; see :func:`build_estimators`).
        options:
            Per-name factory keyword overrides, e.g.
            ``{"sliding-window": {"window": 10_000}}``.
        """
        options = options or {}
        plan = [
            dict(
                name=name,
                num_estimators=num_estimators,
                seed=derive_seed(seed, name),
                options=options.get(name, {}),
            )
            for name in names
        ]
        return cls(build_estimators(plan))

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self._pairs]

    def estimator(self, name: str) -> Any:
        for pair_name, est in self._pairs:
            if pair_name == name:
                return est
        raise KeyError(name)

    # ------------------------------------------------------------------
    # durable checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> int:
        """Snapshot every estimator's state to the ``path`` directory.

        The on-disk format (npz + JSON manifest, versioned) is
        :mod:`repro.streaming.checkpoint`'s; the manifest records the
        stream progress of the last/current :meth:`run` so a fresh
        pipeline can :meth:`resume` and continue where this one stood.
        Every estimator must implement
        :class:`~repro.streaming.protocol.CheckpointableEstimator`.
        Returns the bytes written.
        """
        states = {}
        for name, estimator in self._pairs:
            op = getattr(estimator, "state_dict", None)
            if op is None:
                raise InvalidParameterError(
                    f"estimator {name!r} does not support state_dict(); "
                    "it cannot be checkpointed"
                )
            states[name] = op()
        journal_position = self._progress.get("journal")
        return save_checkpoint(
            path,
            states,
            edges_seen=self._progress["edges_seen"],
            batches=self._progress["batches"],
            batch_size=self._progress["batch_size"],
            fingerprint=self._progress["fingerprint"],
            metadata=(
                {"journal": dict(journal_position)} if journal_position else None
            ),
        )

    def resume(self, path) -> "Pipeline":
        """Restore a :meth:`checkpoint` into this pipeline's estimators.

        The pipeline must have been built with the same estimator names
        (e.g. the same :meth:`from_registry` call); each estimator
        adopts its checkpointed state -- including the generator state.
        Estimators that read one pool must find one pool state under
        their names; a checkpoint holding different ones (written when
        they ran separate pools) raises
        :class:`~repro.errors.InvalidParameterError`.
        The next :meth:`run` automatically skips the ``edges_seen``
        edges the checkpoint already consumed (the source must replay
        the same stream; a recorded fingerprint is verified against it)
        and must use the checkpoint's ``batch_size``.

        Bit-identity: the continuation reproduces the uninterrupted run
        exactly when the checkpoint position is a multiple of
        ``batch_size`` -- true for every periodic/signal snapshot (they
        land on batch boundaries) and for end-of-stream snapshots of
        streams whose length is a batch multiple. Resuming an
        *unaligned* end-of-stream snapshot over a grown stream is still
        statistically correct (reservoir decisions are memoryless), but
        the first continuation batch is shorter than the uninterrupted
        run's, so the vectorized engines' per-batch draws differ.
        Returns ``self`` for chaining.
        """
        ckpt = load_checkpoint(path)
        mine = set(self.names)
        theirs = set(ckpt.states)
        if mine != theirs:
            raise InvalidParameterError(
                f"checkpoint estimators {sorted(theirs)} do not match "
                f"this pipeline's {sorted(mine)}"
            )
        for name, estimator in self._pairs:
            op = getattr(estimator, "load_state_dict", None)
            if op is None:
                raise InvalidParameterError(
                    f"estimator {name!r} does not support load_state_dict(); "
                    "it cannot be resumed"
                )
            owner = self._pool_of.get(name)
            before = pickle.dumps(estimator.engine.state_dict()) if owner else None
            op(ckpt.states[name])
            if before and before != pickle.dumps(estimator.engine.state_dict()):
                raise InvalidParameterError(
                    f"checkpoint at {os.fspath(path)!r} holds different pool "
                    f"states for {owner!r} and {name!r}, which now read one "
                    "pool; it was written when they ran separate pools"
                )
        self._resume = ckpt
        self._resume_path = path
        self._resume_poisoned = False
        self._progress = {
            "edges_seen": ckpt.edges_seen,
            "batches": ckpt.batches,
            "batch_size": ckpt.batch_size,
            "fingerprint": ckpt.fingerprint,
            "journal": (ckpt.metadata or {}).get("journal"),
        }
        return self

    # ------------------------------------------------------------------
    # the stream pass: one driver, two surfaces (run / snapshots)
    # ------------------------------------------------------------------
    def run(
        self,
        source,
        *,
        batch_size: int = 65_536,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
        checkpoint_signal: int | None = None,
        journal_dir=None,
        journal_fsync: str = "batch",
        journal_max_segment: int = DEFAULT_SEGMENT_BYTES,
    ) -> PipelineReport:
        """One pass over ``source``, feeding every estimator each batch.

        ``source`` is anything :func:`~repro.streaming.source.as_source`
        accepts. Each batch is prepared exactly once no matter how many
        estimators are registered: every estimator's ``update_batch``
        receives the same :class:`~repro.streaming.batch.EdgeBatch`, its
        per-batch index is built once up front (when any estimator sets
        ``uses_batch_context``) -- including the unique-vertex /
        unique-edge-key views the output-sensitive vectorized engines
        intersect against their watch indexes, so ``n`` fanned-out
        engines share one intersection precomputation per batch -- and
        per-edge estimators share the batch's one tuple
        materialization. Per-estimator wall-clock time is accumulated
        around each update call; stream reading plus batch preparation
        is reported separately as ``io_seconds`` (the paper's Table 3
        I/O split).

        ``run`` is literally "drain :meth:`snapshots` and return the
        final report": both surfaces share the :meth:`_drive` stream
        pass, so the results here are bit-identical to the ``final``
        snapshot of a ``snapshots`` call over the same source and seed
        -- the equivalence the test suite asserts.

        Durability hooks:

        - ``checkpoint_path`` -- directory to snapshot estimator state
          into (see :meth:`checkpoint`). A snapshot is always written
          when the stream completes; with ``checkpoint_every=k`` one is
          also written every ``k`` batches (of the *global* stream
          position, so a resumed run snapshots at the same stream
          offsets the uninterrupted run would), and with
          ``checkpoint_signal`` (e.g. ``signal.SIGUSR1``) on demand at
          the next batch boundary after the signal arrives.
        - after :meth:`resume`, the run skips the edges the checkpoint
          already consumed and continues bit-identically (same
          ``batch_size`` required); edge/batch totals in the report
          cover the whole logical stream, not just the continuation.
        - ``journal_dir`` -- directory for a durable write-ahead
          journal (:mod:`repro.streaming.journal`): every batch is
          appended (and flushed) *before* any estimator sees it, and
          checkpoints record the journal ``(segment, offset)``. A
          resume that finds both the position and ``journal_dir``
          replays the journaled batches instead of re-reading the
          source, which makes non-replayable sources (stdin, sockets)
          exactly-once across ``kill -9``. ``journal_fsync``
          (``always``/``batch``/``off``) trades durability for
          throughput; ``journal_max_segment`` bounds segment files.
        """
        state = self._begin(
            source,
            batch_size,
            checkpoint_path,
            checkpoint_every,
            checkpoint_signal,
            journal_dir=journal_dir,
            journal_fsync=journal_fsync,
            journal_max_segment=journal_max_segment,
        )
        snapshot = None
        for snapshot in self._drive(state, None, checkpoint_path, checkpoint_every):
            pass
        # A plain report (no `final` field): run()'s return type predates
        # the snapshot surface and artifact dicts depend on its shape.
        return PipelineReport(
            edges=snapshot.edges,
            batches=snapshot.batches,
            seconds=snapshot.seconds,
            io_seconds=snapshot.io_seconds,
            estimators=snapshot.estimators,
        )

    def snapshots(
        self,
        source,
        *,
        batch_size: int = 65_536,
        every: int = 1,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
        checkpoint_signal: int | None = None,
        journal_dir=None,
        journal_fsync: str = "batch",
        journal_max_segment: int = DEFAULT_SEGMENT_BYTES,
    ) -> Iterator[PipelineSnapshot]:
        """Stream ``source`` like :meth:`run`, yielding live snapshots.

        A generator over the same stream pass as :meth:`run` (same
        shared batch context, resume-skip, and checkpoint hooks
        -- the two share :meth:`_drive`), yielding a
        :class:`PipelineSnapshot` after every ``every``-th batch of the
        global stream position and a ``final`` snapshot when the stream
        ends. Mid-stream snapshots report through each estimator's
        ``live_report`` (pure queries only); the final snapshot uses
        the full reporters and is bit-identical to :meth:`run`'s report
        over the same source and seed.

        Works over unbounded sources: with a
        :class:`~repro.streaming.source.FollowSource` the generator
        simply never emits a ``final`` snapshot until the source's stop
        condition fires -- this is the ``repro watch`` loop. Abandoning
        the generator mid-stream is safe: the estimators keep their
        mid-stream state and remain queryable (unless the pass was
        resumed from a checkpoint, in which case the checkpoint is
        reloaded exactly as a failed :meth:`run` would, so a retry
        cannot double-count the stream).

        Validation (and the pre-stream checkpoint, when
        ``checkpoint_path`` is set) happens eagerly at the call, not at
        the first ``next()``.
        """
        if every < 1:
            raise InvalidParameterError(f"every must be >= 1, got {every}")
        state = self._begin(
            source,
            batch_size,
            checkpoint_path,
            checkpoint_every,
            checkpoint_signal,
            journal_dir=journal_dir,
            journal_fsync=journal_fsync,
            journal_max_segment=journal_max_segment,
        )
        return self._drive(state, every, checkpoint_path, checkpoint_every)

    def _begin(
        self,
        source,
        batch_size: int,
        checkpoint_path,
        checkpoint_every: int | None,
        checkpoint_signal: int | None,
        *,
        journal_dir=None,
        journal_fsync: str = "batch",
        journal_max_segment: int = DEFAULT_SEGMENT_BYTES,
    ) -> dict[str, Any]:
        """Validate and set up a stream pass (shared by run/snapshots).

        Everything fallible-before-the-stream happens here, eagerly:
        parameter validation, resume fingerprint verification, and the
        pre-stream checkpoint. Returns the driver's starting state.
        """
        if batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if checkpoint_every is not None:
            if checkpoint_path is None:
                raise InvalidParameterError(
                    "checkpoint_every requires checkpoint_path"
                )
            if checkpoint_every < 1:
                raise InvalidParameterError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
        if checkpoint_signal is not None and checkpoint_path is None:
            # Silently ignoring the signal request would leave the
            # caller believing kill -USR1 snapshots are armed.
            raise InvalidParameterError(
                "checkpoint_signal requires checkpoint_path"
            )
        if self._resume_poisoned:
            raise InvalidParameterError(
                "a previous resumed run failed and its checkpoint could not "
                "be reloaded; call resume() again before running"
            )
        src: EdgeSource = as_source(source)
        fanout = FanOut(self._pairs)
        refuse_signed(src, fanout.insert_only)
        resume = self._resume
        remaining = 0
        base_edges = 0
        base_batches = 0
        fingerprint = None
        if resume is not None:
            if resume.batch_size and resume.batch_size != batch_size:
                raise InvalidParameterError(
                    f"checkpoint was taken with batch_size={resume.batch_size}; "
                    f"resuming with {batch_size} would not replay the stream "
                    "bit-consistently"
                )
            # One fingerprint pass serves both the compatibility check
            # (hashed over the checkpoint's recorded head window, so a
            # file that grew since the snapshot still verifies) and the
            # progress record for subsequent snapshots -- keeping the
            # original window also lets checkpoints chain across
            # repeated grow-and-resume cycles.
            saved = resume.fingerprint
            head_bytes = (
                saved.get("head_bytes")
                if saved is not None and saved.get("kind") == "file"
                else None
            )
            fingerprint = source_fingerprint(src, head_bytes=head_bytes)
            if not fingerprints_compatible(saved, fingerprint):
                raise InvalidParameterError(
                    "checkpoint was taken over a different stream than the "
                    "one being resumed (fingerprint mismatch)"
                )
            remaining = resume.edges_seen
            base_edges = resume.edges_seen
            base_batches = resume.batches
        elif checkpoint_path is not None:
            fingerprint = source_fingerprint(src)

        # Durable ingest journal. The writer opens (and recovers a torn
        # tail) eagerly; when the resume checkpoint recorded a journal
        # position, the pass replays the journaled batches *after* it
        # instead of relying on the source to re-serve them -- the only
        # resume path a non-replayable source (stdin, socket) has.
        journal_writer = None
        journal_replay = None
        journal_resume = False
        journal_position = None
        if journal_dir is not None:
            journal_writer = JournalWriter(
                journal_dir,
                fsync=journal_fsync,
                max_segment_bytes=journal_max_segment,
            )
            try:
                saved_position = (
                    (resume.metadata or {}).get("journal")
                    if resume is not None
                    else None
                )
                if saved_position is not None:
                    journal_position = {
                        "segment": int(saved_position["segment"]),
                        "offset": int(saved_position["offset"]),
                    }
                    journal_replay = journal_records(
                        journal_dir,
                        start=(
                            journal_position["segment"],
                            journal_position["offset"],
                        ),
                    )
                    journal_resume = True
                else:
                    position = journal_writer.position()
                    journal_position = {
                        "segment": position[0],
                        "offset": position[1],
                    }
            except BaseException:
                journal_writer.close()
                raise
        self._progress = {
            "edges_seen": base_edges,
            "batches": base_batches,
            "batch_size": batch_size,
            "fingerprint": fingerprint,
            "journal": journal_position,
        }
        checkpoint_stats = None
        if checkpoint_path is not None:
            # Snapshot before the stream pass. This both covers the
            # window before the first periodic snapshot and validates
            # that every estimator can actually be checkpointed --
            # hasattr would not: delegating wrappers (TriangleCounter
            # over a non-checkpointable engine) expose state_dict and
            # raise only when it runs, which must not happen hours into
            # the stream.
            checkpoint_stats = dict(saves=0, last_ms=0.0, max_ms=0.0, bytes=0)
            try:
                self._timed_checkpoint(checkpoint_path, checkpoint_stats)
            except BaseException:
                if journal_writer is not None:
                    journal_writer.close()
                raise

        return {
            "src": src,
            "batch_size": batch_size,
            "resumed": resume is not None,
            "remaining": remaining,
            "base_edges": base_edges,
            "base_batches": base_batches,
            "fanout": fanout,
            "checkpoint_signal": checkpoint_signal,
            "journal": journal_writer,
            "journal_replay": journal_replay,
            "journal_resume": journal_resume,
            "checkpoint": checkpoint_stats,
        }

    def _timed_checkpoint(self, path, stats: dict[str, Any]) -> None:
        """:meth:`checkpoint`, folding its latency and size into ``stats``."""
        t0 = time.perf_counter()
        written = self.checkpoint(path)
        ms = (time.perf_counter() - t0) * 1e3
        stats.update(saves=stats["saves"] + 1, last_ms=ms, bytes=written)
        stats["max_ms"] = max(stats["max_ms"], ms)

    def _drive(
        self,
        state: dict[str, Any],
        every: int | None,
        checkpoint_path,
        checkpoint_every: int | None,
    ) -> Iterator[PipelineSnapshot]:
        """The one stream pass behind :meth:`run` and :meth:`snapshots`.

        Streams, updates every estimator, writes periodic/signal/final
        checkpoints, and yields a :class:`PipelineSnapshot` every
        ``every`` batches (``None``: only the final one -- the
        :meth:`run` mode). Checkpoint and snapshot cadences key on the
        *global* batch index (``base + local``), so a resumed pass
        checkpoints and reports at the same stream positions the
        uninterrupted pass would.

        On any failure -- or on abandonment mid-stream -- of a pass
        that was resumed from a checkpoint, the checkpoint is reloaded
        so a retry cannot double-count the stream (see
        :meth:`_reload_after_failed_resume`).
        """
        src = state["src"]
        batch_size = state["batch_size"]
        base_edges = state["base_edges"]
        base_batches = state["base_batches"]
        fanout = state["fanout"]
        checkpoint_signal = state["checkpoint_signal"]
        journal = state["journal"]
        journal_replay = state["journal_replay"]
        edges = 0
        batches = 0
        io_seconds = 0.0
        signal_seen = [False]
        restore_handler = None
        if checkpoint_path is not None and checkpoint_signal is not None:
            def _on_signal(signum, frame):  # pragma: no cover - timing
                signal_seen[0] = True

            try:
                previous = signal_module.signal(checkpoint_signal, _on_signal)
                restore_handler = (checkpoint_signal, previous)
            except ValueError:
                # Not the main thread: on-demand snapshots unavailable,
                # periodic/final ones still work.
                restore_handler = None
        start = time.perf_counter()

        def _snapshot(final: bool) -> PipelineSnapshot:
            return PipelineSnapshot(
                edges=base_edges + edges,
                batches=base_batches + batches,
                seconds=time.perf_counter() - start,
                io_seconds=io_seconds,
                estimators=[
                    EstimatorReport(
                        name=name,
                        seconds=fanout.timings[name],
                        results=self._reporter_for(name, live=not final)(estimator),
                        pool=self._pool_of.get(name),
                    )
                    for name, estimator in self._pairs
                ],
                final=final,
                journal=journal.stats() if journal is not None else None,
                checkpoint=state["checkpoint"] and dict(state["checkpoint"]),
            )

        def _save_checkpoint(path) -> None:
            # Journal bytes become durable before the manifest that
            # references them, and segments wholly behind the new
            # checkpoint are compacted once it is safely on disk.
            if journal is not None:
                journal.sync()
            self._timed_checkpoint(path, state["checkpoint"])
            if journal is not None:
                journal.compact(self._progress.get("journal"))

        # Leftover resume-skip, surfaced from the merged stream for the
        # stream-ended-early check below (a mutable cell because the
        # generator owns the countdown).
        skip_left = [0]

        def _merged_stream():
            """``(batch, position, fresh)`` triples for the pass.

            First the journal replay (recorded batches past the resume
            checkpoint, ``fresh=False``, each carrying its recorded
            position), then the live source. Replay preserves the
            recorded batch boundaries, which is what keeps a resumed
            continuation bit-identical. On a journal resume a
            *replayable* source is skipped past everything already
            counted (checkpointed + replayed); a non-replayable source
            only ever serves new edges, so nothing is skipped.
            """
            replayed = 0
            if journal_replay is not None:
                for replay_batch, position in journal_replay:
                    replayed += len(replay_batch)
                    yield replay_batch, position, False
            if state["journal_resume"]:
                skip_left[0] = (
                    base_edges + replayed if src.replayable else 0
                )
            else:
                skip_left[0] = state["remaining"]
            for source_batch in src.batches(batch_size):
                # Third-party sources may yield plain edge lists; every
                # batch past this point is an EdgeBatch.
                source_batch = EdgeBatch.from_edges(source_batch)
                if skip_left[0]:
                    # Replaying a resumed stream: checkpoints land on
                    # batch boundaries, so whole batches are skipped
                    # (the partial slice only triggers on boundary
                    # drift, e.g. a final short batch).
                    w = len(source_batch)
                    if w <= skip_left[0]:
                        skip_left[0] -= w
                        continue
                    source_batch = source_batch[skip_left[0] :]
                    skip_left[0] = 0
                yield source_batch, None, True

        try:
            try:
                stream = _merged_stream()
                while True:
                    t0 = time.perf_counter()
                    item = next(stream, None)
                    if item is None:
                        io_seconds += time.perf_counter() - t0
                        break
                    batch, journal_position, fresh = item
                    fanout.prepare(batch)
                    if journal is not None and fresh:
                        # Append-before-deliver: the record is on disk
                        # (and flushed) before any estimator sees the
                        # batch, so a kill cannot lose delivered edges.
                        journal_position = journal.append(batch)
                    if journal_position is not None:
                        self._progress["journal"] = {
                            "segment": journal_position[0],
                            "offset": journal_position[1],
                        }
                    io_seconds += time.perf_counter() - t0
                    batches += 1
                    edges += len(batch)
                    fanout.update(batch)
                    self._progress["edges_seen"] = base_edges + edges
                    self._progress["batches"] = base_batches + batches
                    global_batch = base_batches + batches
                    if checkpoint_path is not None and (
                        signal_seen[0]
                        or (checkpoint_every and global_batch % checkpoint_every == 0)
                    ):
                        signal_seen[0] = False
                        try:
                            _save_checkpoint(checkpoint_path)
                        except OSError as exc:
                            # A failed *periodic* snapshot costs only
                            # resume granularity, never the run: warn
                            # and keep streaming (the final checkpoint
                            # below still raises, because silently
                            # ending without durable state would).
                            warnings.warn(
                                CheckpointWriteWarning(
                                    f"periodic checkpoint to "
                                    f"{os.fspath(checkpoint_path)!r} failed "
                                    f"at batch {global_batch}: {exc}; "
                                    "continuing without it"
                                ),
                                stacklevel=2,
                            )
                    if every is not None and global_batch % every == 0:
                        yield _snapshot(final=False)
            finally:
                if restore_handler is not None:
                    signal_module.signal(*restore_handler)
            if skip_left[0]:
                raise InvalidParameterError(
                    f"stream ended {skip_left[0]} edges before the "
                    "checkpoint's position; it is not the stream that was "
                    "checkpointed"
                )
            if checkpoint_path is not None:
                _save_checkpoint(checkpoint_path)
            self._resume = None
            yield _snapshot(final=True)
        except BaseException:
            if state["resumed"] and self._resume is not None:
                # The pipeline's estimators are somewhere past the
                # checkpoint; silently retrying from here would
                # double-count the stream. Put the pipeline back in its
                # resumable state so a corrected run() call is safe.
                # (Reached on failure AND on generator abandonment --
                # GeneratorExit lands here too.)
                self._reload_after_failed_resume()
            raise
        finally:
            if journal is not None:
                journal.close()

    def _reporter_for(self, name: str, *, live: bool):
        """The result extractor for one estimator (live or final)."""
        if live and name in self._live_reporters:
            return self._live_reporters[name]
        if name in self._reporters:
            return self._reporters[name]
        if name in ESTIMATORS:
            spec = ESTIMATORS.get(name)
            if live and spec.live_report is not None:
                return spec.live_report
            return spec.report
        return _default_report

    def _reload_after_failed_resume(self) -> None:
        """Restore the resumable state after a failed resumed pass.

        Best effort: if the checkpoint itself cannot be reloaded, the
        pipeline is poisoned instead, so the next :meth:`run` raises
        rather than silently replaying the stream over half-advanced
        estimators.
        """
        try:
            self.resume(self._resume_path)
        except Exception:
            self._resume = None
            self._resume_poisoned = True

def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.4f}" if abs(value) < 100 else f"{value:,.1f}"
    return str(value)
