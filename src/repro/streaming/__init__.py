"""The streaming pipeline: lazy sources, the estimator protocol, fan-out.

This subpackage is the architectural backbone for one-pass processing:

- :mod:`repro.streaming.source` -- :class:`EdgeSource` and friends:
  batches lazily pulled from files, sequences, or generators, so
  file-backed runs use constant memory in the stream length;
- :mod:`repro.streaming.protocol` -- the :class:`StreamingEstimator`
  contract every algorithm satisfies;
- :mod:`repro.streaming.registry` -- decorator-based registries for
  triangle-counter engines and pipeline estimators;
- :mod:`repro.streaming.pipeline` -- :class:`Pipeline`, which drives
  any number of registered estimators over one stream read with
  per-estimator timing and a structured report, plus mid-stream
  checkpoint/resume and the live query surface
  (:meth:`Pipeline.snapshots`, yielding a :class:`PipelineSnapshot`
  every ``k`` batches while the stream flows -- over unbounded
  :class:`FollowSource`/:class:`LineSource` streams too);
- :mod:`repro.streaming.checkpoint` -- the versioned on-disk form of
  estimator state (npz + JSON manifest) behind
  :meth:`Pipeline.checkpoint` / :meth:`Pipeline.resume`;
- :mod:`repro.streaming.sharded` -- :class:`ShardedPipeline`, the
  multiprocess fan-out that shards every estimator pool across workers
  over one stream read and merges states through the
  :class:`CheckpointableEstimator` protocol;
- :mod:`repro.streaming.supervisor` -- :class:`ShardSupervisor`, the
  self-healing layer under the multiprocess paths (snapshots, bounded
  replay, bounded respawns), opted into via ``max_restarts``;
- :mod:`repro.streaming.faults` -- :class:`FaultPlan`, deterministic
  counter-based fault injection for drilling every recovery path;
- :mod:`repro.streaming.estimators` -- the registered specs for every
  algorithm in the package (imported below for its registration side
  effect).

Quick taste::

    from repro.streaming import FileSource, Pipeline

    report = Pipeline.from_registry(
        ["count", "transitivity", "sample"], seed=7
    ).run(FileSource("graph.edges"), batch_size=65_536)
    print(report.render())
"""

from . import faults
from .batch import BatchContext, EdgeBatch
from .faults import Fault, FaultPlan
from .checkpoint import (
    Checkpoint,
    fingerprints_compatible,
    load_checkpoint,
    save_checkpoint,
    source_fingerprint,
    verify_resume_source,
)
from .journal import (
    DEFAULT_SEGMENT_BYTES,
    FSYNC_POLICIES,
    JournalSource,
    JournalWriter,
    journal_records,
)
from .pipeline import (
    EstimatorReport,
    Pipeline,
    PipelineReport,
    PipelineSnapshot,
    build_estimators,
    derive_seed,
    shared_pools,
)
from .protocol import (
    BatchedEstimator,
    CheckpointableEstimator,
    StreamingEstimator,
)
from .registry import (
    ENGINES,
    ESTIMATORS,
    EstimatorSpec,
    Registry,
    register_engine,
    register_estimator,
)
from .sharded import ShardedPipeline, derive_shard_seed, shard_sizes
from .shm import (
    BatchSender,
    ShmRing,
    ShmRingClient,
    TransportFeed,
    resolve_transport,
    shm_available,
)
from .supervisor import ShardSupervisor, Supervision
from .source import (
    EdgeSource,
    FileSource,
    FollowSource,
    IterableSource,
    LineSource,
    MemorySource,
    as_source,
    batched_iter,
)
from . import estimators as _estimators  # noqa: F401  (registers the specs)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "ENGINES",
    "ESTIMATORS",
    "FSYNC_POLICIES",
    "BatchContext",
    "BatchSender",
    "BatchedEstimator",
    "Checkpoint",
    "CheckpointableEstimator",
    "EdgeBatch",
    "EdgeSource",
    "EstimatorReport",
    "EstimatorSpec",
    "Fault",
    "FaultPlan",
    "FileSource",
    "FollowSource",
    "IterableSource",
    "JournalSource",
    "JournalWriter",
    "LineSource",
    "MemorySource",
    "Pipeline",
    "PipelineReport",
    "PipelineSnapshot",
    "Registry",
    "ShardSupervisor",
    "ShardedPipeline",
    "ShmRing",
    "ShmRingClient",
    "StreamingEstimator",
    "Supervision",
    "TransportFeed",
    "as_source",
    "batched_iter",
    "build_estimators",
    "derive_seed",
    "derive_shard_seed",
    "faults",
    "fingerprints_compatible",
    "journal_records",
    "load_checkpoint",
    "register_engine",
    "register_estimator",
    "resolve_transport",
    "save_checkpoint",
    "shard_sizes",
    "shared_pools",
    "shm_available",
    "source_fingerprint",
    "verify_resume_source",
]
