"""The streaming-estimator protocol every consumer codes against.

The paper's algorithms -- triangle counting, transitivity, uniform
sampling, clique counting, windowed variants, and the exact baselines --
all share one observable behaviour: they consume an adjacency stream in
batches and answer queries about what they saw. These protocols make
that contract formal so the :class:`~repro.streaming.pipeline.Pipeline`
runner, the experiment harness, and the CLI can drive any of them
interchangeably (and so alternative estimators from the literature --
e.g. Kallaugher-Price hybrid sampling or Cormode-Jowhari -- can plug in
by implementing two methods).

``isinstance`` checks work at runtime (``@runtime_checkable``), but the
protocols are structural: nothing needs to inherit from them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import EdgeBatch

__all__ = [
    "StreamingEstimator",
    "BatchedEstimator",
    "CheckpointableEstimator",
]


@runtime_checkable
class StreamingEstimator(Protocol):
    """Anything that eats edge batches and produces a scalar estimate.

    The estimators are *query-at-any-time*: ``estimate`` (and any other
    result query a reporter reads) must be a pure function of the state
    -- no mutation, no generator draws -- because the live snapshot
    surface (:meth:`~repro.streaming.pipeline.Pipeline.snapshots`)
    calls it between batches and the stream must continue exactly as if
    it had not been observed. Queries that *do* consume randomness
    (e.g. drawing one of the sampled triangles) belong in a final-only
    reporter; see ``live_report`` on
    :class:`~repro.streaming.registry.EstimatorSpec`.

    Estimators additionally declare two capability flags:

    ``supports_deletions``
        ``True`` when the estimator understands turnstile (signed)
        batches -- ``update_batch`` honours a batch's ``+1``/``-1``
        sign column and removes deleted edges from its state. Absent or
        ``False`` means insert-only. The flag is deliberately *not* a
        protocol member (that would make every insert-only estimator
        fail ``isinstance`` until it grew the attribute); pipelines
        read it via ``getattr(est, "supports_deletions", False)``
        *before* streaming a signed source and reject the combination
        up front, so a deletion can never be silently counted as an
        insertion.
    ``uses_batch_context``
        ``True`` when ``update_batch`` reads ``batch.context``, the
        shared per-batch index: a fan-out then builds it once, up
        front, as batch preparation. Absent or ``False``: built lazily.
    """

    def update_batch(self, batch: "EdgeBatch") -> None:
        """Observe a batch of stream edges (order within the batch counts)."""
        ...

    def estimate(self) -> float:
        """The current aggregated estimate (a pure, repeatable query)."""
        ...


@runtime_checkable
class BatchedEstimator(StreamingEstimator, Protocol):
    """A :class:`StreamingEstimator` that also exposes per-estimator values."""

    def estimates(self) -> Iterable[float]:
        """Per-estimator unbiased estimates (before aggregation)."""
        ...


@runtime_checkable
class CheckpointableEstimator(StreamingEstimator, Protocol):
    """A :class:`StreamingEstimator` whose state can be persisted/shipped.

    The state dict is the entire message a streaming node must persist
    or send (it is literally Alice's message in the Theorem 3.13
    protocol). Three operations make the contract useful in production:

    - ``state_dict`` -- a snapshot built from numpy arrays and
      JSON-serializable values (:mod:`repro.streaming.checkpoint` turns
      it into the versioned npz + manifest on-disk format). The snapshot
      includes the generator state, so restoring it resumes the random
      stream bit-exactly.
    - ``load_state_dict`` -- restore a snapshot in place, adopting the
      snapshot's pool size and configuration wholesale; the estimator
      then continues streaming exactly where the snapshot left off.
    - ``merge`` -- absorb another estimator of the same kind that
      observed the *same* stream (equal ``edges_seen``). Estimators are
      independent, so pools combine by concatenation -- the contract
      that makes the algorithms embarrassingly parallel in the
      estimator dimension and powers
      :class:`~repro.streaming.sharded.ShardedPipeline`.
    """

    def state_dict(self) -> dict[str, Any]:
        """Serializable snapshot of the estimator state."""
        ...

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict` in place."""
        ...

    def merge(self, other: Any) -> None:
        """Absorb ``other``'s estimator pool (same stream, same kind)."""
        ...
