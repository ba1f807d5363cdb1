"""Triangle counting from a graph stream (Theorems 3.3 and 3.4).

:class:`TriangleCounter` runs ``r`` independent neighborhood-sampling
estimators and aggregates their unbiased estimates, either by the plain
average (Theorem 3.3) or by median-of-means (the aggregation used in the
tangle-coefficient bound, Theorem 3.4).

Three interchangeable engines hold the estimator states:

- ``"reference"`` -- one Python object per estimator, updated per edge
  (Algorithm 1 verbatim; O(m r) total time -- for tests and teaching);
- ``"bulk"`` -- the faithful table-driven batch algorithm of Section 3.3
  (O(m + r) per stream when the batch size is Theta(r));
- ``"vectorized"`` -- numpy array state, same semantics as ``bulk``
  (the default; fastest at large ``r``).
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence

import numpy as np

from ..errors import EmptyStreamError, InvalidParameterError
from ..rng import RandomSource
from ..streaming.registry import ENGINES, register_engine
from .accuracy import estimators_needed
# The bulk/vectorized imports also register those engines (decorator
# side effect); re-exported for callers that address them directly.
from .bulk import BulkTriangleCounter  # noqa: F401
from .neighborhood_sampling import NeighborhoodSampler
from .vectorized import PoolView, VectorizedTriangleCounter

__all__ = [
    "ReferenceTriangleCounter",
    "TriangleCounter",
    "aggregate_mean",
    "aggregate_median_of_means",
]


def aggregate_mean(estimates: Sequence[float] | np.ndarray) -> float:
    """Average of per-estimator estimates (Theorem 3.3's aggregator)."""
    arr = np.asarray(estimates, dtype=np.float64)
    if arr.size == 0:
        raise EmptyStreamError("no estimates to aggregate")
    return float(arr.mean())


def aggregate_median_of_means(
    estimates: Sequence[float] | np.ndarray, groups: int
) -> float:
    """Median of group means (Theorem 3.4's aggregator).

    Splits the estimates into ``groups`` contiguous groups of (near-)
    equal size, averages within each group, and returns the median of
    the group means. With ``groups ~ 12 ln(1/delta)`` this boosts a
    constant-probability Chebyshev guarantee to probability ``1 - delta``.
    """
    arr = np.asarray(estimates, dtype=np.float64)
    if arr.size == 0:
        raise EmptyStreamError("no estimates to aggregate")
    if groups < 1:
        raise InvalidParameterError(f"groups must be >= 1, got {groups}")
    groups = min(groups, arr.size)
    means = [float(chunk.mean()) for chunk in np.array_split(arr, groups)]
    return statistics.median(means)


@register_engine("reference")
class ReferenceTriangleCounter:
    """Engine adapter over ``r`` independent :class:`NeighborhoodSampler` s.

    Each sampler gets its own random source derived from ``seed``, so a
    run is reproducible yet the estimators are independent.
    """

    def __init__(self, num_estimators: int, *, seed: int | None = None) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        root = RandomSource(seed)
        self._samplers = [
            NeighborhoodSampler(rng=root.spawn()) for _ in range(num_estimators)
        ]
        self.edges_seen = 0

    @property
    def num_estimators(self) -> int:
        return len(self._samplers)

    def update(self, edge: tuple[int, int]) -> None:
        for sampler in self._samplers:
            sampler.update(edge)
        self.edges_seen += 1

    def update_batch(self, batch: Sequence[tuple[int, int]]) -> None:
        for edge in batch:
            self.update(edge)

    def estimates(self) -> list[float]:
        return [s.triangle_estimate() for s in self._samplers]

    def estimate(self) -> float:
        """Mean of the per-estimator estimates (Theorem 3.3 aggregation)."""
        values = self.estimates()
        return sum(values) / len(values)

    def wedge_estimates(self) -> list[float]:
        return [s.wedge_estimate() for s in self._samplers]

    def samplers(self) -> list[NeighborhoodSampler]:
        return self._samplers


class TriangleCounter(PoolView):
    """(eps, delta)-approximate triangle counting over an edge stream.

    Parameters
    ----------
    num_estimators:
        The number ``r`` of parallel unbiased estimators. Size it with
        :func:`repro.core.accuracy.estimators_needed` (Theorem 3.3) or
        :meth:`from_accuracy`.
    engine:
        ``"vectorized"`` (default), ``"bulk"``, ``"reference"``, or any
        name added to :data:`repro.streaming.ENGINES` via
        :func:`repro.streaming.register_engine`.
    aggregation:
        ``"mean"`` (Theorem 3.3) or ``"median-of-means"``
        (Theorem 3.4); the latter uses ``groups`` groups.
    seed:
        Seed for reproducible runs.
    pool:
        Another estimator's vectorized engine to read instead of
        building one (then ``num_estimators``, ``engine`` and ``seed``
        are unused); see :class:`~repro.core.vectorized.PoolView`.

    Examples
    --------
    >>> counter = TriangleCounter(2000, seed=7)
    >>> counter.update_batch([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> round(counter.estimate(), 1) >= 0.0
    True
    """

    def __init__(
        self,
        num_estimators: int,
        *,
        engine: str = "vectorized",
        aggregation: str = "mean",
        groups: int = 16,
        seed: int | None = None,
        pool: VectorizedTriangleCounter | None = None,
    ) -> None:
        engine_cls = ENGINES.get(engine)
        if aggregation not in ("mean", "median-of-means"):
            raise InvalidParameterError(
                f"unknown aggregation {aggregation!r}; "
                "expected 'mean' or 'median-of-means'"
            )
        # Construction-time configuration: a resumed counter is rebuilt
        # by its factory with the same arguments, and the engine's own
        # state travels through the delegated state_dict/load_state_dict.
        self.engine = (  # repro: derived
            engine_cls(num_estimators, seed=seed) if pool is None else pool.share()
        )
        self._engine_name = engine  # repro: derived
        self._aggregation = aggregation  # repro: derived
        self._groups = groups  # repro: derived

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_accuracy(
        cls,
        eps: float,
        delta: float,
        *,
        m: int,
        max_degree: int,
        triangles: int,
        **kwargs,
    ) -> "TriangleCounter":
        """Size the estimator pool per Theorem 3.3 and build the counter.

        ``m``, ``max_degree`` and ``triangles`` are (estimates of) the
        stream's parameters; the theorem's ``r`` is conservative, and the
        paper's experiments show far fewer estimators usually suffice.
        """
        r = estimators_needed(
            eps, delta, m=m, max_degree=max_degree, triangles=triangles
        )
        return cls(r, **kwargs)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    @property
    def engine_name(self) -> str:
        return self._engine_name

    def update(self, edge: tuple[int, int]) -> None:
        """Observe one stream edge."""
        self.engine.update(edge)

    @property
    def uses_batch_context(self) -> bool:
        """Whether the engine reads the shared per-batch array index."""
        return getattr(self.engine, "uses_batch_context", False)

    def state_dict(self) -> dict:
        """The engine's serializable state (checkpoint/ship surface).

        Only engines that implement the
        :class:`~repro.streaming.protocol.CheckpointableEstimator`
        protocol (the vectorized one does) support this.
        """
        return self._checkpointable("state_dict")()

    def load_state_dict(self, state: dict) -> None:
        """Restore an engine snapshot in place (see :meth:`state_dict`)."""
        self._checkpointable("load_state_dict")(state)

    def merge(self, other: "TriangleCounter") -> None:
        """Absorb ``other``'s estimator pool (same stream observed)."""
        engine = other.engine if isinstance(other, TriangleCounter) else other
        self._checkpointable("merge")(engine)

    def _checkpointable(self, method: str):
        op = getattr(self.engine, method, None)
        if op is None:
            raise InvalidParameterError(
                f"engine {self._engine_name!r} does not support {method}()"
            )
        return op

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimates(self):
        """Per-estimator unbiased estimates ``tau~``."""
        return self.engine.estimates()

    def estimate(self) -> float:
        """The aggregated triangle-count estimate."""
        if self._aggregation == "mean":
            return aggregate_mean(self.estimates())
        return aggregate_median_of_means(self.estimates(), self._groups)

    def fraction_holding_triangle(self) -> float:
        """Fraction of estimators whose ``t`` is set.

        The diagnostic behind the paper's Buriol-et-al. comparison: an
        algorithm whose samplers rarely complete a triangle produces
        low-quality estimates.
        """
        estimates = np.asarray(self.engine.estimates())
        if estimates.size == 0:
            return 0.0
        return float((estimates > 0).mean())
