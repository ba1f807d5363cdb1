"""The paper's contribution: neighborhood sampling and everything on top.

Every estimator here satisfies the
:class:`~repro.streaming.protocol.StreamingEstimator` protocol
(``update_batch`` + ``estimate``), so any of them can be driven by the
:class:`~repro.streaming.Pipeline` fan-out runner or fed from a lazy
:class:`~repro.streaming.EdgeSource`. The three triangle-counter
engines self-register into :data:`repro.streaming.ENGINES`; the
user-facing algorithms register specs in
:data:`repro.streaming.ESTIMATORS`.

- :mod:`repro.core.neighborhood_sampling` -- Algorithm 1 (per-edge
  reference implementation of a single estimator);
- :mod:`repro.core.triangle_count` -- the (eps, delta) triangle counter:
  estimator arrays, mean and median-of-means aggregation, engine
  selection by registry name (reference / bulk / vectorized / yours);
- :mod:`repro.core.accuracy` -- the sizing formulas of Theorems 3.3,
  3.4, 3.8 and Lemma 3.11;
- :mod:`repro.core.bulk` -- Section 3.3 bulk processing (``bulkTC``);
- :mod:`repro.core.vectorized` -- numpy array engine with the same
  semantics as ``bulkTC`` (also the checkpoint/merge substrate);
- :mod:`repro.core.triangle_sample` -- uniform triangle sampling
  (Lemma 3.7, Theorem 3.8);
- :mod:`repro.core.transitivity` -- wedge and transitivity estimation
  (Section 3.5);
- :mod:`repro.core.parallel` -- estimator-pool sharding across
  processes, fed batch-by-batch from a single stream read;
- :mod:`repro.core.cliques4` / :mod:`repro.core.cliques` -- 4-clique and
  general l-clique counting (Section 5.1);
- :mod:`repro.core.sliding_window` / :mod:`repro.core.timed_window` --
  windowed triangle counting (Section 5.2);
- :mod:`repro.core.triest_fd` / :mod:`repro.core.dynamic_sampler` --
  deletion-capable triangle counting over fully-dynamic (turnstile)
  streams.
"""

from .accuracy import (
    error_bound,
    estimators_needed,
    estimators_needed_sampling,
    estimators_needed_tangle,
    estimators_needed_wedges,
    s_eps_delta,
)
from .cliques import CliqueCounter
from .cliques4 import CliqueCounter4, FourCliqueSamplerTypeI, FourCliqueSamplerTypeII
from .dynamic_sampler import DynamicGraphSampler, DynamicSamplerCounter
from .incidence import IncidenceStream, IncidenceTriangleCounter
from .neighborhood_sampling import NeighborhoodSampler
from .parallel import ParallelTriangleCounter, count_triangles_parallel
from .timed_window import TimedWindowSampler, TimedWindowTriangleCounter
from .sliding_window import SlidingWindowTriangleCounter
from .transitivity import TransitivityEstimator, WedgeCounter
from .triangle_count import TriangleCounter, aggregate_mean, aggregate_median_of_means
from .triangle_sample import TriangleSampler
from .triest_fd import TriestFdCounter, TriestFdSampler

__all__ = [
    "CliqueCounter",
    "CliqueCounter4",
    "DynamicGraphSampler",
    "DynamicSamplerCounter",
    "FourCliqueSamplerTypeI",
    "FourCliqueSamplerTypeII",
    "IncidenceStream",
    "IncidenceTriangleCounter",
    "NeighborhoodSampler",
    "ParallelTriangleCounter",
    "TimedWindowSampler",
    "TimedWindowTriangleCounter",
    "count_triangles_parallel",
    "SlidingWindowTriangleCounter",
    "TransitivityEstimator",
    "TriangleCounter",
    "TriangleSampler",
    "TriestFdCounter",
    "TriestFdSampler",
    "WedgeCounter",
    "aggregate_mean",
    "aggregate_median_of_means",
    "error_bound",
    "estimators_needed",
    "estimators_needed_sampling",
    "estimators_needed_tangle",
    "estimators_needed_wedges",
    "s_eps_delta",
]
