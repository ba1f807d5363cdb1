"""Multi-trial experiment runner with the paper's reporting conventions.

Section 4.1: "we perform five trials with different random seeds and
report (1) the mean deviation (relative error) values from the true
answer across the trials, (2) the median wall-clock overall runtime, and
(3) the median I/O time." :func:`run_trials` implements exactly that
protocol for any counter with the ``update_batch`` / ``estimate`` API.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from ..errors import InvalidParameterError
from ..graph.edge import Edge
from ..streaming.pipeline import Pipeline
from ..streaming.source import EdgeSource

__all__ = ["TrialStats", "run_trials", "stream_through", "time_file_read"]


class _Counter(Protocol):  # pragma: no cover - typing helper
    def update_batch(self, batch: Sequence[Edge]) -> None: ...
    def estimate(self) -> float: ...


def stream_through(
    counter: _Counter,
    edges: Sequence[Edge] | EdgeSource | str,
    batch_size: int,
) -> float:
    """Feed an edge source to ``counter`` in batches; return elapsed seconds.

    ``edges`` is anything :func:`~repro.streaming.source.as_source`
    accepts: an in-memory sequence (the historical calling convention),
    a file path, a generator, or an :class:`EdgeSource`. The pass is a
    one-estimator :class:`~repro.streaming.pipeline.Pipeline` run whose
    report queries nothing.
    """
    pipeline = Pipeline([("counter", counter)], reporters={"counter": lambda _: {}})
    return pipeline.run(edges, batch_size=batch_size).seconds


def time_file_read(path: str | os.PathLike) -> float:
    """Seconds to read and parse an edge-list file (Table 3's I/O column)."""
    from ..graph.io import read_edge_list

    start = time.perf_counter()
    read_edge_list(path, deduplicate=False)
    return time.perf_counter() - start


@dataclass
class TrialStats:
    """Aggregated results of repeated randomized trials."""

    true_value: float
    estimates: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    @property
    def deviations(self) -> list[float]:
        """Relative errors in percent, one per trial."""
        if self.true_value == 0:
            raise InvalidParameterError("true value is zero; deviation undefined")
        return [
            abs(est - self.true_value) / self.true_value * 100.0
            for est in self.estimates
        ]

    @property
    def mean_deviation(self) -> float:
        """The paper's headline accuracy metric (MD, in percent)."""
        return statistics.fmean(self.deviations)

    @property
    def min_deviation(self) -> float:
        return min(self.deviations)

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)

    @property
    def median_time(self) -> float:
        """Median wall-clock seconds across trials."""
        return statistics.median(self.times)

    def throughput(self, num_edges: int) -> float:
        """Edges per second at the median time."""
        if not self.times or self.median_time == 0:
            return float("inf")
        return num_edges / self.median_time

    def summary(self) -> str:
        return (
            f"dev min/mean/max = {self.min_deviation:.2f}/"
            f"{self.mean_deviation:.2f}/{self.max_deviation:.2f} %  "
            f"median time = {self.median_time:.3f}s"
        )


def run_trials(
    counter_factory: Callable[[int], _Counter],
    stream_factory: Callable[[int], Sequence[Edge]],
    *,
    true_value: float,
    trials: int = 5,
    batch_size: int = 8192,
    base_seed: int = 0,
) -> TrialStats:
    """Run ``trials`` randomized trials and aggregate per Section 4.1.

    Parameters
    ----------
    counter_factory:
        ``seed -> counter``; a fresh counter per trial.
    stream_factory:
        ``seed -> edge source`` (a sequence, file path, generator, or
        :class:`~repro.streaming.source.EdgeSource`); the paper
        randomizes the stream order between trials, so the factory
        receives the trial seed too.
    true_value:
        The exact quantity being estimated.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    stats = TrialStats(true_value=float(true_value))
    for trial in range(trials):
        seed = base_seed + trial
        counter = counter_factory(seed)
        edges = stream_factory(seed)
        elapsed = stream_through(counter, edges, batch_size)
        stats.estimates.append(float(counter.estimate()))
        stats.times.append(elapsed)
    return stats
