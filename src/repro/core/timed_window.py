"""Time-based sliding windows: triangles among edges newer than a horizon.

Section 5.2 treats *sequence-based* windows (the last ``w`` edges). The
natural practical variant keys expiry on timestamps instead: at query
time ``t`` the graph of interest is every edge with
``timestamp > t - horizon``. The chain-sampling construction carries
over unchanged -- the chain is still the suffix minima of the
priorities, expiry just pops by timestamp rather than position -- and
the estimate scales by the *current* window size, which the counter
tracks exactly with one timestamp deque shared by all its samplers.

Timestamps must be non-decreasing (a stream, not a log replay).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import InvalidParameterError
from ..graph.edge import canonical_edge
from ..rng import RandomSource, spawn_sources
from .sliding_window import _ChainLink

__all__ = ["TimedWindowSampler", "TimedWindowTriangleCounter"]


class _ExpiryClock:
    """The window's clock: in-window arrival times, latest time, arrivals.

    One clock per stream: a :class:`TimedWindowTriangleCounter` owns one
    and its ``r`` samplers read it, so the in-window timestamps are held
    once, not ``r`` times (O(w + r log w) state, per Theorem 5.8).
    """

    __slots__ = ("timestamps", "now", "edges_seen")

    def __init__(self) -> None:
        self.timestamps: deque[float] = deque()
        self.now = float("-inf")
        self.edges_seen = 0

    def advance(self, timestamp: float, horizon: float) -> None:
        """Count one arrival at ``timestamp``; keep only in-window times."""
        if timestamp < self.now:
            raise InvalidParameterError(
                f"timestamps must be non-decreasing, got {timestamp} after {self.now}"
            )
        self.now = timestamp
        self.edges_seen += 1
        cutoff = timestamp - horizon
        while self.timestamps and self.timestamps[0] <= cutoff:
            self.timestamps.popleft()
        self.timestamps.append(timestamp)

    def load(self, state: dict) -> None:
        self.edges_seen = int(state["edges_seen"])
        self.now = float(state["now"])
        self.timestamps = deque(float(t) for t in state["timestamps"])


class TimedWindowSampler:
    """One estimator over a timestamped stream with a time horizon.

    A standalone sampler owns its expiry clock; the samplers of a
    :class:`TimedWindowTriangleCounter` share their counter's.
    """

    def __init__(
        self,
        horizon: float,
        seed: int | None = None,
        *,
        rng: RandomSource | None = None,
        clock: _ExpiryClock | None = None,
    ) -> None:
        if horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        self.horizon = horizon
        self._rng = rng if rng is not None else RandomSource(seed)
        self._chain: deque[_ChainLink] = deque()
        self._clock = clock if clock is not None else _ExpiryClock()

    @property
    def edges_seen(self) -> int:
        return self._clock.edges_seen

    @property
    def now(self) -> float:
        return self._clock.now

    def update(self, edge: tuple[int, int], timestamp: float) -> None:
        """Observe one edge at ``timestamp`` (non-decreasing)."""
        e = canonical_edge(*edge)
        self._clock.advance(timestamp, self.horizon)
        self._observe(e)

    def _observe(self, e: tuple[int, int]) -> None:
        """The chain step for the arrival the clock just counted."""
        clock = self._clock
        # Chain links store arrival positions; the clock's timestamps
        # are the last len(clock.timestamps) arrivals, the current one
        # included, so the window holds positions
        # > edges_seen - len(clock.timestamps).
        alive_from = clock.edges_seen - len(clock.timestamps) + 1
        while self._chain and self._chain[0].pos < alive_from:
            self._chain.popleft()
        for link in self._chain:
            link.observe(e, self._rng)
        rho = self._rng.random()
        while self._chain and self._chain[-1].rho >= rho:
            self._chain.pop()
        self._chain.append(_ChainLink(e, clock.edges_seen, rho))

    def state_dict(self) -> dict:
        """Snapshot: the chain, in-window timestamps, and rng state.

        Timestamps are stored as a float64 array (they can number up to
        the window size), so the on-disk checkpoint keeps them in the
        npz member rather than the JSON manifest.
        """
        return {
            "horizon": self.horizon,
            "edges_seen": self._clock.edges_seen,
            "now": self._clock.now,
            "chain": [link.state_dict() for link in self._chain],
            "timestamps": np.asarray(self._clock.timestamps, dtype=np.float64),
            "rng": self._rng.getstate(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        horizon = float(state["horizon"])
        if horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        self.horizon = horizon
        self._clock.load(state)
        self._load_chain(state)

    def _load_chain(self, state: dict) -> None:
        self._chain = deque(
            _ChainLink.from_state_dict(link) for link in state["chain"]
        )
        if state.get("rng") is not None:
            self._rng.setstate(state["rng"])

    def window_size(self) -> int:
        """Number of edges currently inside the horizon."""
        return len(self._clock.timestamps)

    def triangle_estimate(self) -> float:
        """Unbiased estimate of the window's triangle count."""
        if not self._chain:
            return 0.0
        head = self._chain[0]
        if head.t is None:
            return 0.0
        return float(head.c) * self.window_size()

    def chain_length(self) -> int:
        return len(self._chain)


class TimedWindowTriangleCounter:
    """``r`` independent :class:`TimedWindowSampler` s, averaged."""

    def __init__(
        self, num_estimators: int, horizon: float, *, seed: int | None = None
    ) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        sources = spawn_sources(seed, num_estimators)
        self._clock = _ExpiryClock()
        self._samplers = [
            TimedWindowSampler(horizon, rng=src, clock=self._clock) for src in sources
        ]
        self.horizon = horizon

    @property
    def num_estimators(self) -> int:
        return len(self._samplers)

    @property
    def edges_seen(self) -> int:
        return self._clock.edges_seen

    def update(self, edge: tuple[int, int], timestamp: float) -> None:
        e = canonical_edge(*edge)
        self._clock.advance(timestamp, self.horizon)
        for sampler in self._samplers:
            sampler._observe(e)

    def update_batch(self, timed_edges) -> None:
        """Observe ``(edge, timestamp)`` pairs in order."""
        for edge, timestamp in timed_edges:
            self.update(edge, timestamp)

    def window_size(self) -> int:
        return len(self._clock.timestamps)

    def estimate(self) -> float:
        values = [s.triangle_estimate() for s in self._samplers]
        return sum(values) / len(values)

    def state_dict(self) -> dict:
        """Snapshot: every timed sampler, in pool order."""
        return {
            "horizon": self.horizon,
            "edges_seen": self.edges_seen,
            "samplers": [s.state_dict() for s in self._samplers],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Adopts the snapshot's horizon and pool size wholesale. Every
        sampler state carries the same clock; the first one is loaded
        into the one clock the new pool shares.
        """
        if not state["samplers"]:
            raise InvalidParameterError("state dict holds no samplers")
        horizon = float(state["horizon"])
        clock = _ExpiryClock()
        clock.load(state["samplers"][0])
        samplers = []
        for sampler_state in state["samplers"]:
            sampler = TimedWindowSampler(horizon, clock=clock)
            sampler._load_chain(sampler_state)
            samplers.append(sampler)
        self._clock = clock
        self._samplers = samplers
        self.horizon = horizon

    def merge(self, other: "TimedWindowTriangleCounter") -> None:
        """Absorb ``other``'s sampler pool (same stream, same horizon)."""
        if other.horizon != self.horizon:
            raise InvalidParameterError(
                f"cannot merge horizon {other.horizon} into {self.horizon}"
            )
        if other.edges_seen != self.edges_seen:
            raise InvalidParameterError(
                "cannot merge counters that observed different streams "
                f"({other.edges_seen} edges vs {self.edges_seen})"
            )
        for sampler in other._samplers:
            sampler._clock = self._clock  # same stream, same clock
        self._samplers.extend(other._samplers)
