"""Tests for time-based sliding-window triangle counting."""

import pytest

from repro.core.timed_window import TimedWindowSampler, TimedWindowTriangleCounter
from repro.errors import InvalidParameterError
from repro.exact import count_triangles
from repro.generators import erdos_renyi
from tests.conftest import assert_mean_close


def timed(edges, spacing=1.0, start=0.0):
    return [(e, start + i * spacing) for i, e in enumerate(edges)]


class TestSampler:
    def test_invalid_horizon(self):
        with pytest.raises(InvalidParameterError):
            TimedWindowSampler(0)

    def test_timestamps_must_be_monotone(self):
        s = TimedWindowSampler(10.0, seed=0)
        s.update((0, 1), 5.0)
        with pytest.raises(InvalidParameterError):
            s.update((1, 2), 4.0)

    def test_window_size_tracks_horizon(self):
        s = TimedWindowSampler(horizon=2.5, seed=1)
        for e, t in timed([(i, i + 1) for i in range(10)]):
            s.update(e, t)
        # horizon 2.5 with spacing 1.0: edges at t in (6.5, 9] survive.
        assert s.window_size() == 3

    def test_all_edges_survive_wide_horizon(self):
        s = TimedWindowSampler(horizon=100.0, seed=2)
        for e, t in timed([(i, i + 1) for i in range(10)]):
            s.update(e, t)
        assert s.window_size() == 10

    def test_triangle_expires_by_time(self):
        s_edges = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(10, 30)]
        for seed in range(50):
            s = TimedWindowSampler(horizon=5.0, seed=seed)
            for e, t in timed(s_edges):
                s.update(e, t)
            assert s.triangle_estimate() == 0.0

    def test_burst_of_simultaneous_edges(self):
        """Equal timestamps are allowed and expire together."""
        s = TimedWindowSampler(horizon=1.0, seed=3)
        for e in [(0, 1), (1, 2), (0, 2)]:
            s.update(e, 7.0)
        assert s.window_size() == 3
        s.update((5, 6), 8.5)
        assert s.window_size() == 1


class TestUnbiasedness:
    def test_matches_window_truth(self):
        edges = erdos_renyi(30, 120, seed=4)
        horizon = 60.0  # with unit spacing: the last 60 edges
        exact = count_triangles(edges[-60:])
        estimates = []
        for seed in range(4000):
            s = TimedWindowSampler(horizon=horizon, seed=seed)
            for e, t in timed(edges):
                s.update(e, t)
            estimates.append(s.triangle_estimate())
        assert_mean_close(estimates, exact, z=6.0)


class TestCounter:
    def test_requires_positive_pool(self):
        with pytest.raises(InvalidParameterError):
            TimedWindowTriangleCounter(0, 10.0)

    def test_estimate_tracks_window(self):
        edges = erdos_renyi(30, 150, seed=5)
        horizon = 80.0
        exact = count_triangles(edges[-80:])
        counter = TimedWindowTriangleCounter(3000, horizon, seed=6)
        counter.update_batch(timed(edges))
        assert exact > 0
        assert abs(counter.estimate() - exact) / exact < 0.5
        assert counter.window_size() == 80

    def test_irregular_timestamps(self):
        """Bursty arrivals: timestamps cluster then jump."""
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        times = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
        counter = TimedWindowTriangleCounter(2000, horizon=1.0, seed=7)
        for e, t in zip(edges, times):
            counter.update(e, t)
        # Only the second triangle {2,3,4} is inside the 1.0 horizon.
        assert counter.window_size() == 3
        assert_mean_close(
            [s.triangle_estimate() for s in counter._samplers], 1.0, z=6.0
        )


class TestSharedClock:
    """A pool of r samplers holds the window's timestamps once."""

    @staticmethod
    def _traced_bytes(name, options, edges):
        import tracemalloc

        from repro.streaming import Pipeline

        tracemalloc.start()
        try:
            pipe = Pipeline.from_registry(
                [name], num_estimators=32, seed=1, options={name: options}
            )
            pipe.run(edges, batch_size=4096)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_pool_memory_matches_sliding_window(self):
        import numpy as np

        rng = np.random.default_rng(0)
        edges = rng.integers(0, 2000, size=(14_000, 2))
        edges = edges[edges[:, 0] != edges[:, 1]][:7000]
        window = 6000
        timed_bytes = self._traced_bytes(
            "timed-window", {"horizon": float(window)}, edges
        )
        sliding_bytes = self._traced_bytes("sliding-window", {"window": window}, edges)
        assert timed_bytes <= 3 * sliding_bytes, (timed_bytes, sliding_bytes)

    def test_counter_matches_standalone_samplers(self):
        """Sharing the clock changes no draw: each pooled sampler ends
        in the state of a standalone sampler on the same rng."""
        from repro.rng import spawn_sources

        stream = timed(erdos_renyi(25, 120, seed=3), spacing=0.5)
        counter = TimedWindowTriangleCounter(8, horizon=20.0, seed=4)
        counter.update_batch(stream)
        alone = [TimedWindowSampler(20.0, rng=src) for src in spawn_sources(4, 8)]
        for sampler in alone:
            for edge, t in stream:
                sampler.update(edge, t)
        for pooled, single in zip(counter._samplers, alone):
            assert pooled.state_dict().keys() == single.state_dict().keys()
            for key, value in single.state_dict().items():
                if key == "timestamps":
                    assert list(pooled.state_dict()[key]) == list(value)
                else:
                    assert pooled.state_dict()[key] == value, key

    def test_restored_and_merged_pools_share_one_clock(self):
        stream = timed(erdos_renyi(20, 60, seed=8))
        a = TimedWindowTriangleCounter(4, horizon=15.0, seed=1)
        b = TimedWindowTriangleCounter(4, horizon=15.0, seed=2)
        a.update_batch(stream)
        b.update_batch(stream)
        restored = TimedWindowTriangleCounter(1, horizon=1.0)
        restored.load_state_dict(a.state_dict())
        restored.merge(b)
        assert {id(s._clock) for s in restored._samplers} == {id(restored._clock)}
        assert restored.window_size() == 15
        assert restored.edges_seen == len(stream)
