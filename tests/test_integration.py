"""End-to-end integration tests across modules.

These exercise realistic pipelines: file -> stream -> counter -> report,
multiple estimators sharing a stream, and full runs of the experiment
runners on tiny configurations.
"""

import pytest

from repro import (
    EdgeStream,
    TransitivityEstimator,
    TriangleCounter,
    TriangleSampler,
    exact_triangle_count,
    transitivity_coefficient,
)
from repro.baselines import ExactStreamingCounter, JowhariGhodsiCounter
from repro.experiments.harness import run_trials, stream_through
from repro.generators import holme_kim
from repro.graph import read_edge_list, write_edge_list


class TestFileToEstimatePipeline:
    def test_disk_backed_streaming(self, tmp_path, small_social_graph):
        """Write a dataset to disk, stream it back, estimate triangles."""
        edges, tau = small_social_graph
        path = tmp_path / "network.edges"
        write_edge_list(path, edges)
        loaded = read_edge_list(path)
        assert loaded == list(EdgeStream(edges, validate=False))

        counter = TriangleCounter(20_000, seed=0)
        elapsed = stream_through(counter, loaded, batch_size=4096)
        assert elapsed >= 0
        assert abs(counter.estimate() - tau) / tau < 0.25


class TestMultipleConsumersOneStream:
    def test_all_estimators_agree_on_one_pass(self, small_social_graph):
        """One pass over the stream feeds every estimator type at once --
        the deployment pattern the streaming model exists for."""
        edges, tau = small_social_graph
        kappa = transitivity_coefficient(edges)

        triangle_counter = TriangleCounter(15_000, seed=1)
        sampler = TriangleSampler(5_000, seed=2)
        transitivity = TransitivityEstimator(15_000, seed=3)
        exact = ExactStreamingCounter()

        for start in range(0, len(edges), 512):
            batch = edges[start : start + 512]
            triangle_counter.update_batch(batch)
            sampler.update_batch(batch)
            transitivity.update_batch(batch)
            exact.update_batch(batch)

        assert exact.triangles == tau
        assert abs(triangle_counter.estimate() - tau) / tau < 0.25
        assert transitivity.estimate() == pytest.approx(kappa, rel=0.5)
        tri = sampler.sample_one()
        if tri is not None:
            from repro.exact import list_triangles

            assert tri in set(list_triangles(edges))


class TestHarnessAgainstRealCounters:
    def test_run_trials_with_vectorized_counter(self, small_social_graph):
        edges, tau = small_social_graph
        stats = run_trials(
            lambda seed: TriangleCounter(8_000, seed=seed),
            lambda seed: list(EdgeStream(edges, validate=False).shuffled(seed)),
            true_value=tau,
            trials=3,
            batch_size=2048,
        )
        assert stats.mean_deviation < 40.0
        assert len(stats.estimates) == 3

    def test_baseline_and_ours_same_protocol(self, small_er_graph):
        edges, tau = small_er_graph
        ours = run_trials(
            lambda seed: TriangleCounter(2_000, seed=seed),
            lambda seed: edges,
            true_value=tau,
            trials=2,
        )
        jg = run_trials(
            lambda seed: JowhariGhodsiCounter(500, seed=seed),
            lambda seed: edges,
            true_value=tau,
            trials=2,
        )
        assert ours.median_time >= 0 and jg.median_time >= 0


class TestStreamOrderRobustness:
    def test_estimates_stable_across_orders(self):
        """The algorithm works for arbitrary (adversarial) orders: an
        estimate from a sorted stream and a random stream both land."""
        edges = holme_kim(400, 4, 0.6, seed=5)
        tau = exact_triangle_count(edges)
        for order_seed in (None, 1, 2):
            stream = (
                sorted(edges)
                if order_seed is None
                else list(EdgeStream(edges, validate=False).shuffled(order_seed))
            )
            counter = TriangleCounter(20_000, seed=9)
            counter.update_batch(stream)
            assert abs(counter.estimate() - tau) / tau < 0.30
