"""Tests for wedge counting and transitivity estimation (Section 3.5)."""

import numpy as np
import pytest

from repro.core.transitivity import TransitivityEstimator, WedgeCounter
from repro.core.triangle_count import TriangleCounter
from repro.core.vectorized import VectorizedTriangleCounter
from repro.errors import EmptyStreamError, InvalidParameterError
from repro.exact import count_triangles, count_wedges, transitivity_coefficient
from repro.generators import complete_graph, holme_kim, star_graph
from repro.streaming import Pipeline
from repro.streaming.batch import EdgeBatch
from tests.conftest import assert_mean_close


class TestWedgeCounter:
    def test_unbiased_on_star(self):
        # Star with 12 leaves: zeta = C(12, 2) = 66, no triangles.
        edges = star_graph(12)
        counter = WedgeCounter(30_000, seed=0)
        counter.update_batch(edges)
        assert_mean_close(list(counter.estimates()), 66)

    def test_unbiased_on_social_graph(self, small_social_graph):
        edges, _ = small_social_graph
        zeta = count_wedges(edges)
        counter = WedgeCounter(20_000, seed=1)
        counter.update_batch(edges)
        assert abs(counter.estimate() - zeta) / zeta < 0.05

    def test_single_edge_has_no_wedges(self):
        counter = WedgeCounter(100, seed=2)
        counter.update((0, 1))
        assert counter.estimate() == 0.0

    def test_api_counters(self):
        counter = WedgeCounter(10, seed=3)
        counter.update_batch([(0, 1), (1, 2)])
        assert counter.edges_seen == 2
        assert counter.num_estimators == 10


class TestTransitivityEstimator:
    def test_requires_positive_pool(self):
        with pytest.raises(InvalidParameterError):
            TransitivityEstimator(0)

    def test_complete_graph_transitivity_one(self):
        edges = complete_graph(12)
        est = TransitivityEstimator(8_000, seed=4)
        est.update_batch(edges)
        assert est.estimate() == pytest.approx(1.0, abs=0.15)

    def test_star_raises_without_triangles_but_wedges_ok(self):
        est = TransitivityEstimator(5_000, seed=5)
        est.update_batch(star_graph(10))
        assert est.estimate() == pytest.approx(0.0, abs=1e-9)

    def test_no_wedge_estimate_raises(self):
        est = TransitivityEstimator(50, seed=6)
        est.update((0, 1))  # single edge: zeta estimate is 0
        with pytest.raises(EmptyStreamError):
            est.estimate()

    def test_matches_exact_on_social_graph(self, small_social_graph):
        edges, _ = small_social_graph
        kappa = transitivity_coefficient(edges)
        est = TransitivityEstimator(25_000, seed=7)
        est.update_batch(edges)
        assert est.estimate() == pytest.approx(kappa, rel=0.25)

    def test_component_estimates_accessible(self, small_social_graph):
        edges, _ = small_social_graph
        est = TransitivityEstimator(5_000, seed=8)
        est.update_batch(edges)
        assert est.triangle_estimate() > 0
        assert est.wedge_estimate() > 0
        assert est.edges_seen == len(edges)

    def test_one_pool_serves_both_estimates(self, small_social_graph):
        """tau' is the triangle counter at sub-seed 2s, bit for bit, and
        zeta' is the mean of that same pool's wedge estimates."""
        edges, _ = small_social_graph
        est = TransitivityEstimator(1_000, seed=9)
        counter = TriangleCounter(1_000, seed=18)
        est.update_batch(edges)
        counter.update_batch(edges)
        assert est.num_estimators == 1_000
        assert est.triangle_estimate() == counter.estimate()
        assert est.wedge_estimate() == float(np.mean(counter.engine.wedge_estimates()))

    def test_retired_two_pool_checkpoint_is_rejected(self):
        old = TransitivityEstimator(50, seed=1)
        old.update_batch(complete_graph(5))
        retired = {"triangles": old.state_dict(), "wedges": old.state_dict()}
        with pytest.raises(InvalidParameterError):
            TransitivityEstimator(50, seed=1).load_state_dict(retired)

    def test_per_edge_update_path(self):
        est = TransitivityEstimator(200, seed=10)
        for e in complete_graph(6):
            est.update(e)
        assert est.edges_seen == 15


class TestTransitivityAccuracy:
    """The kappa and zeta legs of the accuracy gate (Theorem 3.12).

    K seeds of a small pool on a Holme-Kim graph with exact counts
    (m=11,984, tau=4,047, zeta=227,845). Both one-pool estimates must
    be unbiased, and reading zeta' from the triangle pool must not make
    kappa' noisier than the two-pool design, which pairs the same
    triangle pool (sub-seed 2s) with a separate wedge pool (2s + 1).
    """

    K, R = 200, 2_000

    @pytest.fixture(scope="class")
    def draws(self):
        edges = holme_kim(3000, 4, 0.4, seed=5)
        batch = EdgeBatch.from_edges(edges)
        one, two = np.empty((self.K, 2)), np.empty((self.K, 2))
        corun = np.empty((self.K, 2))
        for s in range(self.K):
            est = TransitivityEstimator(self.R, seed=s)
            est.update_batch(batch)
            wedge_pool = VectorizedTriangleCounter(self.R, seed=2 * s + 1)
            wedge_pool.update_batch(batch)
            one[s] = est.triangle_estimate(), est.wedge_estimate()
            two[s] = one[s, 0], wedge_pool.wedge_estimates().mean()
            # Co-run: transitivity reads the pool count builds.
            report = Pipeline.from_registry(
                ["count", "transitivity"], num_estimators=self.R, seed=s
            ).run(batch, batch_size=len(batch))
            corun[s] = (
                report["count"].results["triangles"],
                report["transitivity"].results["wedges"],
            )
            assert report["transitivity"].results["triangles"] == corun[s, 0]
        return count_triangles(edges), count_wedges(edges), one, two, corun

    def test_tau_and_zeta_unbiased(self, draws):
        tau, zeta, one, _, _ = draws
        z = (one.mean(axis=0) - [tau, zeta]) / (one.std(axis=0, ddof=1) / np.sqrt(self.K))
        assert np.all(np.abs(z) <= 4.0), f"bias z-scores (tau', zeta') = {z}"

    def test_kappa_variance_no_worse_than_two_pools(self, draws):
        _, _, one, two, _ = draws
        var_one = np.var(3 * one[:, 0] / one[:, 1], ddof=1)
        var_two = np.var(3 * two[:, 0] / two[:, 1], ddof=1)
        assert var_one <= 1.1 * var_two, f"var(kappa') {var_one:.3g} vs two pools {var_two:.3g}"

    def test_corun_tau_unbiased(self, draws):
        """Theorem 3.3 holds for co-run count: its tau' is unbiased."""
        tau, _, _, _, corun = draws
        z = (corun[:, 0].mean() - tau) / (corun[:, 0].std(ddof=1) / np.sqrt(self.K))
        assert abs(z) <= 4.0, f"co-run tau' bias z-score {z:.2f}"

    def test_corun_kappa_variance_no_worse_than_standalone(self, draws):
        """Theorem 3.12 holds for co-run transitivity: reading count's
        pool leaves var(kappa') where the standalone estimator has it.

        The two legs run on independent pools (seeds ``2s`` against
        ``derive_seed(s, "count")``), so their sample variances differ
        by chance alone: the log of the ratio has standard deviation
        about ``2 / sqrt(K - 1)``, 0.14 at K=200. The bound is that
        noise at the 4-sigma level the bias legs use, not the 1.1x that
        fits the paired one-pool/two-pool comparison above.
        """
        _, _, one, _, corun = draws
        var_one = np.var(3 * one[:, 0] / one[:, 1], ddof=1)
        var_corun = np.var(3 * corun[:, 0] / corun[:, 1], ddof=1)
        bound = np.exp(4.0 * 2.0 / np.sqrt(self.K - 1))
        assert var_corun <= bound * var_one, (
            f"var(kappa') co-run {var_corun:.3g} vs standalone {var_one:.3g}"
        )
