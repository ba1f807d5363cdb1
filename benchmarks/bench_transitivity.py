"""Transitivity-coefficient estimation across the datasets (Theorem 3.12).

The paper gives the algorithm (Section 3.5) without an evaluation table;
this benchmark documents its behaviour on the Figure 3 workloads:

1. the estimate ``kappa' = 3 tau' / zeta'`` lands near the exact
   coefficient wherever the triangle pool is adequate;
2. the wedge estimator is *far* easier than the triangle estimator
   (zeta >> tau on sparse graphs), matching Lemma 3.11's sizing -- a
   small wedge pool already nails zeta, which is why the transitivity
   estimator reads zeta' from its triangle pool instead of a second one.
"""

import pytest

from repro.core.transitivity import TransitivityEstimator, WedgeCounter
from repro.exact import transitivity_coefficient
from repro.experiments.datasets import load_dataset

EASY_DATASETS = ("dblp_like", "syn_d_regular", "amazon_like")


@pytest.fixture(scope="module")
def estimates():
    results = {}
    for name in EASY_DATASETS:
        dataset = load_dataset(name)
        exact = transitivity_coefficient(dataset.stream().to_graph())
        est = TransitivityEstimator(65_536, seed=1)
        edges = list(dataset.stream(order="random", seed=2))
        for start in range(0, len(edges), 262_144):
            est.update_batch(edges[start : start + 262_144])
        results[name] = (exact, est.estimate())
    return results


def test_transitivity_benchmark(benchmark):
    dataset = load_dataset("dblp_like")

    def run():
        est = TransitivityEstimator(16_384, seed=0)
        est.update_batch(dataset.edges)
        return est.estimate()

    value = benchmark.pedantic(run, rounds=1, iterations=1)
    assert value > 0


def test_transitivity_tracks_exact(estimates):
    for name, (exact, estimate) in estimates.items():
        assert estimate == pytest.approx(exact, rel=0.35), (
            f"{name}: kappa' = {estimate:.4f} vs exact {exact:.4f}"
        )


def test_wedge_pool_is_cheap():
    """Lemma 3.11: zeta is estimated well with a small pool, because
    m * Delta / zeta is tiny compared to m * Delta / tau."""
    from repro.exact import count_wedges

    dataset = load_dataset("youtube_like")  # hardest triangle dataset
    zeta = count_wedges(dataset.stream().to_graph())
    counter = WedgeCounter(4_096, seed=3)
    counter.update_batch(dataset.edges)
    assert abs(counter.estimate() - zeta) / zeta < 0.15


def test_transitivity_ranking_matches_exact():
    """Across datasets, the estimated kappa preserves the exact
    ordering (clique-union graph is most transitive)."""
    exact_order = {}
    estimated_order = {}
    for name in EASY_DATASETS:
        dataset = load_dataset(name)
        exact_order[name] = transitivity_coefficient(dataset.stream().to_graph())
        est = TransitivityEstimator(32_768, seed=4)
        est.update_batch(dataset.edges)
        estimated_order[name] = est.estimate()
    exact_rank = sorted(exact_order, key=exact_order.get)
    est_rank = sorted(estimated_order, key=estimated_order.get)
    assert exact_rank == est_rank
