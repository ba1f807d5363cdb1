"""Social-network analysis from a single streaming pass.

The paper's motivating application: transitivity ("a friend of a friend
is a friend") and triangle statistics of a social graph, computed in one
pass with bounded memory. This example streams a synthetic social
network through three estimators at once -- triangle count, wedge
count, transitivity -- and also draws uniformly random triangles, then
checks everything against exact offline computation.

Run:  python examples/social_network_analysis.py
"""

from example_utils import scaled

from repro import (
    EdgeStream,
    TransitivityEstimator,
    TriangleCounter,
    TriangleSampler,
    exact_triangle_count,
    exact_wedge_count,
    transitivity_coefficient,
)
from repro.generators import holme_kim


def main() -> None:
    # A social graph: heavy-tailed with strong triadic closure.
    edges = holme_kim(scaled(3000, minimum=300), 5, 0.6, seed=2024)
    stream = list(EdgeStream(edges, validate=False).shuffled(seed=3))
    m = len(stream)

    # One pass, three consumers.
    counter = TriangleCounter(scaled(40_000), seed=10)
    transitivity = TransitivityEstimator(scaled(40_000), seed=11)
    sampler = TriangleSampler(scaled(20_000), seed=12)
    batch_size = 16_384
    for start in range(0, m, batch_size):
        batch = stream[start : start + batch_size]
        counter.update_batch(batch)
        transitivity.update_batch(batch)
        sampler.update_batch(batch)

    true_tau = exact_triangle_count(edges)
    true_zeta = exact_wedge_count(edges)
    true_kappa = transitivity_coefficient(edges)

    print(f"stream length m = {m}")
    print(f"{'metric':<24}{'streaming':>14}{'exact':>14}{'error':>9}")
    rows = [
        ("triangles tau", counter.estimate(), true_tau),
        ("wedges zeta", transitivity.wedge_estimate(), true_zeta),
        ("transitivity kappa", transitivity.estimate(), true_kappa),
    ]
    for name, est, true in rows:
        err = abs(est - true) / true * 100
        print(f"{name:<24}{est:>14.2f}{true:>14.2f}{err:>8.2f}%")

    print("\nfive uniformly sampled triangles (with replacement):")
    for tri in sampler.sample(5):
        print(f"  {tri}")
    print(f"sampler success fraction: {sampler.success_fraction():.2%} "
          f"(Lemma 3.7 predicts >= tau/(2 m Delta) per sampler)")


if __name__ == "__main__":
    main()
