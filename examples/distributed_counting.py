"""Distributed-style triangle counting: checkpoint, merge, parallelize.

Estimators are independent, so the estimator pool shards across
machines or cores trivially: every shard observes the same stream, and
shards merge by concatenation. This example demonstrates the full
workflow the library supports:

1. two "nodes" each stream the same edges with their own estimator pool;
2. node A checkpoints mid-stream and restores (simulating a restart);
3. the final states merge into one pool whose estimate pools all
   estimators;
4. the same computation runs through the multiprocessing front-end;
5. the generalized production path: a whole estimator fan-out sharded
   across workers (`ShardedPipeline`), and durable on-disk
   checkpoint/resume for every registered estimator at once.

Run:  python examples/distributed_counting.py
"""

import tempfile

from example_utils import scaled

from repro import EdgeStream, exact_triangle_count
from repro.core.parallel import count_triangles_parallel
from repro.core.vectorized import VectorizedTriangleCounter
from repro.generators import holme_kim
from repro.streaming import Pipeline, ShardedPipeline


def main() -> None:
    edges = list(EdgeStream(holme_kim(scaled(2500, minimum=300), 4, 0.55, seed=77), validate=False).shuffled(3))
    true_tau = exact_triangle_count(edges)
    half = len(edges) // 2
    print(f"stream: {len(edges)} edges, true triangles = {true_tau}")

    # --- node A: stream, checkpoint halfway, restore, continue --------
    node_a = VectorizedTriangleCounter(scaled(20_000), seed=1)
    node_a.update_batch(edges[:half])
    checkpoint = node_a.state_dict()
    array_bytes = sum(
        v.nbytes for v in checkpoint.values() if hasattr(v, "nbytes")
    )
    print(f"node A checkpointed at {checkpoint['edges_seen']} edges "
          f"({array_bytes:,} bytes of array state)")
    node_a = VectorizedTriangleCounter(1)   # simulated restart
    node_a.load_state_dict(checkpoint)      # restores node A's generator too
    node_a.update_batch(edges[half:])

    # --- node B: independent pool over the same stream ----------------
    node_b = VectorizedTriangleCounter(scaled(20_000), seed=2)
    node_b.update_batch(edges)

    # --- merge: one pooled estimate ------------------------------------
    # The merged pool gets its own generator: adopting node A's would
    # replay node A's future draws.
    merged = VectorizedTriangleCounter(1, seed=3)
    merged.load_state_dict(
        {k: v for k, v in node_a.state_dict().items() if k != "rng"}
    )
    merged.merge(node_b)
    for name, counter in (("node A", node_a), ("node B", node_b), ("merged", merged)):
        est = counter.estimate()
        print(f"{name:>7}: r={counter.num_estimators:>6,}  estimate={est:9.1f}  "
              f"error={abs(est - true_tau) / true_tau:6.2%}")

    # --- multiprocessing front-end -------------------------------------
    est = count_triangles_parallel(edges, scaled(40_000), workers=2, seed=5)
    print(f"parallel (2 workers, r=40k): estimate={est:.1f}  "
          f"error={abs(est - true_tau) / true_tau:.2%}")

    # --- generalized: shard a whole fan-out across workers -------------
    sharded = ShardedPipeline(
        ["count", "transitivity"], workers=2, num_estimators=scaled(20_000), seed=5
    )
    report = sharded.run(edges, batch_size=4_096)
    tau_hat = report["count"].results["triangles"]
    print(f"sharded pipeline (2 workers): count={tau_hat:.1f}  "
          f"transitivity={report['transitivity'].results['transitivity']:.4f}")

    # --- durable checkpoint/resume for the whole fan-out ----------------
    cut = 4_096  # a batch boundary, so the resumed replay is bit-exact
    with tempfile.TemporaryDirectory() as ckpt:
        first = Pipeline.from_registry(
            ["count", "transitivity"], num_estimators=scaled(20_000), seed=5
        )
        # a one-shot stream that dries up early stands in for the kill
        first.run(iter(edges[:cut]), batch_size=4_096, checkpoint_path=ckpt)
        resumed = Pipeline.from_registry(
            ["count", "transitivity"], num_estimators=scaled(20_000), seed=5
        ).resume(ckpt)
        # feeding the same full stream: the first `cut` edges are
        # skipped automatically, the rest continue bit-identically
        report = resumed.run(edges, batch_size=4_096)
        tau_hat = report["count"].results["triangles"]
        print(f"checkpoint/resume: count={tau_hat:.1f}  "
              f"error={abs(tau_hat - true_tau) / true_tau:.2%}")


if __name__ == "__main__":
    main()
