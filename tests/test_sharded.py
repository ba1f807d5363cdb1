"""ShardedPipeline: multiprocess sharding of every registered estimator.

The load-bearing property: a multiprocess sharded run is **bit-identical**
to executing the same worker plan (same shard sizes, same derived
seeds, same batches) sequentially in one process and merging through
the CheckpointableEstimator protocol -- process boundaries add nothing
but wall-clock parallelism. Hang regressions in the worker plumbing
fail fast under the module-wide timeout.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.generators import holme_kim
from repro.streaming import (
    ESTIMATORS,
    ShardedPipeline,
    derive_shard_seed,
    shard_sizes,
)
from repro.streaming.batch import EdgeBatch
from repro.streaming.source import EdgeSource, as_source
from repro.streaming.supervisor import EstimatorShardProgram

pytestmark = pytest.mark.timeout(120)

NAMES = [
    "count",
    "transitivity",
    "exact",
    "sample",
    "sliding-window",
    "cliques4",
    "triest-fd",
    "dynamic-sampler",
]
OPTIONS = {
    "sliding-window": {"window": 512},
    "triest-fd": {"memory": 256},
    "dynamic-sampler": {"p": 0.5},
}


@pytest.fixture(scope="module")
def stream_array():
    edges = holme_kim(300, 4, 0.5, seed=21)
    return np.asarray(edges, dtype=np.int64)


def _simulate(sharded: ShardedPipeline, arr, batch_size):
    """Run the sharded plan sequentially in-process and merge."""
    per_worker = []
    for specs in sharded.worker_specs():
        program = EstimatorShardProgram(specs)
        program.build()
        for batch in as_source(arr).batches(batch_size):
            program.consume(batch)
        per_worker.append(dict(program.pairs))
    merged = {}
    for name in sharded.names:
        for worker in per_worker:
            if name not in worker:
                continue
            if name not in merged:
                merged[name] = worker[name]
            else:
                merged[name].merge(worker[name])
    return merged


class TestPlan:
    def test_shard_sizes_split_evenly(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(1, 4) == [1, 0, 0, 0]
        assert shard_sizes(8, 1) == [8]
        with pytest.raises(InvalidParameterError):
            shard_sizes(0, 2)
        with pytest.raises(InvalidParameterError):
            shard_sizes(4, 0)

    def test_derive_shard_seed_is_deterministic_and_distinct(self):
        seeds = {
            derive_shard_seed(7, name, worker)
            for name in ("count", "sample")
            for worker in range(4)
        }
        assert len(seeds) == 8  # no collisions across names or workers
        assert derive_shard_seed(7, "count", 2) == derive_shard_seed(7, "count", 2)
        assert derive_shard_seed(None, "count", 0) is None

    def test_shard_seeds_disjoint_from_single_process_derivation(self):
        """Regression: SeedSequence zero-pads entropy, so an unsalted
        [seed, crc, 0] collides with derive_seed's [seed, crc] -- worker
        0 would replay the single-process pool's exact random stream."""
        from repro.streaming import derive_seed

        for name in ("count", "sample", "sliding-window"):
            single = derive_seed(7, name)
            for worker in range(4):
                assert derive_shard_seed(7, name, worker) != single

    def test_unknown_estimator_fails_fast(self):
        with pytest.raises(InvalidParameterError, match="unknown estimator"):
            ShardedPipeline(["count", "nope"], workers=2)

    def test_small_pools_run_on_fewer_workers(self):
        sharded = ShardedPipeline(["exact", "count"], workers=3, num_estimators=2)
        specs = sharded.worker_specs()
        # exact has a pool of one: only worker 0 builds it
        assert [any(s["name"] == "exact" for s in w) for w in specs] == [
            True,
            False,
            False,
        ]
        # count's pool of 2 lands on the first two workers
        assert [any(s["name"] == "count" for s in w) for w in specs] == [
            True,
            True,
            False,
        ]


class TestExecution:
    BATCH = 256

    def test_multiprocess_matches_in_process_merge_bit_exactly(
        self, stream_array
    ):
        sharded = ShardedPipeline(
            NAMES, workers=2, num_estimators=16, seed=7, options=OPTIONS
        )
        report = sharded.run(stream_array, batch_size=self.BATCH)

        reference = ShardedPipeline(
            NAMES, workers=2, num_estimators=16, seed=7, options=OPTIONS
        )
        merged = _simulate(reference, stream_array, self.BATCH)
        for name in NAMES:
            expected = ESTIMATORS.get(name).report(merged[name])
            assert report[name].results == expected, name

    def test_sharded_run_is_reproducible(self, stream_array):
        results = []
        for _ in range(2):
            sharded = ShardedPipeline(
                ["count", "exact"], workers=2, num_estimators=32, seed=5
            )
            report = sharded.run(stream_array, batch_size=self.BATCH)
            results.append([r.results for r in report.estimators])
        assert results[0] == results[1]

    def test_single_worker_runs_in_process(self, stream_array):
        sharded = ShardedPipeline(
            ["count", "exact"], workers=1, num_estimators=32, seed=5
        )
        report = sharded.run(stream_array, batch_size=self.BATCH)
        assert report.edges == stream_array.shape[0]
        # workers=1 uses the same seed derivation as the sharded plan
        merged = _simulate(
            ShardedPipeline(["count", "exact"], workers=1, num_estimators=32, seed=5),
            stream_array,
            self.BATCH,
        )
        assert report["count"].results == ESTIMATORS.get("count").report(
            merged["count"]
        )

    def test_exact_estimator_with_more_workers_than_pool(self, stream_array):
        from repro.exact import count_triangles

        sharded = ShardedPipeline(["exact"], workers=3, seed=0)
        report = sharded.run(stream_array, batch_size=self.BATCH)
        truth = count_triangles([tuple(e) for e in stream_array.tolist()])
        assert report["exact"].results["triangles"] == truth

    def test_merged_estimators_answer_further_queries(self, stream_array):
        sharded = ShardedPipeline(
            ["count"], workers=2, num_estimators=32, seed=3
        )
        sharded.run(stream_array, batch_size=self.BATCH)
        merged = sharded.estimator("count")
        assert merged.num_estimators == 32
        assert merged.edges_seen == stream_array.shape[0]
        # the merged pool keeps streaming
        merged.update_batch([(1, 2), (2, 3)])
        with pytest.raises(KeyError):
            sharded.estimator("nope")

    def test_estimator_before_run_raises(self):
        sharded = ShardedPipeline(["count"], workers=2)
        with pytest.raises(InvalidParameterError, match="run"):
            sharded.estimator("count")

    def test_matches_single_process_distribution(self, stream_array):
        """Sharded estimates agree with the fan-out in distribution:
        same pool totals, same stream, estimates land within the pool's
        sampling noise of the exact count."""
        from repro.exact import count_triangles

        truth = count_triangles([tuple(e) for e in stream_array.tolist()])
        sharded = ShardedPipeline(
            ["count"], workers=2, num_estimators=4096, seed=11
        )
        report = sharded.run(stream_array, batch_size=self.BATCH)
        estimate = report["count"].results["triangles"]
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_worker_error_propagates(self, stream_array):
        """An estimator blowing up in a worker surfaces as the original
        exception, not a hang."""
        stream = [tuple(e) for e in stream_array.tolist()] + [(5, 5)]  # self-loop
        sharded = ShardedPipeline(
            ["count"], workers=2, num_estimators=8, seed=1
        )
        with pytest.raises(InvalidParameterError):
            sharded.run(iter(stream), batch_size=64)

    def test_non_checkpointable_estimator_fails_before_streaming(self):
        """An estimator that cannot ship state back is rejected up
        front, not discovered inside a worker after the stream pass."""
        from repro.streaming import register_estimator

        @register_estimator("opaque-for-shard-test", default_estimators=4)
        def _make_opaque(num_estimators, seed):
            class Opaque:
                def update_batch(self, batch):
                    pass

                def estimate(self):
                    return 0.0

            return Opaque()

        sharded = ShardedPipeline(["opaque-for-shard-test"], workers=2)
        with pytest.raises(InvalidParameterError, match="state_dict"):
            sharded.run([(0, 1), (1, 2)], batch_size=2)

    def test_failure_after_stream_does_not_deadlock(self, stream_array):
        """Regression: an exception raised *after* the sentinel was
        consumed (e.g. inside state_dict) used to re-drain the empty
        queue and hang worker and parent forever. The module timeout
        turns a regression back into a failure."""
        import multiprocessing

        from repro.streaming import register_estimator

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("test-registered estimator needs fork inheritance")

        @register_estimator("boom-state-for-shard-test", default_estimators=4)
        def _make_boom(num_estimators, seed):
            class BoomState:
                def update_batch(self, batch):
                    pass

                def estimate(self):
                    return 0.0

                def load_state_dict(self, state):
                    pass

                def merge(self, other):
                    pass

                def state_dict(self):
                    raise RuntimeError("post-stream snapshot failure")

            return BoomState()

        sharded = ShardedPipeline(["boom-state-for-shard-test"], workers=2)
        with pytest.raises(RuntimeError, match="post-stream"):
            sharded.run(stream_array[:256], batch_size=64)


class _SleepySource(EdgeSource):
    """A memory source whose every batch pull takes at least ``delay``."""

    def __init__(self, arr, delay):
        self._arr = arr
        self._delay = delay

    def batches(self, batch_size):
        for start in range(0, self._arr.shape[0], batch_size):
            time.sleep(self._delay)
            yield EdgeBatch(self._arr[start : start + batch_size])


@pytest.mark.parametrize(
    "workers, max_restarts",
    [(1, 0), (2, 0), (2, 1)],
    ids=["in-process", "workers", "supervised"],
)
def test_io_seconds_times_the_parent_stream_pulls(
    stream_array, workers, max_restarts
):
    """Regression: the sharded report always said ``io_seconds=0.0``."""
    delay, batch_size = 0.02, 256
    n_batches = -(-stream_array.shape[0] // batch_size)
    sharded = ShardedPipeline(
        ["count"],
        workers=workers,
        num_estimators=32,
        seed=5,
        max_restarts=max_restarts,
    )
    report = sharded.run(_SleepySource(stream_array, delay), batch_size=batch_size)
    assert report.batches == n_batches
    assert n_batches * delay <= report.io_seconds <= report.seconds
