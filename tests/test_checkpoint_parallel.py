"""Tests for state checkpointing, pool merging, and the parallel counter."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.parallel import ParallelTriangleCounter, count_triangles_parallel
from repro.core.vectorized import VectorizedTriangleCounter
from repro.errors import InvalidParameterError, WorkerCrashedError
from repro.streaming import FaultPlan, ShardedPipeline
from repro.streaming.source import as_source
from repro.streaming.supervisor import (
    EstimatorShardProgram,
    ShardExecutor,
    ShardSupervisor,
    Supervision,
    _WorkerDown,
)
from tests.conftest import assert_mean_close


def build_counter(edges, r, seed):
    counter = VectorizedTriangleCounter(r, seed=seed)
    counter.update_batch(edges)
    return counter


def restore(state, seed=None):
    counter = VectorizedTriangleCounter(1, seed=seed)
    counter.load_state_dict(state)
    return counter


def merge_all(counters):
    merged = restore(counters[0].state_dict())
    for counter in counters[1:]:
        merged.merge(counter)
    return merged


class TestCheckpoint:
    def test_round_trip_preserves_estimates(self, small_er_graph):
        edges, _ = small_er_graph
        counter = build_counter(edges, 500, seed=1)
        restored = restore(counter.state_dict())
        assert restored.edges_seen == counter.edges_seen
        assert np.array_equal(restored.estimates(), counter.estimates())
        assert np.array_equal(restored.tset, counter.tset)

    def test_restored_counter_keeps_streaming(self, small_er_graph):
        """A restored counter continues correctly: the invariant
        c = |N(r1)| still holds after more edges arrive."""
        from repro.exact import neighborhood_sizes
        from repro.graph import EdgeStream

        edges, _ = small_er_graph
        half = len(edges) // 2
        counter = build_counter(edges[:half], 300, seed=3)
        restored = restore(counter.state_dict())
        restored.update_batch(edges[half:])
        true_c = neighborhood_sizes(EdgeStream(edges, validate=False))
        for i in range(restored.num_estimators):
            r1 = (int(restored.r1u[i]), int(restored.r1v[i]))
            assert restored.c[i] == true_c[r1]

    def test_missing_fields_rejected(self):
        with pytest.raises(InvalidParameterError):
            restore({"edges_seen": 3})

    def test_mismatched_lengths_rejected(self, small_er_graph):
        edges, _ = small_er_graph
        state = build_counter(edges, 10, seed=0).state_dict()
        state["c"] = state["c"][:5]
        with pytest.raises(InvalidParameterError):
            restore(state)


class TestMerge:
    def test_merged_pool_concatenates(self, small_er_graph):
        edges, _ = small_er_graph
        a = build_counter(edges, 300, seed=1)
        b = build_counter(edges, 200, seed=2)
        merged = merge_all([a, b])
        assert merged.num_estimators == 500
        assert merged.edges_seen == len(edges)
        expected = list(a.estimates()) + list(b.estimates())
        assert list(merged.estimates()) == expected

    def test_merged_estimate_is_pooled_mean(self, small_er_graph):
        edges, tau = small_er_graph
        parts = [build_counter(edges, 5_000, seed=s) for s in range(6)]
        merged = merge_all(parts)
        assert_mean_close(list(merged.estimates()), tau, z=6.0)

    def test_merge_requires_same_stream_position(self, small_er_graph):
        edges, _ = small_er_graph
        a = build_counter(edges, 10, seed=1)
        b = build_counter(edges[:-1], 10, seed=2)
        with pytest.raises(InvalidParameterError):
            merge_all([a, b])

    def test_merge_of_unstreamed_pools(self):
        """Pools that have seen no edge yet merge (both at position 0)
        into a pool that estimates zero and can start streaming."""
        merged = merge_all(
            [VectorizedTriangleCounter(4, seed=1), VectorizedTriangleCounter(3, seed=2)]
        )
        assert merged.num_estimators == 7
        assert merged.edges_seen == 0
        assert merged.estimate() == 0.0
        merged.update_batch([(0, 1), (1, 2), (0, 2)])
        assert merged.edges_seen == 3

    def test_merged_counter_keeps_streaming(self, small_er_graph):
        edges, _ = small_er_graph
        half = len(edges) // 2
        a = build_counter(edges[:half], 100, seed=1)
        b = build_counter(edges[:half], 100, seed=2)
        merged = merge_all([a, b])
        merged.update_batch(edges[half:])
        assert merged.edges_seen == len(edges)


#: Both multiprocess front-ends, built with ``kwargs`` over a pool of 64.
FRONT_ENDS = {
    "parallel": lambda **kwargs: ParallelTriangleCounter(64, **kwargs),
    "sharded": lambda **kwargs: ShardedPipeline(
        ["count"], num_estimators=64, **kwargs
    ),
}


class TestParallel:
    def test_invalid_pool_size(self):
        with pytest.raises(InvalidParameterError):
            ParallelTriangleCounter(0)

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": 0},
            {"transport": "tcp"},
            {"max_restarts": -1},
            {"worker_deadline": 0},
            {"snapshot_every": -3, "max_restarts": 1},
            {"restart_backoff": -1.0},
        ],
        ids=repr,
    )
    def test_invalid_configuration(self, front_end, bad):
        """Both front-ends share one validation of every execution knob."""
        with pytest.raises(InvalidParameterError):
            FRONT_ENDS[front_end](**bad)

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_bad_batch_size_rejected_before_any_spawn_or_journal(
        self, front_end, small_er_graph, tmp_path, monkeypatch
    ):
        edges, _ = small_er_graph
        spawned = []
        monkeypatch.setattr(
            ShardSupervisor, "_spawn", lambda self, i: spawned.append(i)
        )
        runner = FRONT_ENDS[front_end](workers=2, max_restarts=1)
        journal = tmp_path / "journal"
        with pytest.raises(InvalidParameterError, match="batch_size"):
            if front_end == "sharded":
                runner.run(edges, batch_size=0, journal_dir=journal)
            else:
                runner.count(edges, batch_size=0)
        assert not journal.exists()
        assert spawned == []

    def test_merged_requires_count_first(self):
        counter = ParallelTriangleCounter(10, workers=1)
        with pytest.raises(InvalidParameterError):
            _ = counter.merged

    def test_single_worker_matches_vectorized_semantics(self, small_er_graph):
        edges, tau = small_er_graph
        estimate = count_triangles_parallel(
            edges, 8_000, workers=1, seed=5, batch_size=128
        )
        assert abs(estimate - tau) / tau < 0.5

    def test_two_workers_accurate(self, small_social_graph):
        edges, tau = small_social_graph
        counter = ParallelTriangleCounter(16_000, workers=2, seed=7)
        estimate = counter.count(edges, batch_size=4_096)
        assert abs(estimate - tau) / tau < 0.25
        assert counter.merged.num_estimators == 16_000

    def test_shard_sizes_cover_pool(self):
        counter = ParallelTriangleCounter(10, workers=3)
        assert sum(counter._shard_sizes()) == 10
        assert max(counter._shard_sizes()) - min(counter._shard_sizes()) <= 1

    def test_same_seed_is_deterministic(self, small_er_graph):
        edges, _ = small_er_graph
        first = count_triangles_parallel(edges, 2_000, workers=2, seed=11,
                                         batch_size=512)
        second = count_triangles_parallel(edges, 2_000, workers=2, seed=11,
                                          batch_size=512)
        assert first == second

    def test_seed_none_draws_fresh_entropy(self, small_er_graph):
        """seed=None must not silently degrade to a fixed seed: two runs
        over the same stream should (with overwhelming probability) make
        different reservoir decisions."""
        edges, _ = small_er_graph

        def reservoir_decisions():
            counter = ParallelTriangleCounter(500, workers=1, seed=None)
            counter.count(edges, batch_size=512)
            return tuple(counter.merged.r1pos.tolist())

        assert reservoir_decisions() != reservoir_decisions()

    def test_worker_error_propagates_instead_of_hanging(self, small_er_graph):
        """A worker-side failure (here: vertex id outside the engine's
        [0, 2^31) domain) must surface in the parent, not deadlock the
        batch queues."""
        edges, _ = small_er_graph
        poisoned = list(edges) + [(5, 1 << 40)]
        counter = ParallelTriangleCounter(100, workers=2, seed=0)
        with pytest.raises(InvalidParameterError, match="vertex ids"):
            counter.count(poisoned, batch_size=64)

    def test_streams_from_a_one_shot_generator(self, small_er_graph):
        """The stream is read once and fed batch-by-batch: a one-shot
        generator (no len, no slicing, not replayable) suffices."""
        edges, tau = small_er_graph
        estimate = count_triangles_parallel(
            iter(edges), 8_000, workers=2, seed=5, batch_size=256
        )
        assert abs(estimate - tau) / tau < 0.5


def count_program(num_estimators, seed):
    return EstimatorShardProgram(
        [{"name": "count", "num_estimators": num_estimators, "seed": seed, "options": {}}]
    )


class _SilentExitProgram(EstimatorShardProgram):
    """A shard worker that exits cleanly (code 0) without reporting."""

    def consume(self, batch):
        os._exit(0)


def fail_fast_run(programs, edges, fault_plan=None):
    """Run ``programs`` through the one executor at ``max_restarts=0``."""
    executor = ShardExecutor("queue", Supervision(max_restarts=0), fault_plan)
    return executor.run(programs, as_source(edges), batch_size=64)


class _ExitedProcess:
    """Stands in for a worker process that has already exited."""

    def __init__(self, exitcode):
        self.exitcode = exitcode

    def is_alive(self):
        return False


@pytest.fixture
def dead_worker_supervisor():
    """A fail-fast supervisor whose only worker has exited with code 0
    (nothing spawned); tests stage what that worker left on the
    out-queue before the liveness check runs."""
    supervisor = ShardSupervisor(
        multiprocessing.get_context(),
        [count_program(10, 1)],
        transport="queue",
        batch_size=64,
        policy=Supervision(max_restarts=0),
    )
    supervisor._procs[0] = _ExitedProcess(0)
    yield supervisor
    supervisor._procs[0] = None
    supervisor._shutdown(failed=True)
    # A staged message nobody read must not block interpreter exit.
    supervisor._out_queue.cancel_join_thread()
    supervisor._out_queue.close()


class TestSilentWorkerDeath:
    """A worker that dies before posting must raise, whatever its exit
    code, on the executor's fail-fast path (``max_restarts=0``)."""

    @pytest.mark.timeout(30)
    def test_clean_exit_without_result_raises_instead_of_hanging(
        self, small_er_graph
    ):
        """exitcode 0 + no result used to spin on a result wait forever."""
        edges, _ = small_er_graph
        programs = [count_program(50, 1), _SilentExitProgram(count_program(50, 2).specs)]
        with pytest.raises(WorkerCrashedError, match="exitcode 0"):
            fail_fast_run(programs, edges)

    @pytest.mark.timeout(30)
    def test_nonzero_exit_without_result_raises(self, small_er_graph):
        edges, _ = small_er_graph
        programs = [count_program(50, 1), count_program(50, 2)]
        with pytest.raises(WorkerCrashedError, match="exitcode -9"):
            fail_fast_run(
                programs, edges, fault_plan=FaultPlan.parse("kill:w0@b1")
            )

    @pytest.mark.timeout(30)
    def test_posted_result_wins_over_dead_process(self, dead_worker_supervisor):
        """A worker that posted and then exited is not a crash: its
        result, larger than a pipe buffer, is still in the queue
        feeder's pipe when the liveness check finds the process gone."""
        supervisor = dead_worker_supervisor
        final = ({"count": {"c": np.arange(1 << 18)}}, {"count": 0.0})
        supervisor._out_queue.put(("done", 0, 0, ("ok", final, None)))
        supervisor._check_alive()
        assert np.array_equal(
            supervisor._finals[0][0]["count"]["c"], final[0]["count"]["c"]
        )

    @pytest.mark.timeout(30)
    def test_posted_error_wins_over_dead_process(self, dead_worker_supervisor):
        """A worker that raised ships its exception and exits 0; the
        liveness check surfaces that exception, not an anonymous death."""
        supervisor = dead_worker_supervisor
        error = InvalidParameterError("bad shard")
        supervisor._out_queue.put(("done", 0, 0, ("error", error, "tb")))
        with pytest.raises(_WorkerDown) as down:
            supervisor._check_alive()
        assert isinstance(down.value.exc, InvalidParameterError)
        assert down.value.tb == "tb"

    @pytest.mark.timeout(30)
    def test_dead_process_without_result_is_down(self, dead_worker_supervisor):
        with pytest.raises(_WorkerDown, match="exitcode 0"):
            dead_worker_supervisor._check_alive()
        assert 0 not in dead_worker_supervisor._finals

    @pytest.mark.timeout(60)
    def test_end_to_end_clean_exit_worker_detected(
        self, small_er_graph, monkeypatch
    ):
        """A full count() whose worker exits cleanly without reporting
        must fail with WorkerCrashedError, not stall."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched worker body needs fork inheritance")

        monkeypatch.setattr(
            EstimatorShardProgram, "consume", _SilentExitProgram.consume
        )
        edges, _ = small_er_graph
        counter = ParallelTriangleCounter(
            100, workers=2, seed=0, transport="queue"
        )
        with pytest.raises(WorkerCrashedError):
            counter.count(edges[:100], batch_size=64)


class TestMergedSeedDerivation:
    """Regression tests for the merged counter reusing the root seed."""

    def test_merged_rng_uses_dedicated_spawn_child(self, small_er_graph):
        edges, _ = small_er_graph
        counter = ParallelTriangleCounter(64, workers=2, seed=5)
        counter.count(edges, batch_size=512)
        children = np.random.SeedSequence(5).spawn(3)
        expected = np.random.default_rng(children[-1])
        assert (
            counter.merged._rng.bit_generator.state
            == expected.bit_generator.state
        )

    def test_merged_rng_not_root_and_not_a_worker_stream(self, small_er_graph):
        """The old code seeded the merged counter with the raw root
        seed: its future draws were the exact sequence the worker
        SeedSequences were spawned from."""
        edges, _ = small_er_graph
        counter = ParallelTriangleCounter(64, workers=2, seed=5)
        counter.count(edges, batch_size=512)
        merged_draws = counter.merged._rng.integers(0, 1 << 62, 8).tolist()
        root_draws = np.random.default_rng(5).integers(0, 1 << 62, 8).tolist()
        assert merged_draws != root_draws
        for child in np.random.SeedSequence(5).spawn(2):
            worker_draws = (
                np.random.default_rng(child).integers(0, 1 << 62, 8).tolist()
            )
            assert merged_draws != worker_draws

    def test_worker_seeds_unchanged_by_the_extra_child(self, small_er_graph):
        """spawn(workers + 1) extends spawn(workers): the first children
        are identical, so fixed-seed results are stable across the fix."""
        first_two = [
            s.generate_state(2).tolist() for s in np.random.SeedSequence(5).spawn(2)
        ]
        first_of_three = [
            s.generate_state(2).tolist() for s in np.random.SeedSequence(5).spawn(3)
        ][:2]
        assert first_two == first_of_three
