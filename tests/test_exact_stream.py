"""The columnar exact counter against its dict-of-sets reference.

:class:`~repro.baselines.ExactStreamingCounter` keeps a sorted packed-key
index and counts a batch in vectorized passes; ``exact_reference`` keeps
the per-vertex neighbour sets it replaced. Every number they report --
triangles, wedges, edges seen, the checkpointed edge array -- must agree
on any stream, however it is split into batches and checkpoints.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import ReferenceExactCounter
from repro.baselines import ExactStreamingCounter
from repro.errors import InvalidEdgeError, InvalidParameterError
from repro.generators import holme_kim
from repro.streaming.batch import EdgeBatch

TOP = 2**31 - 1


def assert_same(counter, reference):
    assert counter.triangles == reference.triangles
    assert counter.wedges == reference.wedges
    assert counter.edges_seen == reference.edges_seen
    ours, theirs = counter.state_dict()["edges"], reference.state_dict()["edges"]
    assert ours.dtype == theirs.dtype == np.int64
    assert ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)


def feed(counter, chunk, how):
    """One step of a mixed feed: every entry point reaches the index."""
    if how == "batch":
        counter.update_batch(EdgeBatch.from_edges(chunk))
    elif how == "list":
        counter.update_batch(chunk)
    elif how == "array":
        counter.update_batch(np.array(chunk, dtype=np.int64).reshape(-1, 2))
    else:
        for edge in chunk:
            counter.update(edge)


def restored(counter):
    """A fresh counter loaded from ``counter``'s checkpoint."""
    clone = ExactStreamingCounter()
    clone.load_state_dict(counter.state_dict())
    return clone


edge_streams = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
    max_size=90,
)
steps = st.lists(
    st.tuples(
        st.integers(1, 24),
        st.sampled_from(["batch", "list", "array", "update"]),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


class TestReferenceParity:
    @given(edge_streams, steps)
    @settings(max_examples=150, deadline=None)
    def test_any_split_matches_reference(self, edges, plan):
        """Repeats within and across batches, 1-edge batches, per-edge
        ``update`` interleaved with ``update_batch``, random split sizes
        across run folds and checkpoint round trips mid-stream."""
        counter, reference = ExactStreamingCounter(), ReferenceExactCounter()
        start = 0
        for size, how, checkpoint in plan * (len(edges) + 1):
            if start >= len(edges):
                break
            chunk = edges[start : start + size]
            start += size
            feed(counter, chunk, how)
            reference.update_batch(chunk)
            if checkpoint:
                counter = restored(counter)
            assert_same(counter, reference)

    def test_batch_of_only_seen_edges(self):
        """No new keys at all: the closing lookups must skip the empty
        in-batch index instead of indexing into it."""
        counter, reference = ExactStreamingCounter(), ReferenceExactCounter()
        triangle = [(0, 1), (1, 2), (0, 2), (2, 3)]
        for batch in (triangle, triangle[::-1], [(0, 2)], triangle + triangle):
            counter.update_batch(batch)
            reference.update_batch(batch)
            assert_same(counter, reference)

    def test_repeat_is_an_event_over_the_unchanged_graph(self):
        counter = ExactStreamingCounter()
        counter.update_batch([(0, 1), (1, 2), (0, 2), (0, 2), (1, 0)])
        # The first (0, 2) closes the triangle; each repeat sees the
        # same closed triangle and the same degrees again.
        assert counter.triangles == 3
        assert counter.wedges == 0 + 1 + 2 + 4 + 4
        assert counter.state_size_edges() == 3

    def test_small_batches_cross_run_folds(self):
        """Single-edge and odd-sized batches grow the recent run, fold it
        into the base several times, and still count exactly -- with
        repeats of recent edges (held in the run) and of old ones (held
        in the base) mixed in."""
        edges = holme_kim(300, 3, 0.5, seed=2)
        counter, reference = ExactStreamingCounter(), ReferenceExactCounter()
        rng = np.random.default_rng(5)
        folds = runs = start = 0
        while start < len(edges):
            size = int(rng.integers(1, 9))
            chunk = edges[start : start + size]
            if start:
                recent = edges[max(0, start - 8) : start]
                chunk = chunk + [recent[int(rng.integers(len(recent)))]]
                chunk.insert(0, edges[int(rng.integers(start))])
            start += size
            before = counter._base.size
            counter.update_batch(chunk)
            reference.update_batch(chunk)
            folds += counter._base.size > before
            runs += counter._run.size > 0
        assert folds > 3 and runs > 3
        assert_same(counter, reference)
        assert counter.max_degree() == max(len(n) for n in reference._adj.values())

    def test_power_law_stream_in_large_batches(self):
        """Large enough that the membership filter regrows mid-stream."""
        edges = holme_kim(2_000, 5, 0.6, seed=1)
        reference = ReferenceExactCounter()
        reference.update_batch(edges)
        for w in (257, 4_096, len(edges)):
            counter = ExactStreamingCounter()
            for batch in EdgeBatch.from_edges(edges).batches(w):
                counter.update_batch(batch)
            assert counter._log_bits > 16
            assert_same(counter, reference)
            assert_same(restored(counter), reference)


class TestIdContract:
    @pytest.mark.parametrize("edge", [(-1, 3), (0, 2**31), (2**40, 1), (0.5, 2)])
    def test_out_of_contract_ids_raise_naming_the_limit(self, edge):
        for call in (
            lambda c: c.update(edge),
            lambda c: c.update_batch([(0, 1), edge]),
        ):
            counter = ExactStreamingCounter()
            with pytest.raises(InvalidParameterError, match=r"\[0, 2\^31\)"):
                call(counter)
            assert counter.edges_seen == 0

    def test_self_loops_keep_raising_invalid_edge(self):
        counter = ExactStreamingCounter()
        with pytest.raises(InvalidEdgeError, match="self-loop at vertex 4"):
            counter.update((4, 4))
        with pytest.raises(InvalidEdgeError, match="self-loop at vertex 4"):
            counter.update_batch([(0, 1), (4, 4)])
        with pytest.raises(InvalidEdgeError):
            counter.update_batch(np.array([[4, 4]]))
        assert counter.edges_seen == 0

    def test_ids_near_the_limit_allocate_by_edges_not_ids(self):
        hub = [(TOP - 1 - i, TOP) for i in range(40)]
        ring = [(TOP - 1 - i, TOP - 2 - i) for i in range(39)]
        edges = hub + ring + [(0, TOP), (0, TOP - 1)]
        reference = ReferenceExactCounter()
        reference.update_batch(edges)
        tracemalloc.start()
        try:
            counter = ExactStreamingCounter()
            counter.update_batch(edges[:50])
            for edge in edges[50:]:
                counter.update(edge)
            degree = counter.max_degree()
            counter = restored(counter)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert degree == 41
        assert_same(counter, reference)


class TestLoadStateValidation:
    def _state(self, edges):
        return {
            "edges": np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            "edges_seen": 3,
            "triangles": 0,
            "wedges": 0,
        }

    @pytest.mark.parametrize(
        "edges, reason",
        [
            ([(0, 1), (2, 2)], "canonical"),
            ([(0, 1), (0, 1)], "sorted and unique"),
            ([(1, 2), (0, 1)], "sorted and unique"),
            ([(1, 0)], "canonical"),
            ([(-1, 2)], r"\[0, 2\^31\)"),
            ([(0, 2**31)], r"\[0, 2\^31\)"),
        ],
    )
    def test_rejects_rows_that_would_restore_wrong_degrees(self, edges, reason):
        counter = ExactStreamingCounter()
        with pytest.raises(InvalidParameterError, match=reason):
            counter.load_state_dict(self._state(edges))

    def test_rejects_malformed_arrays(self):
        counter = ExactStreamingCounter()
        for edges in (np.zeros((2, 3), dtype=np.int64), np.array([[0.0, 1.0]])):
            state = self._state([]) | {"edges": edges}
            with pytest.raises(InvalidParameterError, match="integer array"):
                counter.load_state_dict(state)

    def test_dict_of_sets_checkpoints_load_and_continue(self):
        """A checkpoint in the layout the dict-of-sets counter wrote
        restores, every restored edge predating every later event."""
        edges = holme_kim(400, 4, 0.5, seed=3)
        reference = ReferenceExactCounter()
        reference.update_batch(edges[:700])
        counter = ExactStreamingCounter()
        counter.load_state_dict(reference.state_dict())
        for batch in EdgeBatch.from_edges(edges[700:]).batches(97):
            counter.update_batch(batch)
        reference.update_batch(edges[700:])
        assert_same(counter, reference)

    def test_empty_state_round_trips(self):
        counter = restored(ExactStreamingCounter())
        assert counter.state_dict()["edges"].shape == (0, 2)
        assert counter.max_degree() == 0 and counter.state_size_edges() == 0
        counter.update_batch([(0, 1), (1, 2), (0, 2)])
        assert counter.triangles == 1
