"""The output-sensitive engine's bit-identity and guard contracts.

Three layers of evidence that the watch-index engine is the same
estimator as the dense reference path:

1. a golden snapshot: SHA-256 fingerprints of the full state (arrays +
   generator state) captured from the pre-watch-index dense engine,
   asserted for both ``sparse=True`` and ``sparse=False``;
2. hypothesis equivalence: random streams, batch splits, pool sizes,
   forced index/compaction paths, mid-stream checkpoint/resume and
   sharded-style merges -- state dicts (including rng state) must come
   out bit-equal;
3. the step-2 phi rounding clamp and the EVENTB decode guard
   regressions.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import STATE_FIELDS, VectorizedTriangleCounter
from repro.core.watch_index import WatchIndex
from repro.errors import InvalidParameterError
from repro.generators import holme_kim
from repro.streaming.batch import EdgeBatch

EDGES = holme_kim(250, 3, 0.5, seed=4)

#: SHA-256 over (state arrays, generator state) captured from the
#: pre-watch-index dense engine (PR 4 tree) under these fixed
#: (num_estimators, seed, batch_size) configurations on EDGES.
GOLDEN = {
    (2048, 5, 128): "779d76828640b141ef1c29d1f42fe5f0da8f51e64653fa85b7d4a8c773741e60",
    (1024, 99, 100): "a9e56a4b492380f07ac32e76fcb7d59b10d113a21e2672de97e278cc79490b4b",
    (4096, 7, 1000): "5342062e7debcdc7a5d67f34c35f46653133d543d23fefa3ce0cc050423c0e2f",
    (64, 0, 1): "4eb9ec1151832a1f959883fd0091f15f76faa7ffe23ae4d917d33eaf15370094",
    (512, 3, 17): "025fc5f2c00015053204127ac8608079aa1ae0aab283b53d38b13917d7c099cd",
}


def state_fingerprint(counter):
    digest = hashlib.sha256()
    for field in STATE_FIELDS:
        digest.update(field.encode())
        digest.update(np.ascontiguousarray(getattr(counter, field)).tobytes())
    rng_state = counter._rng.bit_generator.state["state"]
    digest.update(repr(sorted(rng_state.items())).encode())
    return digest.hexdigest()


def assert_states_equal(left, right):
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(left, field), getattr(right, field)), field
    assert left.edges_seen == right.edges_seen
    assert left._rng.bit_generator.state == right._rng.bit_generator.state


def force_index_paths(counter, *, compact_always=False):
    """Disable the scan heuristics so every batch exercises the indexes."""
    counter._SCAN_CHURN_SHIFT = 0
    counter._SCAN_FRACTION = 10**9
    counter._STEP3_SCAN_RATIO = 0
    if compact_always:
        counter._COMPACT_MIN = 1


class TestGoldenSnapshot:
    @pytest.mark.parametrize("config", sorted(GOLDEN))
    @pytest.mark.parametrize("sparse", [True, False])
    def test_matches_pre_watch_index_engine(self, config, sparse):
        r, seed, batch_size = config
        counter = VectorizedTriangleCounter(r, seed=seed, sparse=sparse)
        for start in range(0, len(EDGES), batch_size):
            counter.update_batch(EDGES[start : start + batch_size])
        assert state_fingerprint(counter) == GOLDEN[config]


edge_streams = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=260,
)


class TestSparseDenseEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(
        edges=edge_streams,
        r=st.integers(1, 3000),
        seed=st.integers(0, 10_000),
        n_cuts=st.integers(0, 6),
        mode=st.sampled_from(["auto", "forced", "forced-compact"]),
        huge_ids=st.booleans(),
    )
    def test_bit_identical_across_streams_and_batch_sizes(
        self, edges, r, seed, n_cuts, mode, huge_ids
    ):
        arr = np.asarray(edges, dtype=np.int64)
        if huge_ids:
            arr = arr + (1 << 28)  # beyond the context's dense tables
        cut_rng = np.random.default_rng(seed)
        cuts = sorted(cut_rng.integers(0, arr.shape[0] + 1, size=n_cuts).tolist())
        bounds = [0, *cuts, arr.shape[0]]
        sparse = VectorizedTriangleCounter(r, seed=seed, sparse=True)
        dense = VectorizedTriangleCounter(r, seed=seed, sparse=False)
        if mode != "auto":
            force_index_paths(sparse, compact_always=mode == "forced-compact")
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            sparse.update_batch(arr[lo:hi])
            dense.update_batch(arr[lo:hi])
        assert_states_equal(sparse, dense)
        assert sparse.estimate() == dense.estimate()

    @settings(deadline=None, max_examples=25)
    @given(
        edges=edge_streams,
        r=st.integers(1, 800),
        seed=st.integers(0, 10_000),
        batch_size=st.integers(1, 64),
    )
    def test_checkpoint_resume_mid_stream_is_bit_identical(
        self, edges, r, seed, batch_size
    ):
        """Kill the sparse engine mid-stream, restore into a fresh one,
        finish; the result must equal an uninterrupted dense run (the
        indexes are derived state and must rebuild seamlessly)."""
        arr = np.asarray(edges, dtype=np.int64)
        batches = [
            arr[s : s + batch_size] for s in range(0, arr.shape[0], batch_size)
        ]
        half = len(batches) // 2
        original = VectorizedTriangleCounter(r, seed=seed, sparse=True)
        force_index_paths(original)
        for batch in batches[:half]:
            original.update_batch(batch)
        snapshot = original.state_dict()

        resumed = VectorizedTriangleCounter(1, seed=0, sparse=True)
        force_index_paths(resumed)
        resumed.load_state_dict(snapshot)
        for batch in batches[half:]:
            resumed.update_batch(batch)

        dense = VectorizedTriangleCounter(r, seed=seed, sparse=False)
        for batch in batches:
            dense.update_batch(batch)
        assert_states_equal(resumed, dense)

    @settings(deadline=None, max_examples=20)
    @given(
        edges=edge_streams,
        r1=st.integers(1, 400),
        r2=st.integers(1, 400),
        seed=st.integers(0, 10_000),
    )
    def test_merge_then_continue_matches_dense(self, edges, r1, r2, seed):
        """Sharded-style merge: two pools over the same stream combine,
        then keep streaming; the merged indexes rebuild from the merged
        arrays and stay consistent with a dense merge."""
        arr = np.asarray(edges, dtype=np.int64)
        half = arr.shape[0] // 2
        head, tail = arr[: half or 1], arr[half or 1 :]

        def build(sparse):
            a = VectorizedTriangleCounter(r1, seed=seed, sparse=sparse)
            b = VectorizedTriangleCounter(r2, seed=seed + 1, sparse=sparse)
            if sparse:
                force_index_paths(a)
                force_index_paths(b)
            a.update_batch(head)
            b.update_batch(head)
            a.merge(b)
            if tail.shape[0]:
                a.update_batch(tail)
            return a

        assert_states_equal(build(True), build(False))


class TestBoundedPrefilters:
    """sparse == dense where the vertex bitmap and batch mask engage.

    The vertex watch's membership bitmap and the context's vertex mask
    are sized by the id space, within bounds; these streams sit on
    either side of those bounds.
    """

    STREAM = np.asarray(holme_kim(400, 3, 0.5, seed=11), dtype=np.int64)

    def _run_pair(self, arr, r, batch_size, forced):
        sparse = VectorizedTriangleCounter(r, seed=8, sparse=True)
        dense = VectorizedTriangleCounter(r, seed=8, sparse=False)
        if forced:
            force_index_paths(sparse)
        for start in range(0, arr.shape[0], batch_size):
            sparse.update_batch(arr[start : start + batch_size])
            dense.update_batch(arr[start : start + batch_size])
        return sparse, dense

    @pytest.mark.parametrize("forced", [True, False])
    def test_bitmap_only_watch_grows_mid_stream(self, forced, monkeypatch):
        # Ids spread over [70k, 870k): far past 8x the pool's 512 vertex
        # entries (no dense offsets) but inside the bitmap's bound, and
        # Holme-Kim vertices arrive in id order, so the watched span
        # keeps growing as the stream goes on.
        arr = 70_000 + 2_000 * self.STREAM
        grown = []
        original = WatchIndex._grow_bitmap

        def counting(index, key_max):
            original(index, key_max)
            grown.append(index._bitmap is not None)

        monkeypatch.setattr(WatchIndex, "_grow_bitmap", counting)
        sparse, dense = self._run_pair(arr, 256, 32, forced)
        assert_states_equal(sparse, dense)
        assert sparse.tset.any()  # triangles closed on the way
        watch = sparse._vertex_watch
        assert watch._offsets is None
        assert watch._bitmap is not None
        assert any(grown) and all(grown)
        assert EdgeBatch.from_edges(arr[-32:]).context.vertex_mask is not None

    def test_ids_near_vertex_limit_build_no_id_sized_arrays(self):
        # Ids just under 2^31: neither the bitmap nor the batch mask may
        # be built. A single id-sized bool array is ~2 GB, so the cap
        # turns any such allocation into a failure.
        arr = (2**31 - 1) - 5 * self.STREAM
        tracemalloc.start()
        try:
            sparse, dense = self._run_pair(arr, 256, 32, forced=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert_states_equal(sparse, dense)
        assert sparse._vertex_watch._bitmap is None
        assert EdgeBatch.from_edges(arr[-32:]).context.vertex_mask is None


class _BoundaryRng:
    """Forces the phi draw to the top of its domain: the rounding boundary.

    numpy's own ``random()`` emits 53-bit multiples of ``2^-53`` whose
    IEEE-754 product with an int64 total provably floors below the
    total; the hole opens the moment the draw comes from anywhere else
    (a swapped bit generator, a float32 path, a quasi-random source)
    and reaches 1.0 -- then ``1 + int(draw * total)`` lands one past
    ``total`` and the EVENTB decode reads out of contract. The stub
    emits exactly 1.0 to force that boundary.
    """

    def integers(self, low, high, size=None):
        # Level-1 draws <= edges_seen keep every reservoir slot.
        return np.full(size, min(1, high - 1), dtype=np.int64)

    def random(self, n):
        return np.full(n, 1.0)


class TestPhiRoundingClamp:
    def _engine_at_boundary(self, sparse):
        """One estimator holding r1=(0,1) with c = 2^60 - 1, fed (0, 2).

        The batch gives c+ = 1 (one new candidate on the ``u`` side), so
        total = 2^60 exactly; a boundary draw makes the unclamped
        ``1 + int(draw * total)`` produce phi = total + 1 -- one past
        the contract. The clamp must pull it back to total, which
        decodes to the valid EVENTB (0, 1) -> edge (0, 2).
        """
        counter = VectorizedTriangleCounter(1, seed=0, sparse=sparse)
        state = counter.state_dict()
        state["r1u"] = np.array([0], dtype=np.int64)
        state["r1v"] = np.array([1], dtype=np.int64)
        state["r1pos"] = np.array([1], dtype=np.int64)
        state["c"] = np.array([(1 << 60) - 1], dtype=np.int64)
        state["edges_seen"] = 10
        del state["rng"]
        counter.load_state_dict(state)
        counter._rng = _BoundaryRng()
        return counter

    @pytest.mark.parametrize("sparse", [True, False])
    def test_phi_is_clamped_to_total(self, sparse):
        total = 1 << 60
        assert 1 + int(1.0 * total) == total + 1  # the boundary actually trips
        counter = self._engine_at_boundary(sparse)
        counter.update_batch([(0, 2)])  # must not raise / misdecode
        assert (int(counter.r2u[0]), int(counter.r2v[0])) == (0, 2)
        assert int(counter.c[0]) == total

    @pytest.mark.parametrize("sparse", [True, False])
    def test_normal_draws_unchanged_by_clamp(self, sparse):
        # A mid-range draw is far from the boundary: same behaviour as
        # the golden snapshot already asserts, spot-checked here.
        counter = self._engine_at_boundary(sparse)
        counter._rng.random = lambda n: np.full(n, 0.5)
        counter.update_batch([(0, 2)])
        assert int(counter.c[0]) == 1 << 60


class TestEventEdgeIndexGuard:
    def _ctx(self, edges):
        batch = EdgeBatch.from_edges(edges)
        return batch.context

    def test_in_contract_queries_resolve(self):
        ctx = self._ctx([(0, 1), (0, 2), (0, 3)])
        j = ctx.event_edge_index(
            np.array([0, 0, 0], dtype=np.int64), np.array([1, 2, 3], dtype=np.int64)
        )
        assert j.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "vert,d",
        [(0, 0), (0, 4), (5, 1), (-1, 1)],
        ids=["d-too-small", "d-past-degree", "vertex-absent", "vertex-negative"],
    )
    def test_out_of_contract_queries_fail_loudly(self, vert, d):
        ctx = self._ctx([(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InvalidParameterError, match="EVENTB"):
            ctx.event_edge_index(
                np.array([vert], dtype=np.int64), np.array([d], dtype=np.int64)
            )

    def test_guard_covers_the_binary_search_path_too(self):
        offset = 1 << 28  # beyond the dense-table threshold
        ctx = self._ctx([(offset, offset + 1), (offset, offset + 2)])
        assert ctx._gs_table is None
        assert ctx.event_edge_index(
            np.array([offset], dtype=np.int64), np.array([2], dtype=np.int64)
        ).tolist() == [1]
        with pytest.raises(InvalidParameterError, match="EVENTB"):
            ctx.event_edge_index(
                np.array([offset + 5], dtype=np.int64), np.array([1], dtype=np.int64)
            )


class TestContextIntersectionViews:
    """The shared views the watch indexes intersect against."""

    def test_unique_edge_keys_and_positions(self):
        ctx = self._ctx([(3, 4), (0, 1), (3, 4), (0, 2)])
        keys = ctx.unique_edge_keys
        positions = ctx.unique_edge_key_positions
        assert keys.tolist() == sorted(set((u << 32) | v for u, v in [(3, 4), (0, 1), (0, 2)]))
        # positions are 1-based first occurrences, matching position_in_batch
        for key, pos in zip(keys.tolist(), positions.tolist()):
            u, v = key >> 32, key & 0xFFFFFFFF
            expected = ctx.position_in_batch(
                np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
            )
            assert pos == int(expected[0])

    def test_remaining_degrees_match_final_minus_running(self):
        ctx = self._ctx([(0, 1), (0, 2), (1, 2), (0, 3)])
        rem_u, rem_v = ctx.remaining_degrees
        fin_u = ctx.final_degree(ctx.bu)
        fin_v = ctx.final_degree(ctx.bv)
        assert (rem_u == fin_u - ctx.deg_at_edge_u).all()
        assert (rem_v == fin_v - ctx.deg_at_edge_v).all()

    def test_event_decode_bases_agree_with_event_edge_index(self):
        ctx = self._ctx([(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])
        base_u, base_v = ctx.event_decode_bases
        rem_u, rem_v = ctx.remaining_degrees
        w = ctx.bu.shape[0]
        for j in range(w):
            a = int(rem_u[j])
            b = int(rem_v[j])
            for phi in range(1, a + b + 1):
                if phi <= a:
                    expected = ctx.event_edge_index(
                        ctx.bu[j : j + 1],
                        np.array([ctx.deg_at_edge_u[j] + phi], dtype=np.int64),
                    )
                    pos = int(base_u[j]) + phi
                else:
                    expected = ctx.event_edge_index(
                        ctx.bv[j : j + 1],
                        np.array(
                            [ctx.deg_at_edge_v[j] + phi - a], dtype=np.int64
                        ),
                    )
                    pos = int(base_v[j]) + phi
                assert int(ctx.event_order[pos]) >> 1 == int(expected[0])

    def test_unique_vertex_counts_align(self):
        ctx = self._ctx([(0, 1), (0, 2), (1, 2)])
        assert ctx.unique_vertices.tolist() == [0, 1, 2]
        assert ctx.unique_vertex_counts.tolist() == [2, 2, 2]

    @pytest.mark.parametrize("offset", [0, 500_000, 1 << 28])
    def test_vertex_mask_marks_exactly_the_batch_vertices(self, offset):
        # Compact ids read the dense degree table, mid-range ids build
        # their own mask, and ids past the bound get no mask at all.
        edges = [(offset + 3, offset + 9), (offset + 9, offset + 40)]
        ctx = self._ctx(edges)
        mask = ctx.vertex_mask
        if offset == 1 << 28:
            assert mask is None
            return
        assert (ctx._deg_table is not None) == (offset == 0)
        assert np.flatnonzero(mask).tolist() == [offset + 3, offset + 9, offset + 40]
        assert not mask[-1]  # the clip sentinel

    def _ctx(self, edges):
        return EdgeBatch.from_edges(edges).context


class TestDerivedIndexInvalidation:
    def test_load_state_dict_drops_indexes(self):
        counter = VectorizedTriangleCounter(64, seed=0)
        counter.update_batch(EDGES[:100])
        assert counter._wedge_watch is not None
        counter.load_state_dict(counter.state_dict())
        assert counter._vertex_watch is None
        assert counter._wedge_watch is None

    def test_merge_drops_indexes(self):
        a = VectorizedTriangleCounter(64, seed=0)
        b = VectorizedTriangleCounter(64, seed=1)
        a.update_batch(EDGES[:100])
        b.update_batch(EDGES[:100])
        a.merge(b)
        assert a._vertex_watch is None
        assert a._wedge_watch is None

    def test_state_dict_never_contains_index_state(self):
        counter = VectorizedTriangleCounter(64, seed=0)
        counter.update_batch(EDGES[:100])
        state = counter.state_dict()
        assert set(state) == {*STATE_FIELDS, "edges_seen", "rng"}
