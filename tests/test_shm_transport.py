"""Shared-memory shard transport: ring lifecycle, fallbacks, parity.

The transport contract (:mod:`repro.streaming.shm`) has three legs:

- lifecycle -- ring blocks are claimed, refcounted, reused under
  backpressure, and always unlinked (no ``/dev/shm`` leaks, even when
  a worker crashes holding references);
- fallback -- misfit batches, shm-less platforms, and broken ring
  construction degrade to the pickled-queue payload without changing
  behaviour;
- parity -- both multiprocess paths produce bit-identical results
  whether batches ride the ring, the queues, or a per-batch mix.
"""

import glob
import multiprocessing
import os
import queue as stdlib_queue

import numpy as np
import pytest

from repro.core.parallel import ParallelTriangleCounter
from repro.errors import InvalidParameterError, WorkerCrashedError
from repro.generators import holme_kim
from repro.streaming import FaultPlan, ShardedPipeline
from repro.streaming import shm as shm_module
from repro.streaming.batch import EdgeBatch
from repro.streaming.shm import (
    DESCRIPTOR_TAG,
    BatchSender,
    ShmRing,
    ShmRingClient,
    TransportFeed,
    resolve_transport,
    shm_available,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)

EDGES = holme_kim(120, 3, 0.5, seed=2)


def own_segments():
    """This process's ring segments still present in ``/dev/shm``."""
    return glob.glob(f"/dev/shm/repro-{os.getpid()}-*")


def ctx():
    return multiprocessing.get_context()


class TestResolveTransport:
    def test_explicit_names_pass_through(self):
        assert resolve_transport("queue") == "queue"
        assert resolve_transport(" Queue ") == "queue"

    @needs_shm
    def test_auto_prefers_shm(self):
        assert resolve_transport("auto") == "shm"
        assert resolve_transport("SHM") == "shm"

    def test_unknown_transport_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown transport"):
            resolve_transport("tcp")

    def test_auto_degrades_without_shm(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_SHM_AVAILABLE", False)
        assert resolve_transport("auto") == "queue"

    def test_explicit_shm_without_shm_raises(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_SHM_AVAILABLE", False)
        with pytest.raises(InvalidParameterError, match="unavailable"):
            resolve_transport("shm")


@needs_shm
class TestShmRing:
    def test_send_roundtrips_and_refcounts(self):
        ring = ShmRing(ctx(), slots=4, block_bytes=1024, consumers=2)
        try:
            arr = np.arange(10, dtype=np.int64).reshape(5, 2)
            tag, slot, rows = ring.send(arr)
            assert (tag, rows) == (DESCRIPTOR_TAG, 5)
            assert ring.refcount(slot) == 2
            first, second = ring.client(0), ring.client(1)
            view = first.array(slot, rows)
            assert np.array_equal(view, arr)
            arr[0, 0] = 99  # send copied: the block is independent
            assert view[0, 0] == 0
            del view
            first.release(slot)
            assert ring.refcount(slot) == 1
            first.release(slot)  # idempotent: own flag already clear
            assert ring.refcount(slot) == 1
            second.release(slot)
            assert ring.refcount(slot) == 0
            first.close()
            second.close()
        finally:
            ring.close()
        assert own_segments() == []

    def test_subset_send_and_revoke(self):
        """Supervised runs stamp only live shm consumers and reclaim a
        killed worker's references by clearing its whole flag column."""
        ring = ShmRing(ctx(), slots=2, block_bytes=256, consumers=3)
        try:
            _, slot, _ = ring.send(
                np.array([[1, 2]], dtype=np.int64), consumers=[0, 2]
            )
            assert ring.refcount(slot) == 2
            ring.client(2).release(slot)
            assert ring.refcount(slot) == 1
            ring.revoke(0)  # worker 0 was SIGKILLed holding its flag
            assert ring.refcount(slot) == 0
            ring.revoke(0)  # idempotent
            assert ring.refcount(slot) == 0
        finally:
            ring.close()

    def test_blocks_are_reused_after_release(self):
        """Backpressure path: a one-slot ring cycles the same block."""
        ring = ShmRing(ctx(), slots=1, block_bytes=256, consumers=1)
        try:
            client = ring.client()
            first = ring.send(np.array([[1, 2]], dtype=np.int64))
            client.release(first[1])
            second = ring.send(np.array([[3, 4]], dtype=np.int64))
            assert second[1] == first[1]
            view = client.array(second[1], 1)
            assert view.tolist() == [[3, 4]]
            del view
            client.release(second[1])
            client.close()
        finally:
            ring.close()

    def test_full_ring_raises_through_the_liveness_callback(self):
        """A consumer that died holding references must turn the
        parent's blocked send into a crash report, not a hang."""
        ring = ShmRing(ctx(), slots=1, block_bytes=256, consumers=1)
        try:
            ring.send(np.array([[1, 2]], dtype=np.int64))  # never released

            def dead():
                raise WorkerCrashedError("worker 0 died (exitcode -9)")

            with pytest.raises(WorkerCrashedError):
                ring.send(np.array([[3, 4]], dtype=np.int64), alive=dead)
        finally:
            ring.close()

    def test_send_declines_misfit_batches(self):
        ring = ShmRing(ctx(), slots=2, block_bytes=64, consumers=1)
        try:
            assert ring.send(np.ones((2, 2), dtype=np.float64)) is None
            assert ring.send(np.ones((2, 3), dtype=np.int64)) is None
            assert ring.send(np.ones(4, dtype=np.int64)) is None
            assert ring.send(np.ones((5, 2), dtype=np.int64)) is None  # 80 > 64
            descriptor = ring.send(np.ones((4, 2), dtype=np.int64))  # 64 fits
            assert descriptor is not None
        finally:
            ring.close()

    def test_close_is_idempotent_and_unlinks(self):
        ring = ShmRing(ctx(), slots=3, block_bytes=128, consumers=1)
        assert len(own_segments()) == 3
        ring.close()
        assert own_segments() == []
        ring.close()

    def test_bad_geometry_rejected(self):
        good = {"slots": 2, "block_bytes": 128, "consumers": 1}
        for bad in ({"slots": 0}, {"consumers": 0}, {"block_bytes": 8}):
            with pytest.raises(InvalidParameterError, match="ring geometry"):
                ShmRing(ctx(), **{**good, **bad})

    def test_client_state_round_trip_serves_views(self):
        """The client's pickle protocol (exercised by Process args)
        re-attaches by name and keeps the shared reference flags."""
        ring = ShmRing(ctx(), slots=2, block_bytes=128, consumers=1)
        try:
            descriptor = ring.send(np.array([[7, 8]], dtype=np.int64))
            clone = ShmRingClient.__new__(ShmRingClient)
            clone.__setstate__(ring.client().__getstate__())
            view = clone.array(descriptor[1], 1)
            assert view.tolist() == [[7, 8]]
            del view
            clone.release(descriptor[1])
            assert ring.refcount(descriptor[1]) == 0
            clone.close()
        finally:
            ring.close()


@needs_shm
class TestTransportFeed:
    @pytest.fixture()
    def ring(self):
        ring = ShmRing(ctx(), slots=4, block_bytes=1024, consumers=1)
        yield ring
        ring.close()

    def test_descriptors_yield_views_released_on_advance(self, ring):
        q = stdlib_queue.Queue()
        client = ring.client()
        d1 = ring.send(np.array([[1, 2]], dtype=np.int64))
        d2 = ring.send(np.array([[3, 4]], dtype=np.int64))
        for item in (d1, d2, None):
            q.put(item)
        feed = TransportFeed(q, client)
        it = iter(feed)
        first = next(it)
        assert isinstance(first, EdgeBatch)
        assert first.array.tolist() == [[1, 2]]
        assert ring.refcount(d1[1]) == 1  # still held while in use
        second = next(it)
        assert ring.refcount(d1[1]) == 0  # released on advance
        assert second.array.tolist() == [[3, 4]]
        with pytest.raises(StopIteration):
            next(it)
        assert ring.refcount(d2[1]) == 0
        client.close()

    def test_abandoned_iteration_releases_the_held_slot(self, ring):
        """A worker that stops consuming mid-batch (exception unwind)
        must not strand the ring slot it was reading."""
        q = stdlib_queue.Queue()
        client = ring.client()
        descriptor = ring.send(np.array([[1, 2]], dtype=np.int64))
        q.put(descriptor)
        it = iter(TransportFeed(q, client))
        batch = next(it)
        assert batch.array.shape == (1, 2)
        it.close()
        assert ring.refcount(descriptor[1]) == 0
        client.close()

    def test_raw_arrays_and_lists_pass_through(self):
        q = stdlib_queue.Queue()
        q.put(np.array([[5, 6]], dtype=np.int64))
        q.put([(0, 1)])
        q.put(None)
        feed = TransportFeed(q)
        items = list(feed)
        assert isinstance(items[0], EdgeBatch)
        assert items[0].array.tolist() == [[5, 6]]
        assert items[1] == [(0, 1)]

    def test_descriptor_without_client_is_a_protocol_error(self):
        q = stdlib_queue.Queue()
        q.put((DESCRIPTOR_TAG, 0, 1))
        with pytest.raises(InvalidParameterError, match="without a ring client"):
            next(iter(TransportFeed(q, None)))


@needs_shm
class TestBatchSender:
    def test_shm_payload_is_a_descriptor(self):
        sender = BatchSender(
            ctx(), transport="shm", consumers=1, batch_size=64, queue_depth=2
        )
        try:
            assert sender.mode == "shm"
            client = sender.client()
            assert client is not None
            payload = sender.descriptor(EdgeBatch.from_edges([(0, 1), (2, 3)]))
            assert payload[0] == DESCRIPTOR_TAG
            client.release(payload[1])
            client.close()
        finally:
            sender.close()
        assert own_segments() == []

    def test_oversized_batch_falls_back_to_the_array(self):
        sender = BatchSender(
            ctx(), transport="shm", consumers=1, batch_size=2, queue_depth=1
        )
        try:
            big = EdgeBatch.from_edges([(i, i + 1) for i in range(5)])
            assert sender.descriptor(big) is None
            assert sender.raw(big) is big.array
        finally:
            sender.close()

    def test_tuple_batches_ship_as_lists(self):
        sender = BatchSender(
            ctx(), transport="shm", consumers=1, batch_size=16, queue_depth=1
        )
        try:
            assert sender.descriptor([(0, 1)]) is None
            assert sender.raw([(0, 1)]) == [(0, 1)]
        finally:
            sender.close()

    def test_queue_mode_has_no_ring(self):
        sender = BatchSender(
            ctx(), transport="queue", consumers=2, batch_size=64, queue_depth=2
        )
        try:
            assert sender.mode == "queue"
            assert sender.client() is None
            batch = EdgeBatch.from_edges([(0, 1)])
            assert sender.descriptor(batch) is None
            assert sender.raw(batch) is batch.array
        finally:
            sender.close()

    def test_auto_degrades_when_ring_construction_fails(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("no space on /dev/shm")

        monkeypatch.setattr(shm_module, "ShmRing", boom)
        sender = BatchSender(
            ctx(), transport="auto", consumers=1, batch_size=64, queue_depth=2
        )
        assert sender.mode == "queue"
        assert sender.client() is None
        with pytest.raises(OSError, match="no space"):
            BatchSender(
                ctx(), transport="shm", consumers=1, batch_size=64, queue_depth=2
            )


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        left, right = a[key], b[key]
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, key
            assert np.array_equal(left, right), key
        else:
            assert left == right, key


@needs_shm
class TestTransportParity:
    """shm and queue runs are bit-identical, leak-free, and mixable."""

    @pytest.mark.timeout(120)
    def test_parallel_counter_bit_identical_across_transports(self):
        def merged_state(transport):
            counter = ParallelTriangleCounter(
                256, workers=2, seed=7, transport=transport
            )
            counter.count(EDGES, batch_size=64)
            return counter.merged.state_dict()

        assert_states_equal(merged_state("shm"), merged_state("queue"))
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_sharded_pipeline_bit_identical_across_transports(self):
        def results(transport):
            pipe = ShardedPipeline(
                ["count", "transitivity"],
                workers=2,
                num_estimators=128,
                seed=7,
                transport=transport,
            )
            report = pipe.run(EDGES, batch_size=64)
            return {e.name: e.results for e in report.estimators}

        assert results("shm") == results("queue")
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_mixed_ring_and_fallback_batches_stay_bit_identical(self, monkeypatch):
        """Every other batch declines the ring (as an oversized batch
        would): workers see descriptors and raw arrays interleaved and
        the merged state must not move."""

        def queue_state():
            counter = ParallelTriangleCounter(
                128, workers=2, seed=3, transport="queue"
            )
            counter.count(EDGES, batch_size=32)
            return counter.merged.state_dict()

        baseline = queue_state()
        real_send = ShmRing.send
        calls = {"n": 0}

        def flaky_send(self, array, alive=None, consumers=None):
            calls["n"] += 1
            if calls["n"] % 2:
                return None
            return real_send(self, array, alive, consumers)

        monkeypatch.setattr(ShmRing, "send", flaky_send)
        counter = ParallelTriangleCounter(128, workers=2, seed=3, transport="shm")
        counter.count(EDGES, batch_size=32)
        assert calls["n"] > 1  # both payload kinds actually flowed
        assert_states_equal(baseline, counter.merged.state_dict())
        assert own_segments() == []


@needs_shm
class TestCrashCleanup:
    @pytest.mark.timeout(120)
    def test_worker_error_reports_traceback_and_unlinks(self):
        poisoned = list(EDGES) + [(5, 1 << 40)]
        counter = ParallelTriangleCounter(64, workers=2, seed=0, transport="shm")
        with pytest.raises(InvalidParameterError, match="vertex ids") as excinfo:
            counter.count(poisoned, batch_size=64)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("worker traceback" in note for note in notes)
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_sharded_worker_error_reports_traceback_and_unlinks(self):
        poisoned = list(EDGES) + [(5, 1 << 40)]
        pipe = ShardedPipeline(
            ["count"], workers=2, num_estimators=32, seed=0, transport="shm"
        )
        with pytest.raises(InvalidParameterError, match="vertex ids") as excinfo:
            pipe.run(poisoned, batch_size=32)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("worker traceback" in note for note in notes)
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_killed_worker_still_unlinks_every_segment(self):
        """A worker SIGKILLed mid-run strands its ring references; with
        no restart budget the parent must fail the run and still remove
        every segment."""
        counter = ParallelTriangleCounter(
            64,
            workers=2,
            seed=0,
            transport="shm",
            fault_plan=FaultPlan.parse("kill:w1@b2"),
        )
        with pytest.raises(WorkerCrashedError, match="exitcode -9"):
            counter.count(EDGES, batch_size=16)
        assert own_segments() == []
