"""Checkpoint/resume and the CheckpointableEstimator protocol.

Covers the three layers of the durability story:

- protocol level: every registered estimator round-trips through
  ``state_dict`` -> on-disk format -> ``load_state_dict`` and continues
  bit-identically, and pools ``merge`` with the expected statistics
  (hypothesis-driven over random streams);
- format level: the npz + JSON manifest is versioned, rejects
  corruption, and never loads from a partial write;
- pipeline level: a run killed mid-stream resumes from its last
  periodic checkpoint and finishes bit-identically to an uninterrupted
  run, for every registered estimator at once (the paper's "estimator
  state is the whole message" property, exercised end to end).
"""

from __future__ import annotations

import json
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.generators import holme_kim
from repro.streaming import (
    ESTIMATORS,
    IterableSource,
    Pipeline,
    load_checkpoint,
    save_checkpoint,
)
from repro.streaming.checkpoint import CHECKPOINT_VERSION

# Small pools and windows keep the pure-Python estimators fast while
# still exercising every code path (chains, captures, pattern pools).
SMALL_POOLS = {
    "count": 64,
    "transitivity": 48,
    "wedges": 32,
    "sample": 32,
    "exact": 1,
    "cliques4": 8,
    "cliques": 6,
    "sliding-window": 6,
    "timed-window": 6,
    "triest-fd": 8,
    "dynamic-sampler": 8,
}
SMALL_OPTIONS = {
    "sliding-window": {"window": 512},
    "timed-window": {"horizon": 512.0},
    "triest-fd": {"memory": 128},
    "dynamic-sampler": {"p": 0.5},
}
#: Estimators whose ``estimate()`` is a pool mean (or a sum of pool
#: means), so a merge of pools r1 and r2 yields the weighted mean.
LINEAR_MERGE = {
    "count",
    "wedges",
    "sample",
    "cliques4",
    "cliques",
    "sliding-window",
    "timed-window",
    "triest-fd",
    "dynamic-sampler",
}

ALL_NAMES = ESTIMATORS.names()


def build(name, seed):
    spec = ESTIMATORS.get(name)
    return spec.create(SMALL_POOLS[name], seed, **SMALL_OPTIONS.get(name, {}))


def feed(estimator, edges, batch_size=128):
    for i in range(0, len(edges), batch_size):
        estimator.update_batch(edges[i : i + batch_size])


@pytest.fixture(scope="module")
def stream():
    return holme_kim(300, 4, 0.5, seed=13)


# ---------------------------------------------------------------------------
# protocol: round trip and merge, per estimator
# ---------------------------------------------------------------------------

class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_disk_round_trip_continues_bit_identically(
        self, name, stream, tmp_path
    ):
        """state -> disk -> fresh instance -> continue == never stopped."""
        half = len(stream) // 2
        original = build(name, seed=11)
        feed(original, stream[:half])

        save_checkpoint(tmp_path / "ck", {name: original.state_dict()}, edges_seen=half)
        loaded = load_checkpoint(tmp_path / "ck")
        restored = ESTIMATORS.get(name).create(1, None, **SMALL_OPTIONS.get(name, {}))
        restored.load_state_dict(loaded.states[name])

        feed(original, stream[half:])
        feed(restored, stream[half:])
        report = ESTIMATORS.get(name).report
        assert report(restored) == report(original)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_merge_combines_pools(self, name, stream):
        a = build(name, seed=3)
        b = build(name, seed=4)
        feed(a, stream)
        feed(b, stream)
        ea, eb = a.estimate(), b.estimate()
        ra = rb = SMALL_POOLS[name]
        a.merge(b)
        if name in LINEAR_MERGE:
            expected = (ra * ea + rb * eb) / (ra + rb)
            assert a.estimate() == pytest.approx(expected)
        elif name == "exact":
            assert a.estimate() == ea == eb
        elif name == "transitivity":
            # kappa' is a ratio, so it does not merge linearly; tau' and
            # zeta', both read from the one pool, do (asserted below)
            pass
        # the merged pool keeps streaming
        a.update_batch(stream[:16])

    def test_merge_rejects_diverged_streams(self, stream):
        for name in ("count", "exact", "sliding-window", "cliques4"):
            a = build(name, seed=1)
            b = build(name, seed=2)
            feed(a, stream)
            feed(b, stream[: len(stream) // 2])
            with pytest.raises(InvalidParameterError):
                a.merge(b)

    def test_transitivity_merge_is_weighted_per_pool(self, stream):
        a = build("transitivity", seed=3)
        b = build("transitivity", seed=4)
        feed(a, stream)
        feed(b, stream)
        ta, tb = a.triangle_estimate(), b.triangle_estimate()
        wa, wb = a.wedge_estimate(), b.wedge_estimate()
        a.merge(b)
        assert a.triangle_estimate() == pytest.approx((ta + tb) / 2)
        assert a.wedge_estimate() == pytest.approx((wa + wb) / 2)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=8, max_value=24))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=2,
            max_size=120,
        )
    )
    return edges


class TestRoundTripProperties:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @given(edges=edge_lists(), data=st.data())
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_round_trip_then_continue(self, name, edges, data, stream):
        """Any prefix position round-trips and continues bit-identically."""
        cut = data.draw(st.integers(0, len(edges)), label="cut")
        original = build(name, seed=7)
        feed(original, edges[:cut], batch_size=16)

        state = original.state_dict()
        restored = ESTIMATORS.get(name).create(1, None, **SMALL_OPTIONS.get(name, {}))
        restored.load_state_dict(state)

        tail = edges[cut:] + stream[:32]
        feed(original, tail, batch_size=16)
        feed(restored, tail, batch_size=16)
        report = ESTIMATORS.get(name).report
        assert report(restored) == report(original)

    @pytest.mark.parametrize("name", sorted(LINEAR_MERGE))
    @given(edges=edge_lists())
    @settings(max_examples=6, deadline=None)
    def test_merge_weighted_mean(self, name, edges):
        a = build(name, seed=5)
        b = build(name, seed=6)
        feed(a, edges, batch_size=32)
        feed(b, edges, batch_size=32)
        ea, eb = a.estimate(), b.estimate()
        a.merge(b)
        assert a.estimate() == pytest.approx((ea + eb) / 2)


# ---------------------------------------------------------------------------
# format: versioning and corruption
# ---------------------------------------------------------------------------

class TestFormat:
    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope")

    def test_newer_version_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck", {}, edges_seen=0)
        manifest = tmp_path / "ck" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["version"] = CHECKPOINT_VERSION + 1
        manifest.write_text(json.dumps(data))
        with pytest.raises(InvalidParameterError, match="newer than supported"):
            load_checkpoint(tmp_path / "ck")

    def test_corrupt_manifest_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck", {}, edges_seen=0)
        (tmp_path / "ck" / "manifest.json").write_text("{not json")
        with pytest.raises(InvalidParameterError, match="corrupt"):
            load_checkpoint(tmp_path / "ck")

    def test_partial_write_is_not_loadable(self, tmp_path):
        """The manifest lands last, so arrays-without-manifest == absent."""
        counter = build("count", seed=0)
        feed(counter, [(0, 1), (1, 2), (0, 2)])
        save_checkpoint(
            tmp_path / "ck", {"count": counter.state_dict()}, edges_seen=3
        )
        os.remove(tmp_path / "ck" / "manifest.json")  # crash before seal
        with pytest.raises(InvalidParameterError, match="no checkpoint"):
            load_checkpoint(tmp_path / "ck")

    def test_arrays_preserve_dtype_and_values(self, tmp_path, stream):
        counter = build("count", seed=2)
        feed(counter, stream)
        state = counter.state_dict()
        save_checkpoint(tmp_path / "ck", {"count": state}, edges_seen=len(stream))
        loaded = load_checkpoint(tmp_path / "ck").states["count"]
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                assert loaded[key].dtype == value.dtype
                assert np.array_equal(loaded[key], value)

    def test_unserializable_state_is_reported(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="not checkpointable"):
            save_checkpoint(
                tmp_path / "ck", {"bad": {"x": object()}}, edges_seen=0
            )

    def test_overwrite_is_crash_safe_and_sweeps_stale_arrays(
        self, tmp_path, stream
    ):
        """Regression: overwriting a live checkpoint used to replace
        the arrays member and the manifest independently, so a crash
        between the two left manifest N paired with arrays N+1. Each
        snapshot now rewrites the arrays member its manifest does not
        name, and stray members are swept after the seal."""
        ck = tmp_path / "ck"
        counter = build("count", seed=0)
        feed(counter, stream[:100])
        save_checkpoint(ck, {"count": counter.state_dict()}, edges_seen=100)
        first_edges = load_checkpoint(ck).states["count"]["edges_seen"]

        # a crashed second snapshot: its arrays member landed, the
        # manifest replace never happened
        (ck / "arrays-deadbeef0000.npz").write_bytes(b"garbage from a crash")
        loaded = load_checkpoint(ck)
        assert loaded.states["count"]["edges_seen"] == first_edges

        # a completed second snapshot supersedes and sweeps the stray
        feed(counter, stream[100:200])
        save_checkpoint(ck, {"count": counter.state_dict()}, edges_seen=200)
        assert load_checkpoint(ck).states["count"]["edges_seen"] == 200
        arrays = sorted(p.name for p in ck.iterdir() if p.name.startswith("arrays-"))
        assert arrays == ["arrays-0.npz", "arrays-1.npz"]  # the stray is swept
        assert _manifest(ck)["arrays"] in arrays

    def test_saves_alternate_between_two_reused_members(self, tmp_path, stream):
        ck = tmp_path / "ck"
        counter = build("count", seed=0)
        names, inodes = [], []
        for i in range(3):
            feed(counter, stream[100 * i : 100 * (i + 1)])
            save_checkpoint(ck, {"count": counter.state_dict()}, edges_seen=100 * i)
            names.append(_manifest(ck)["arrays"])
            inodes.append(os.stat(ck / names[-1]).st_ino)
        assert names == ["arrays-0.npz", "arrays-1.npz", "arrays-0.npz"]
        assert inodes[2] == inodes[0]  # rewritten in place, not reallocated

    def test_torn_rewrite_of_idle_member_keeps_previous_generation(
        self, tmp_path, stream
    ):
        """A crash mid-rewrite garbles only the member the manifest does
        not name; the next save truncates it to its new length."""
        ck = tmp_path / "ck"
        counter = build("count", seed=0)
        for i in range(2):
            feed(counter, stream[100 * i : 100 * (i + 1)])
            save_checkpoint(ck, {"count": counter.state_dict()}, edges_seen=100 * i)
        idle = ck / "arrays-0.npz"
        assert _manifest(ck)["arrays"] == "arrays-1.npz"
        idle.write_bytes(b"\x00torn" * 200_000)  # longer than a real member
        assert load_checkpoint(ck).edges_seen == 100

        feed(counter, stream[200:300])
        state = counter.state_dict()
        save_checkpoint(ck, {"count": state}, edges_seen=200)
        assert _manifest(ck)["arrays"] == "arrays-0.npz"
        assert idle.stat().st_size < 1_000_000
        loaded = load_checkpoint(ck)
        assert loaded.edges_seen == 200
        assert np.array_equal(loaded.states["count"]["c"], state["c"])

    def test_token_mismatch_is_a_named_error(self, tmp_path):
        """A reader holding save 1's manifest while saves 2 and 3 land
        would pair it with save 3's rewrite of the same member."""
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"x": {"a": np.arange(4)}}, edges_seen=1)
        stale = (ck / "manifest.json").read_text()
        for edges in (2, 3):
            save_checkpoint(ck, {"x": {"a": np.arange(4)}}, edges_seen=edges)
        (ck / "manifest.json").write_text(stale)
        with pytest.raises(InvalidParameterError, match="token"):
            load_checkpoint(ck)

    @pytest.mark.parametrize("damage", ["missing", "corrupt", "npy"])
    def test_bad_live_member_is_a_named_error(self, tmp_path, damage):
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"x": {"a": np.arange(4)}}, edges_seen=1)
        member = ck / _manifest(ck)["arrays"]
        if damage == "missing":
            os.remove(member)
        elif damage == "npy":
            with open(member, "wb") as handle:
                np.save(handle, np.arange(4))
        else:
            member.write_bytes(b"not an npz archive")
        with pytest.raises(InvalidParameterError, match="missing or corrupt") as info:
            load_checkpoint(ck)
        assert str(ck) in str(info.value)

    def test_manifest_naming_a_missing_array_is_a_named_error(self, tmp_path):
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"x": {"a": np.arange(4)}}, edges_seen=1)
        manifest = _manifest(ck)
        manifest["estimators"]["x"]["a"]["__array__"] = "x/zzz"
        (ck / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidParameterError, match="x/zzz") as info:
            load_checkpoint(ck)
        assert str(ck) in str(info.value)

    def test_codec_round_trips_every_dtype(self, tmp_path):
        state = {
            "wide": np.array([2**31, -(2**31) - 1, 0], dtype=np.int64),
            "fits": np.array([2**31 - 1, -(2**31), 7], dtype=np.int64),
            "empty": np.array([], dtype=np.int64),
            "empty2d": np.zeros((0, 3)),
            "flags": np.array([True, False, True]),
            "floats": np.array([0.5, -1e300, np.inf]),
            "bytes": np.arange(250, dtype=np.uint8),
            "i32": np.array([-5, 5], dtype=np.int32),
            "grid": np.arange(12, dtype=np.int64).reshape(3, 4),
        }
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"x": state}, edges_seen=0)
        loaded = load_checkpoint(ck).states["x"]
        for key, value in state.items():
            assert loaded[key].dtype == value.dtype, key
            assert loaded[key].shape == value.shape, key
            assert np.array_equal(loaded[key], value), key
        with np.load(ck / _manifest(ck)["arrays"]) as npz:
            assert npz["x/wide"].dtype == np.int64  # beyond int32: kept wide
            assert npz["x/fits"].dtype == np.int32  # narrowed on disk
            assert npz["x/grid"].dtype == np.int32

    def test_version_1_checkpoint_loads_and_resumes(self, tmp_path, stream):
        """A version 1 directory -- a uniquely named member, no token, no
        dtype markers, int64 stored wide -- still resumes bit-identically."""
        batch = TestKillResume.BATCH
        ck = tmp_path / "ck"
        with pytest.raises(_Killed):
            _full_pipeline().run(
                _interruptible(stream, stop_after=7 * batch + 11),
                batch_size=batch,
                checkpoint_path=ck,
                checkpoint_every=3,
            )
        v1 = tmp_path / "v1"
        _write_version_1(v1, load_checkpoint(ck))
        loaded = load_checkpoint(v1)
        assert loaded.version == 1 and loaded.edges_seen == 6 * batch

        resumed = _full_pipeline().resume(v1).run(stream, batch_size=batch)
        uninterrupted = _full_pipeline().run(stream, batch_size=batch)
        for name in ALL_NAMES:
            assert resumed[name].results == uninterrupted[name].results, name


def _manifest(ck):
    return json.loads((ck / "manifest.json").read_text())


def _write_version_1(path, ckpt):
    """Lay ``ckpt`` out in the version 1 format, by hand."""
    arrays = {}

    def encode(value, key):
        if isinstance(value, np.ndarray):
            arrays[key] = value
            return {"__array__": key}
        if isinstance(value, dict):
            return {str(k): encode(v, f"{key}/{k}") for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [encode(v, f"{key}/{i}") for i, v in enumerate(value)]
        return value

    manifest = {
        "format": "repro-checkpoint",
        "version": 1,
        "arrays": "arrays-0123456789ab.npz",
        "edges_seen": ckpt.edges_seen,
        "batches": ckpt.batches,
        "batch_size": ckpt.batch_size,
        "fingerprint": ckpt.fingerprint,
        "metadata": ckpt.metadata,
        "estimators": {name: encode(s, name) for name, s in ckpt.states.items()},
    }
    path.mkdir()
    np.savez(path / manifest["arrays"], **arrays)
    (path / "manifest.json").write_text(json.dumps(manifest))


# ---------------------------------------------------------------------------
# pipeline: kill/resume equivalence for every registered estimator
# ---------------------------------------------------------------------------

class _Killed(RuntimeError):
    """Planted mid-stream failure standing in for a kill -9."""


def _interruptible(edges, stop_after):
    """A one-shot stream that dies after ``stop_after`` edges."""
    def generate():
        for i, edge in enumerate(edges):
            if i == stop_after:
                raise _Killed()
            yield edge
    return IterableSource(generate())


def _full_pipeline(seed=17):
    return Pipeline.from_registry(
        ALL_NAMES,
        num_estimators=32,
        seed=seed,
        options=SMALL_OPTIONS,
    )


class TestKillResume:
    BATCH = 128

    def test_killed_run_resumes_bit_identically(self, stream, tmp_path):
        """The acceptance bar: checkpoint mid-stream, die, resume, and
        every registered estimator reports exactly what an uninterrupted
        run reports."""
        ckpt = tmp_path / "ck"
        interrupted = _full_pipeline()
        with pytest.raises(_Killed):
            interrupted.run(
                _interruptible(stream, stop_after=7 * self.BATCH + 11),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=3,
            )
        # the periodic snapshot from batch 6 survived the crash
        assert load_checkpoint(ckpt).edges_seen == 6 * self.BATCH

        resumed = _full_pipeline().resume(ckpt)
        resumed_report = resumed.run(stream, batch_size=self.BATCH)

        uninterrupted_report = _full_pipeline().run(stream, batch_size=self.BATCH)

        assert resumed_report.edges == uninterrupted_report.edges
        assert resumed_report.batches == uninterrupted_report.batches
        for name in ALL_NAMES:
            assert (
                resumed_report[name].results == uninterrupted_report[name].results
            ), f"{name} diverged across kill/resume"

    def test_resume_requires_matching_batch_size(self, stream, tmp_path):
        pipe = _full_pipeline()
        pipe.run(stream, batch_size=self.BATCH, checkpoint_path=tmp_path / "ck")
        fresh = _full_pipeline().resume(tmp_path / "ck")
        with pytest.raises(InvalidParameterError, match="batch_size"):
            fresh.run(stream, batch_size=64)

    def test_resume_rejects_mismatched_estimators(self, stream, tmp_path):
        pipe = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        pipe.run(stream, batch_size=self.BATCH, checkpoint_path=tmp_path / "ck")
        other = Pipeline.from_registry(["exact"], seed=0)
        with pytest.raises(InvalidParameterError, match="do not match"):
            other.resume(tmp_path / "ck")

    def test_resume_rejects_different_file(self, stream, tmp_path):
        from repro.graph.io import write_edge_list
        from repro.streaming import FileSource

        write_edge_list(tmp_path / "a.edges", stream)
        write_edge_list(tmp_path / "b.edges", stream[: len(stream) // 2])
        pipe = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        pipe.run(
            FileSource(tmp_path / "a.edges"),
            batch_size=self.BATCH,
            checkpoint_path=tmp_path / "ck",
        )
        fresh = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        fresh.resume(tmp_path / "ck")
        with pytest.raises(InvalidParameterError, match="fingerprint"):
            fresh.run(FileSource(tmp_path / "b.edges"), batch_size=self.BATCH)

    def test_resume_accepts_a_file_that_grew(self, stream, tmp_path):
        """Appending to the stream and resuming the checkpoint to
        process the new edges is the expected production workflow.

        The cut is batch-aligned on purpose: that is the documented
        condition for bit-identity (an unaligned end-of-stream snapshot
        resumes statistically correctly but its first continuation
        batch is shorter than the uninterrupted run's, so the
        vectorized per-batch draws differ)."""
        from repro.graph.io import write_edge_list
        from repro.streaming import FileSource

        half = (len(stream) // (2 * self.BATCH)) * self.BATCH
        path = tmp_path / "grow.edges"
        write_edge_list(path, stream[:half])
        pipe = Pipeline.from_registry(["count", "exact"], num_estimators=16, seed=0)
        pipe.run(
            FileSource(path), batch_size=self.BATCH, checkpoint_path=tmp_path / "ck"
        )
        with open(path, "a", encoding="utf-8") as handle:
            for u, v in stream[half:]:
                handle.write(f"{u} {v}\n")

        resumed = Pipeline.from_registry(
            ["count", "exact"], num_estimators=16, seed=0
        ).resume(tmp_path / "ck")
        report = resumed.run(FileSource(path), batch_size=self.BATCH)

        uninterrupted = Pipeline.from_registry(
            ["count", "exact"], num_estimators=16, seed=0
        ).run(FileSource(path), batch_size=self.BATCH)
        assert report["count"].results == uninterrupted["count"].results
        assert report["exact"].results == uninterrupted["exact"].results

    def test_resume_rejects_short_stream(self, stream, tmp_path):
        pipe = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        pipe.run(stream, batch_size=self.BATCH, checkpoint_path=tmp_path / "ck")
        fresh = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        fresh.resume(tmp_path / "ck")
        # an IterableSource has no fingerprint, so the length check is
        # the only guard left standing
        with pytest.raises(InvalidParameterError, match="before the checkpoint"):
            fresh.run(
                IterableSource(iter(stream[: self.BATCH])),
                batch_size=self.BATCH,
            )

    def test_checkpoint_requires_checkpointable(self, stream, tmp_path):
        class Opaque:
            def update_batch(self, batch):
                pass

            def estimate(self):
                return 0.0

        pipe = Pipeline([("opaque", Opaque())])
        with pytest.raises(InvalidParameterError, match="opaque"):
            pipe.run(
                stream, batch_size=self.BATCH, checkpoint_path=tmp_path / "ck"
            )

    def test_delegating_wrapper_rejected_before_streaming(self, tmp_path):
        """Regression: TriangleCounter over a non-checkpointable engine
        *has* a state_dict method that only raises when called, so a
        hasattr pre-check let the whole stream burn before the first
        snapshot failed. The initial snapshot must fire before any
        batch is pulled."""
        consumed = []

        def watched():
            consumed.append(True)
            yield (0, 1)

        pipe = Pipeline.from_registry(
            ["count"], num_estimators=8, seed=0, options={"count": {"engine": "bulk"}}
        )
        with pytest.raises(InvalidParameterError, match="bulk"):
            pipe.run(
                watched(), batch_size=self.BATCH, checkpoint_path=tmp_path / "ck"
            )
        assert not consumed  # failed before the stream pass, not after

    def test_failed_resumed_run_retries_safely(self, stream, tmp_path):
        """Regression: a resumed run that failed (wrong path, transient
        I/O error) used to discard the resume position while the
        estimators kept their checkpoint state -- the retry silently
        double-counted the stream. The pipeline now reloads the
        checkpoint on failure, so a corrected run() is equivalent to
        never having failed."""
        from repro.streaming import FileSource

        ckpt = tmp_path / "ck"
        interrupted = _full_pipeline()
        with pytest.raises(_Killed):
            interrupted.run(
                _interruptible(stream, stop_after=5 * self.BATCH),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=2,
            )
        resumed = _full_pipeline().resume(ckpt)
        with pytest.raises(FileNotFoundError):
            resumed.run(FileSource(tmp_path / "typo.edges"), batch_size=self.BATCH)
        # the retry with the right source must match the uninterrupted run
        report = resumed.run(stream, batch_size=self.BATCH)
        reference = _full_pipeline().run(stream, batch_size=self.BATCH)
        for name in ALL_NAMES:
            assert report[name].results == reference[name].results, name

    def test_failed_resumed_run_with_lost_checkpoint_poisons(
        self, stream, tmp_path
    ):
        """If the checkpoint itself vanished, the retry must refuse to
        run rather than replay the stream over half-advanced state."""
        import shutil

        from repro.streaming import FileSource

        ckpt = tmp_path / "ck"
        pipe = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        pipe.run(stream, batch_size=self.BATCH, checkpoint_path=ckpt)
        fresh = Pipeline.from_registry(["count"], num_estimators=16, seed=0)
        fresh.resume(ckpt)
        shutil.rmtree(ckpt)  # the checkpoint is gone
        with pytest.raises(FileNotFoundError):
            fresh.run(FileSource(tmp_path / "typo.edges"), batch_size=self.BATCH)
        with pytest.raises(InvalidParameterError, match="call resume"):
            fresh.run(stream, batch_size=self.BATCH)

    def test_checkpoint_every_requires_path(self, stream):
        with pytest.raises(InvalidParameterError, match="checkpoint_path"):
            _full_pipeline().run(stream, checkpoint_every=2)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGUSR1"), reason="needs SIGUSR1"
    )
    def test_signal_triggers_mid_stream_snapshot(self, stream, tmp_path):
        """kill -USR1 snapshots at the next batch boundary."""
        ckpt = tmp_path / "ck"
        signal_at = 2 * self.BATCH + 5
        die_at = 5 * self.BATCH

        def generate():
            for i, edge in enumerate(stream):
                if i == signal_at:
                    os.kill(os.getpid(), signal.SIGUSR1)
                if i == die_at:
                    raise _Killed()
                yield edge

        pipe = Pipeline.from_registry(["count", "exact"], num_estimators=16, seed=0)
        with pytest.raises(_Killed):
            pipe.run(
                IterableSource(generate()),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_signal=signal.SIGUSR1,
            )
        # the only write came from the signal: batch boundary 3
        assert load_checkpoint(ckpt).edges_seen == 3 * self.BATCH

    def test_progress_reported_across_resume(self, stream, tmp_path):
        """Edge/batch totals cover the whole logical stream."""
        ckpt = tmp_path / "ck"
        interrupted = _full_pipeline()
        with pytest.raises(_Killed):
            interrupted.run(
                _interruptible(stream, stop_after=4 * self.BATCH),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=2,
            )
        resumed = _full_pipeline().resume(ckpt)
        report = resumed.run(stream, batch_size=self.BATCH)
        assert report.edges == len(stream)


# ---------------------------------------------------------------------------
# JournalSource enrollment: a journal directory is a first-class
# replayable source for the same kill/resume contract
# ---------------------------------------------------------------------------

class TestJournalSourceResume:
    BATCH = 128

    @pytest.fixture()
    def journal_dir(self, stream, tmp_path):
        """The stream, journaled at the suite's batch size."""
        from repro.streaming import EdgeBatch, JournalWriter

        directory = tmp_path / "journal"
        with JournalWriter(directory, fsync="off") as writer:
            for i in range(0, len(stream), self.BATCH):
                writer.append(
                    EdgeBatch(np.asarray(stream[i : i + self.BATCH], dtype=np.int64))
                )
        return directory

    def test_run_over_journal_matches_direct_run(self, stream, journal_dir):
        from repro.streaming import JournalSource

        direct = _full_pipeline().run(stream, batch_size=self.BATCH)
        replayed = _full_pipeline().run(
            JournalSource(journal_dir), batch_size=self.BATCH
        )
        assert replayed.edges == direct.edges
        assert replayed.batches == direct.batches
        for name in ALL_NAMES:
            assert replayed[name].results == direct[name].results, name

    def test_killed_journal_replay_resumes_bit_identically(
        self, stream, journal_dir, tmp_path
    ):
        """The TestKillResume contract with a JournalSource standing in
        for the file: checkpoint mid-replay, die, resume, finish
        bit-identical to an uninterrupted run."""
        from repro.streaming import JournalSource

        ckpt = tmp_path / "ck"
        interrupted = _full_pipeline()
        with pytest.raises(_Killed):
            interrupted.run(
                _interruptible(stream, stop_after=5 * self.BATCH + 3),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=2,
            )
        resumed = _full_pipeline().resume(ckpt)
        resumed_report = resumed.run(JournalSource(journal_dir), batch_size=self.BATCH)
        baseline = _full_pipeline().run(stream, batch_size=self.BATCH)
        assert resumed_report.edges == baseline.edges
        for name in ALL_NAMES:
            assert (
                resumed_report[name].results == baseline[name].results
            ), f"{name} diverged resuming over the journal"
