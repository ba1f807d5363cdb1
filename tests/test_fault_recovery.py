"""Chaos suite: every recovery path driven by deterministic faults.

The self-healing contract has four legs, each drilled here with
:class:`~repro.streaming.FaultPlan` injection rather than real outages:

- supervised shard workers -- SIGKILL, injected exceptions, and hangs
  are detected, the worker is respawned from the last in-memory
  snapshot with bounded replay, and the final report is bit-identical
  to an uninterrupted run (with a :class:`WorkerRestartedWarning` and
  zero leaked ``/dev/shm`` segments). Exhausting the restart budget
  raises :class:`RetryExhaustedError` carrying the last traceback;
- follow-mode sources -- read failures retry with backoff, rotation
  and truncation reopen from offset zero, and unparseable lines are
  scrubbed, all without ending the stream;
- checkpoint writes -- a failed *periodic* snapshot warns and the run
  continues; the initial fail-fast probe still aborts loudly;
- the durable ingest journal -- a torn final record is truncated on
  reopen, a CRC-corrupt mid-segment record raises the named
  :class:`JournalCorruptError` (never a silent skip), a crash during
  compaction can only leave extra segments behind, and a full disk
  degrades the writer with :class:`JournalWriteWarning` while the run
  completes;
- the fault plans themselves -- specs round-trip, bad specs are
  rejected, and worker faults target exact incarnations.

Set ``REPRO_TEST_TRANSPORTS`` (comma-separated: ``queue``, ``shm``) to
restrict which transports the multiprocess legs cover; by default both
run wherever shared memory exists.
"""

import glob
import os
import time
import warnings

import numpy as np
import pytest

from repro.core.parallel import ParallelTriangleCounter
from repro.errors import (
    CheckpointWriteWarning,
    InjectedFaultError,
    InvalidParameterError,
    JournalCorruptError,
    JournalWriteWarning,
    RetryExhaustedError,
    SourceRetryWarning,
    SourceRotatedWarning,
    VertexIdError,
    WorkerCrashedError,
    WorkerRestartedWarning,
)
from repro.generators import holme_kim
from repro.streaming import (
    EdgeBatch,
    FaultPlan,
    FollowSource,
    JournalWriter,
    Pipeline,
    ShardedPipeline,
    load_checkpoint,
    journal_records,
    shm_available,
)
from repro.streaming import faults as faults_module
from repro.streaming.faults import ALWAYS, Fault

EDGES = holme_kim(150, 3, 0.5, seed=5)


def _transports():
    spec = os.environ.get("REPRO_TEST_TRANSPORTS", "").strip()
    if spec:
        return [t.strip() for t in spec.split(",") if t.strip()]
    return ["queue"] + (["shm"] if shm_available() else [])


TRANSPORTS = _transports()


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No test may leave a process-global fault plan armed."""
    yield
    faults_module.install(None)


def own_segments():
    return glob.glob(f"/dev/shm/repro-{os.getpid()}-*")


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        left, right = a[key], b[key]
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, key
            assert np.array_equal(left, right), key
        else:
            assert left == right, key


# ---------------------------------------------------------------------------
# fault plans: parsing, round-trip, targeting
# ---------------------------------------------------------------------------

class TestFaultPlan:
    @pytest.mark.parametrize("spec", [
        "kill:w0@b5",
        "hang:w1@b3:always",
        "exc:w0@b2:r1",
        "source-error@r2",
        "source-delay@r3:0.5",
        "source-corrupt@r1",
        "ckpt-fail@s1",
        "journal-full@a3",
        "journal-torn@a2",
        "journal-corrupt@a1",
        "kill:w0@b5,exc:w1@b7,source-error@r2",
        "journal-full@a1,ckpt-fail@s2",
    ])
    def test_spec_round_trips(self, spec):
        plan = FaultPlan.parse(spec)
        assert plan.spec() == spec
        assert FaultPlan.parse(plan.spec()).faults == plan.faults

    @pytest.mark.parametrize("bad", [
        "kill:w0",
        "kill@b5",
        "hang:w1@b3:sometimes",
        "source-error@s2",
        "ckpt-fail@r1",
        "journal-full@s2",
        "journal-torn@bX",
        "explode:w0@b1",
        "",
        "  ,  ",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse(bad)

    def test_worker_faults_target_incarnations(self):
        plan = FaultPlan.parse("kill:w0@b5,exc:w0@b2:r1,hang:w1@b3:always")
        assert [f.kind for f in plan.worker_faults(0, 0)] == ["kill"]
        assert [f.kind for f in plan.worker_faults(0, 1)] == ["exc"]
        assert [f.kind for f in plan.worker_faults(0, 2)] == []
        for incarnation in range(3):
            assert [f.kind for f in plan.worker_faults(1, incarnation)] == ["hang"]

    def test_counters_reset_across_pickle(self):
        """The plan crosses into workers with fresh per-process counters."""
        import pickle

        plan = FaultPlan.parse("source-error@r1")
        with pytest.raises(OSError):
            plan.on_source_read()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults == plan.faults
        with pytest.raises(OSError):
            clone.on_source_read()

    def test_env_var_arms_a_plan(self, monkeypatch):
        monkeypatch.setenv(faults_module.ENV_VAR, "ckpt-fail@s3")
        monkeypatch.setattr(faults_module, "_INSTALLED", None)
        monkeypatch.setattr(faults_module, "_ENV_CHECKED", False)
        plan = faults_module.active_plan()
        assert plan is not None
        assert plan.faults == (Fault(kind="ckpt-fail", at=3),)

    def test_always_sentinel(self):
        (fault,) = FaultPlan.parse("exc:w2@b1:always").faults
        assert fault.incarnation == ALWAYS


# ---------------------------------------------------------------------------
# supervised shard workers
# ---------------------------------------------------------------------------

def _sharded_results(transport, **kwargs):
    pipe = ShardedPipeline(
        ["count", "wedges"],
        workers=2,
        num_estimators=128,
        seed=11,
        transport=transport,
        **kwargs,
    )
    report = pipe.run(EDGES, batch_size=32)
    return {e.name: e.results for e in report.estimators}, pipe


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestSupervisedRecovery:
    """Faulted supervised runs end bit-identical to clean unsupervised ones."""

    @pytest.mark.timeout(120)
    def test_sigkilled_worker_is_respawned_bit_identically(self, transport):
        baseline, _ = _sharded_results(transport)
        with pytest.warns(WorkerRestartedWarning, match="worker 0"):
            recovered, pipe = _sharded_results(
                transport,
                max_restarts=2,
                fault_plan=FaultPlan.parse("kill:w0@b2"),
            )
        assert recovered == baseline
        assert pipe.last_restarts == [1, 0]
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_capped_replay_window_catches_up_from_journal(
        self, transport, tmp_path
    ):
        """With a journal armed, the in-memory replay window may be
        capped: recovery re-reads the evicted prefix from disk and the
        run still ends bit-identical to an uninterrupted one."""
        baseline, _ = _sharded_results(transport)
        pipe = ShardedPipeline(
            ["count", "wedges"],
            workers=2,
            num_estimators=128,
            seed=11,
            transport=transport,
            max_restarts=2,
            snapshot_every=8,
            replay_window=1,
            fault_plan=FaultPlan.parse("kill:w0@b7"),
        )
        with pytest.warns(WorkerRestartedWarning, match="re-read from the journal"):
            report = pipe.run(EDGES, batch_size=32, journal_dir=tmp_path / "jd")
        recovered = {e.name: e.results for e in report.estimators}
        assert recovered == baseline
        assert pipe.last_restarts == [1, 0]
        # append-before-fan-out: the journal holds the whole stream
        journaled = sum(len(b) for b, _pos in journal_records(tmp_path / "jd"))
        assert journaled == report.edges

    @pytest.mark.timeout(120)
    def test_crashing_worker_is_respawned_bit_identically(self, transport):
        baseline, _ = _sharded_results(transport)
        with pytest.warns(WorkerRestartedWarning, match="worker 1"):
            recovered, pipe = _sharded_results(
                transport,
                max_restarts=2,
                fault_plan=FaultPlan.parse("exc:w1@b3"),
            )
        assert recovered == baseline
        assert pipe.last_restarts == [0, 1]
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_hung_worker_is_caught_by_the_deadline(self, transport):
        baseline, _ = _sharded_results(transport)
        with pytest.warns(WorkerRestartedWarning):
            recovered, pipe = _sharded_results(
                transport,
                max_restarts=2,
                worker_deadline=1.0,
                fault_plan=FaultPlan.parse("hang:w0@b2"),
            )
        assert recovered == baseline
        assert sum(pipe.last_restarts) >= 1
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_multiple_workers_fault_in_one_run(self, transport):
        baseline, _ = _sharded_results(transport)
        with pytest.warns(WorkerRestartedWarning):
            recovered, pipe = _sharded_results(
                transport,
                max_restarts=2,
                fault_plan=FaultPlan.parse("kill:w0@b2,exc:w1@b4"),
            )
        assert recovered == baseline
        assert pipe.last_restarts == [1, 1]
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_budget_exhaustion_raises_with_the_last_traceback(self, transport):
        with pytest.warns(WorkerRestartedWarning):
            with pytest.raises(RetryExhaustedError, match="worker 0") as excinfo:
                _sharded_results(
                    transport,
                    max_restarts=1,
                    fault_plan=FaultPlan.parse("exc:w0@b1:always"),
                )
        error = excinfo.value
        assert isinstance(error.__cause__, InjectedFaultError)
        assert error.last_traceback is not None
        assert "InjectedFaultError" in error.last_traceback
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_unsupervised_default_still_fails_fast(self, transport):
        """max_restarts=0 (the default) dies on the first crash: no
        respawn, no restart warning, WorkerCrashedError, no leaks."""
        pipe = ShardedPipeline(
            ["count"],
            workers=2,
            num_estimators=64,
            seed=1,
            transport=transport,
            fault_plan=FaultPlan.parse("kill:w1@b2"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", WorkerRestartedWarning)
            with pytest.raises(WorkerCrashedError, match="worker 1 died"):
                pipe.run(EDGES, batch_size=32)
        assert own_segments() == []

    @pytest.mark.timeout(120)
    def test_env_plan_reaches_workers_at_the_default(self, transport, monkeypatch):
        """Every sharded run goes through the supervisor, so an env-armed
        plan fires at max_restarts=0 too -- and fails the run."""
        monkeypatch.setenv(faults_module.ENV_VAR, "kill:w1@b2")
        monkeypatch.setattr(faults_module, "_INSTALLED", None)
        monkeypatch.setattr(faults_module, "_ENV_CHECKED", False)
        pipe = ShardedPipeline(
            ["count"], workers=2, num_estimators=64, seed=1, transport=transport
        )
        with pytest.raises(WorkerCrashedError, match="worker 1 died"):
            pipe.run(EDGES, batch_size=32)
        assert own_segments() == []


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestSupervisedParallelCounter:
    @pytest.mark.timeout(120)
    def test_killed_counter_worker_recovers_bit_identically(self, transport):
        def merged_state(**kwargs):
            counter = ParallelTriangleCounter(
                256, workers=2, seed=7, transport=transport, **kwargs
            )
            counter.count(EDGES, batch_size=32)
            return counter.merged.state_dict(), counter

        baseline, _ = merged_state()
        with pytest.warns(WorkerRestartedWarning):
            recovered, counter = merged_state(
                max_restarts=2, fault_plan=FaultPlan.parse("kill:w1@b2")
            )
        assert_states_equal(baseline, recovered)
        assert counter.last_restarts == [0, 1]
        assert own_segments() == []


# ---------------------------------------------------------------------------
# follow-mode source resilience
# ---------------------------------------------------------------------------

def _write_edges(path, edges, mode="w"):
    with open(path, mode) as handle:
        for u, v in edges:
            handle.write(f"{u} {v}\n")


def _collect(source, batch_size=4):
    got = []
    for batch in source.batches(batch_size):
        got.extend(map(tuple, batch.array.tolist()))
    return got


class TestFollowSourceResilience:
    EDGES_A = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    EDGES_B = [(10, 11), (11, 12), (12, 13)]

    @pytest.mark.timeout(60)
    def test_read_error_retries_with_backoff(self, tmp_path):
        path = tmp_path / "live.edges"
        _write_edges(path, self.EDGES_A)
        faults_module.install(FaultPlan.parse("source-error@r1"))
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.2)
        with pytest.warns(SourceRetryWarning, match="retrying"):
            got = _collect(source)
        assert got == self.EDGES_A

    @pytest.mark.timeout(60)
    def test_failure_streak_still_honours_idle_timeout(self, tmp_path):
        """A file that keeps erroring must not pin the stream open."""
        path = tmp_path / "live.edges"
        _write_edges(path, self.EDGES_A[:2])
        faults_module.install(FaultPlan.parse(
            ",".join(f"source-error@r{n}" for n in range(2, 40))
        ))
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.3)
        start = time.monotonic()
        with pytest.warns(SourceRetryWarning):
            got = _collect(source)
        assert got == self.EDGES_A[:2]
        assert time.monotonic() - start < 30

    @pytest.mark.timeout(60)
    def test_rotation_reopens_the_new_file_from_zero(self, tmp_path):
        path = tmp_path / "live.edges"
        _write_edges(path, self.EDGES_A)
        state = {"rotated": False, "stop": False}
        source = FollowSource(
            path, poll_interval=0.01, idle_timeout=10.0,
            stop=lambda: state["stop"],
        )
        got = []
        with pytest.warns(SourceRotatedWarning, match="rotated"):
            for batch in source.batches(4):
                got.extend(map(tuple, batch.array.tolist()))
                if len(got) == len(self.EDGES_A) and not state["rotated"]:
                    os.replace(path, tmp_path / "live.edges.1")
                    _write_edges(path, self.EDGES_B)
                    state["rotated"] = True
                if len(got) == len(self.EDGES_A) + len(self.EDGES_B):
                    state["stop"] = True
        assert got == self.EDGES_A + self.EDGES_B

    @pytest.mark.timeout(60)
    def test_truncation_restarts_from_zero(self, tmp_path):
        path = tmp_path / "live.edges"
        _write_edges(path, self.EDGES_A)
        state = {"truncated": False, "stop": False}
        source = FollowSource(
            path, poll_interval=0.01, idle_timeout=10.0,
            stop=lambda: state["stop"],
        )
        got = []
        with pytest.warns(SourceRotatedWarning, match="truncated"):
            for batch in source.batches(4):
                got.extend(map(tuple, batch.array.tolist()))
                if len(got) == len(self.EDGES_A) and not state["truncated"]:
                    _write_edges(path, self.EDGES_B, mode="w")  # shrink in place
                    state["truncated"] = True
                if len(got) == len(self.EDGES_A) + len(self.EDGES_B):
                    state["stop"] = True
        assert got == self.EDGES_A + self.EDGES_B

    @pytest.mark.timeout(60)
    def test_unparseable_lines_are_scrubbed_not_fatal(self, tmp_path):
        path = tmp_path / "live.edges"
        _write_edges(path, self.EDGES_A)
        faults_module.install(FaultPlan.parse("source-corrupt@r1"))
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.2)
        with pytest.warns(SourceRetryWarning, match="dropp"):
            got = _collect(source)
        assert got == self.EDGES_A

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "signed, text",
        [
            (False, "0 1\n1 2\n3000000000 4\n2 0\n"),
            (True, "0 1 +1\n1 2 +1\n3000000000 4 +1\n2 0 +1\n"),
        ],
        ids=["unsigned", "signed"],
    )
    def test_out_of_range_id_raises_not_scrubbed(self, tmp_path, signed, text):
        """A well-formed line whose id is outside [0, 2^31) breaks the id
        contract; it is not corruption, so both paths raise instead of
        warning (the signed path used to drop the line and carry on)."""
        path = tmp_path / "live.edges"
        path.write_text(text)
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.2, signed=signed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SourceRetryWarning)
            with pytest.raises(InvalidParameterError, match="got 3000000000"):
                _collect(source)

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    def test_id_beyond_int64_raises_not_scrubbed(self, tmp_path, signed):
        """An id too big for int64 is an out-of-range id like any other:
        it raises VertexIdError naming the line instead of escaping as
        an OverflowError that the scrub set swallowed."""
        path = tmp_path / "live.edges"
        sign = " +1" if signed else ""
        path.write_text(f"0 1{sign}\n1 99999999999999999999{sign}\n")
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.2, signed=signed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SourceRetryWarning)
            with pytest.raises(VertexIdError, match="line 2: .*got 99999999999999999999"):
                _collect(source)

    @pytest.mark.timeout(60)
    def test_corrupt_line_cannot_lock_the_signed_layout(self, tmp_path):
        """The injected garbage line has three tokens; in scrub mode it
        must not lock the 'u v +1' layout over a bare 'u v' file (which
        would scrub every real edge)."""
        path = tmp_path / "live.edges"
        _write_edges(path, self.EDGES_A)
        faults_module.install(FaultPlan.parse("source-corrupt@r1"))
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.2, signed=True)
        with pytest.warns(SourceRetryWarning, match="dropped 1 "):
            got = _collect(source)
        assert got == self.EDGES_A


# ---------------------------------------------------------------------------
# checkpoint write failures
# ---------------------------------------------------------------------------

class TestCheckpointFaults:
    @pytest.mark.timeout(60)
    def test_periodic_failure_warns_and_the_run_completes(self, tmp_path):
        def run(plan):
            faults_module.install(plan)
            pipeline = Pipeline.from_registry(
                ["count"], num_estimators=64, seed=3
            )
            report = pipeline.run(
                EDGES,
                batch_size=16,
                checkpoint_path=tmp_path / "ck",
                checkpoint_every=2,
            )
            return {e.name: e.results for e in report.estimators}

        # Save #1 is the fail-fast validation probe; #2 is the first
        # periodic snapshot -- the one that must warn, not abort.
        with pytest.warns(CheckpointWriteWarning, match="batch 2"):
            faulted = run(FaultPlan.parse("ckpt-fail@s2"))
        faults_module.install(None)
        clean = run(None)
        assert faulted == clean
        # The final checkpoint (stream end) still landed and loads.
        ck = load_checkpoint(tmp_path / "ck")
        assert ck.edges_seen == len(EDGES)

    @pytest.mark.timeout(60)
    def test_initial_probe_failure_aborts_loudly(self, tmp_path):
        """An unwritable checkpoint dir must fail before hours of
        streaming, not after -- the first save stays fail-fast."""
        faults_module.install(FaultPlan.parse("ckpt-fail@s1"))
        pipeline = Pipeline.from_registry(["count"], num_estimators=64, seed=3)
        with pytest.raises(OSError, match="injected checkpoint"):
            pipeline.run(
                EDGES,
                batch_size=16,
                checkpoint_path=tmp_path / "ck",
                checkpoint_every=2,
            )


# ---------------------------------------------------------------------------
# durable ingest journal
# ---------------------------------------------------------------------------

def _journal_batch(i):
    return EdgeBatch(np.array([[i, i + 1], [i, i + 2]], dtype=np.int64))


class TestJournalFaults:
    @pytest.mark.timeout(60)
    def test_torn_final_record_truncated_on_reopen(self, tmp_path):
        """A crash mid-append leaves a torn tail: replay ends cleanly at
        the last complete record, and a reopened writer repairs the tear
        and appends past it."""
        faults_module.install(FaultPlan.parse("journal-torn@a3"))
        with JournalWriter(tmp_path, fsync="off") as writer:
            for i in range(3):
                writer.append(_journal_batch(i))
        assert len(list(journal_records(tmp_path))) == 2
        faults_module.install(None)
        with JournalWriter(tmp_path, fsync="off") as writer:
            writer.append(_journal_batch(99))
        batches = [b for b, _pos in journal_records(tmp_path)]
        assert len(batches) == 3
        assert batches[-1].array[0, 0] == 99

    @pytest.mark.timeout(60)
    def test_corrupt_record_raises_named_error_not_silent_skip(self, tmp_path):
        """A complete record with a bad CRC is corruption, not a torn
        tail: both the replayer and a reopening writer must refuse with
        the named error instead of skipping data."""
        faults_module.install(FaultPlan.parse("journal-corrupt@a2"))
        with JournalWriter(tmp_path, fsync="off") as writer:
            for i in range(3):
                writer.append(_journal_batch(i))
        with pytest.raises(JournalCorruptError, match="CRC mismatch"):
            list(journal_records(tmp_path))
        with pytest.raises(JournalCorruptError, match="CRC mismatch"):
            JournalWriter(tmp_path)

    @pytest.mark.timeout(60)
    def test_crash_during_compaction_leaves_no_hole(self, tmp_path, monkeypatch):
        """Compaction unlinks oldest-first; dying partway may leave
        *extra* segments but never a gap the checkpointed position
        still needs."""
        from pathlib import Path

        with JournalWriter(tmp_path, fsync="off", max_segment_bytes=64) as writer:
            positions = [writer.append(_journal_batch(i)) for i in range(8)]
            keep = positions[5]
            before = writer.stats()["segments"]
            assert before > 3

            real_unlink = Path.unlink
            budget = [1]  # the crash: one unlink succeeds, then the disk "dies"

            def dying_unlink(self, *args, **kwargs):
                if budget[0] <= 0:
                    raise OSError("injected crash mid-compaction")
                budget[0] -= 1
                return real_unlink(self, *args, **kwargs)

            monkeypatch.setattr(Path, "unlink", dying_unlink)
            assert writer.compact(keep) == 1
            monkeypatch.setattr(Path, "unlink", real_unlink)

            # extra segments remain, but the replay range is whole
            replayed = [b for b, _pos in journal_records(tmp_path, start=keep)]
            assert len(replayed) == 2
            # a second, healthy compaction finishes the job
            assert writer.compact(keep) >= 1
            replayed = [b for b, _pos in journal_records(tmp_path, start=keep)]
            assert len(replayed) == 2

    @pytest.mark.timeout(60)
    def test_disk_full_degrades_and_the_run_completes(self, tmp_path):
        """An append hitting a full disk warns once and disables
        journaling; the stream pass itself must finish with results
        identical to an unjournaled run."""

        def run(plan, journal_dir=None):
            faults_module.install(plan)
            pipeline = Pipeline.from_registry(["count"], num_estimators=64, seed=3)
            kwargs = {"journal_dir": journal_dir} if journal_dir else {}
            report = pipeline.run(EDGES, batch_size=16, **kwargs)
            return {e.name: e.results for e in report.estimators}

        with pytest.warns(JournalWriteWarning, match="disabled"):
            faulted = run(
                FaultPlan.parse("journal-full@a3"), journal_dir=tmp_path / "jd"
            )
        clean = run(None)
        assert faulted == clean
        # exactly the appends before the failure are replayable
        assert len(list(journal_records(tmp_path / "jd"))) == 2

    @pytest.mark.timeout(60)
    def test_degraded_journal_reported_in_snapshots(self, tmp_path):
        faults_module.install(FaultPlan.parse("journal-full@a1"))
        pipeline = Pipeline.from_registry(["count"], num_estimators=64, seed=3)
        with pytest.warns(JournalWriteWarning):
            last = None
            for snapshot in pipeline.snapshots(
                EDGES, batch_size=32, every=2, journal_dir=tmp_path / "jd"
            ):
                last = snapshot
        assert last is not None
        assert last.to_dict()["journal"]["degraded"] is True
        assert "DEGRADED" in last.render_line()
