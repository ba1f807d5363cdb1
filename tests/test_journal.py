"""The durable ingest journal: format, crash recovery, exactly-once resume.

Three layers:

- **Format.** Records round-trip byte-identically (signs included),
  segments rotate at the size bound, replay honors ``(segment,
  offset)`` start positions, and compaction only ever removes whole
  segments *behind* a checkpointed position.
- **Crash model (hypothesis).** A journal truncated at *any* byte of
  its final segment -- the only place an append-in-progress can die --
  recovers to exactly the batches whose records were fully durable,
  and a reopened writer appends past the repaired tail.
- **Exactly-once (end to end).** A ``repro watch -`` run over a real
  pipe, SIGKILLed mid-stream and resumed from ``--checkpoint`` +
  ``--journal``, finishes with results bit-identical to an
  uninterrupted fixed-seed run -- for unsigned streams and for signed
  (turnstile) streams feeding ``triest-fd``. This is the acceptance
  bar: stdin cannot re-serve consumed edges, so every replayed edge
  must come off the journal, each exactly once.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    InvalidParameterError,
    JournalCorruptError,
)
from repro.generators import holme_kim
from repro.streaming import (
    EdgeBatch,
    IterableSource,
    JournalSource,
    JournalWriter,
    Pipeline,
    journal_records,
)
from repro.streaming.journal import _MAGIC, _list_segments

EDGES = holme_kim(300, 4, 0.5, seed=13)


def _batch(rng, rows: int, signed: bool) -> EdgeBatch:
    u = rng.integers(0, 500, size=rows, dtype=np.int64)
    v = u + 1 + rng.integers(0, 500, size=rows, dtype=np.int64)
    edges = np.stack([u, v], axis=1)
    if not signed:
        return EdgeBatch(edges)
    signs = rng.choice(np.array([1, -1], dtype=np.int8), size=rows)
    return EdgeBatch(edges, signs)


def _assert_batches_equal(got, expected):
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        assert left.wire.dtype == right.wire.dtype
        assert np.array_equal(left.wire, right.wire)
        assert (left.signs is None) == (right.signs is None)


# ---------------------------------------------------------------------------
# format: round trip, rotation, positions, compaction
# ---------------------------------------------------------------------------

class TestFormat:
    def test_round_trips_signed_and_unsigned(self, tmp_path):
        rng = np.random.default_rng(1)
        batches = [_batch(rng, 1 + i, signed=i % 2 == 0) for i in range(6)]
        with JournalWriter(tmp_path, fsync="off") as writer:
            for batch in batches:
                assert writer.append(batch) is not None
        got = [b for b, _pos in journal_records(tmp_path)]
        _assert_batches_equal(got, batches)

    def test_rotation_keeps_every_record(self, tmp_path):
        rng = np.random.default_rng(2)
        batches = [_batch(rng, 4, signed=False) for _ in range(12)]
        with JournalWriter(tmp_path, fsync="off", max_segment_bytes=128) as w:
            for batch in batches:
                w.append(batch)
            assert w.stats()["segments"] > 1
        _assert_batches_equal(
            [b for b, _pos in journal_records(tmp_path)], batches
        )

    def test_replay_from_position_yields_strict_suffix(self, tmp_path):
        rng = np.random.default_rng(3)
        batches = [_batch(rng, 3, signed=False) for _ in range(8)]
        positions = []
        with JournalWriter(tmp_path, fsync="off", max_segment_bytes=128) as w:
            positions = [w.append(b) for b in batches]
        for k, start in enumerate(positions):
            got = [b for b, _pos in journal_records(tmp_path, start=start)]
            _assert_batches_equal(got, batches[k + 1 :])

    def test_yielded_positions_are_resumable(self, tmp_path):
        rng = np.random.default_rng(4)
        with JournalWriter(tmp_path, fsync="off", max_segment_bytes=128) as w:
            for _ in range(8):
                w.append(_batch(rng, 3, signed=False))
        records = list(journal_records(tmp_path))
        for k, (_batch_k, pos) in enumerate(records):
            tail = [b for b, _p in journal_records(tmp_path, start=pos)]
            _assert_batches_equal(tail, [b for b, _p in records[k + 1 :]])

    def test_compaction_drops_only_segments_behind_position(self, tmp_path):
        rng = np.random.default_rng(5)
        with JournalWriter(tmp_path, fsync="off", max_segment_bytes=128) as w:
            positions = [w.append(_batch(rng, 4, signed=False)) for _ in range(12)]
            keep_from = positions[7]
            removed = w.compact({"segment": keep_from[0], "offset": keep_from[1]})
            assert removed > 0
            # everything at or after the kept position still replays
            got = [b for b, _pos in journal_records(tmp_path, start=keep_from)]
            assert len(got) == len(positions) - 8
            assert w.stats()["compacted_segments"] == removed

    def test_compaction_never_touches_active_segment(self, tmp_path):
        rng = np.random.default_rng(6)
        with JournalWriter(tmp_path, fsync="off") as w:
            w.append(_batch(rng, 2, signed=False))
            assert w.compact(w.position()) == 0
            assert w.compact(None) == 0
        assert len(_list_segments(tmp_path)) == 1

    def test_replay_from_compacted_segment_raises(self, tmp_path):
        rng = np.random.default_rng(7)
        with JournalWriter(tmp_path, fsync="off", max_segment_bytes=128) as w:
            positions = [w.append(_batch(rng, 4, signed=False)) for _ in range(12)]
            w.compact(positions[-1])
        with pytest.raises(JournalCorruptError, match="missing"):
            list(journal_records(tmp_path, start=positions[0]))

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="fsync"):
            JournalWriter(tmp_path, fsync="sometimes")
        with pytest.raises(InvalidParameterError, match="max_segment_bytes"):
            JournalWriter(tmp_path, max_segment_bytes=1)

    def test_stats_shape(self, tmp_path):
        with JournalWriter(tmp_path, fsync="always") as w:
            w.append(_batch(np.random.default_rng(8), 3, signed=False))
            stats = w.stats()
        for key in (
            "fsync", "segments", "segment", "offset", "appends",
            "bytes_appended", "fsyncs", "compacted_segments",
            "fsync_lag_s", "degraded",
        ):
            assert key in stats, key
        assert stats["appends"] == 1
        assert stats["fsyncs"] >= 1
        assert stats["degraded"] is False


# ---------------------------------------------------------------------------
# crash model: truncate the final segment at any byte
# ---------------------------------------------------------------------------

class TestCrashAtAnyByte:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_batches=st.integers(1, 10),
        cut_fraction=st.floats(0.0, 1.0),
    )
    def test_torn_tail_recovers_to_exact_durable_prefix(
        self, tmp_path, seed, n_batches, cut_fraction
    ):
        """Truncate the final segment anywhere; replay must yield exactly
        the batches whose records were fully on disk -- byte-identical --
        and a reopened writer must append cleanly past the repair."""
        # examples share tmp_path and distinct cut fractions can print
        # alike, so each example gets a fresh directory
        directory = Path(tempfile.mkdtemp(dir=tmp_path))
        rng = np.random.default_rng(seed)
        batches = [
            _batch(rng, int(rng.integers(1, 6)), signed=bool(rng.integers(2)))
            for _ in range(n_batches)
        ]
        with JournalWriter(directory, fsync="off", max_segment_bytes=256) as w:
            positions = [w.append(b) for b in batches]
        segments = _list_segments(directory)
        last_seq, last_path = segments[-1]
        size = last_path.stat().st_size
        cut = int(round(cut_fraction * size))
        with open(last_path, "r+b") as handle:
            handle.truncate(cut)

        durable = [
            b
            for b, (seq, end) in zip(batches, positions)
            if seq < last_seq or end <= cut
        ]
        _assert_batches_equal(
            [b for b, _pos in journal_records(directory)], durable
        )

        # recovery truncates the tear; the journal accepts new appends
        extra = _batch(rng, 3, signed=False)
        with JournalWriter(directory, fsync="off", max_segment_bytes=256) as w:
            w.append(extra)
        _assert_batches_equal(
            [b for b, _pos in journal_records(directory)], durable + [extra]
        )

    def test_corrupt_mid_segment_record_raises_not_skips(self, tmp_path):
        rng = np.random.default_rng(9)
        with JournalWriter(tmp_path, fsync="off") as w:
            for _ in range(3):
                w.append(_batch(rng, 4, signed=False))
        (_, path), = _list_segments(tmp_path)
        flip_at = len(_MAGIC) + 8 + 10  # inside the first record's payload
        with open(path, "r+b") as handle:
            handle.seek(flip_at)
            byte = handle.read(1)
            handle.seek(flip_at)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(JournalCorruptError, match="CRC mismatch"):
            list(journal_records(tmp_path))
        # the writer likewise refuses to open past corruption
        with pytest.raises(JournalCorruptError, match="CRC mismatch"):
            JournalWriter(tmp_path)


# ---------------------------------------------------------------------------
# JournalSource: a journal as a replayable EdgeSource
# ---------------------------------------------------------------------------

class TestJournalSource:
    def _write(self, directory, batches):
        with JournalWriter(directory, fsync="off") as w:
            for batch in batches:
                w.append(batch)

    def test_replays_original_batching(self, tmp_path):
        rng = np.random.default_rng(10)
        batches = [_batch(rng, 2 + i, signed=False) for i in range(4)]
        self._write(tmp_path, batches)
        source = JournalSource(tmp_path)
        assert source.replayable
        # batch_size is deliberately ignored: re-batching would move
        # checkpoint boundaries and break bit-identical resume.
        got = list(source.batches(999_999))
        _assert_batches_equal(got, batches)
        assert source.signed is False

    def test_signed_probe(self, tmp_path):
        rng = np.random.default_rng(11)
        self._write(tmp_path, [_batch(rng, 3, signed=True)])
        assert JournalSource(tmp_path).signed is True

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            JournalSource(tmp_path / "nope")

    def test_pipeline_over_journal_matches_direct_run(self, tmp_path):
        """A journaled run replayed through JournalSource reproduces the
        direct run bit for bit (same batches, same arrival order)."""
        direct = Pipeline.from_registry(["count"], num_estimators=64, seed=3)
        direct_report = direct.run(EDGES, batch_size=64)

        journaled = Pipeline.from_registry(["count"], num_estimators=64, seed=3)
        journaled.run(
            EDGES,
            batch_size=64,
            journal_dir=tmp_path / "jd",
            journal_fsync="off",
        )
        replayed = Pipeline.from_registry(["count"], num_estimators=64, seed=3)
        replayed_report = replayed.run(JournalSource(tmp_path / "jd"), batch_size=64)
        assert replayed_report.edges == direct_report.edges
        assert (
            replayed_report["count"].results == direct_report["count"].results
        )


# ---------------------------------------------------------------------------
# pipeline: exactly-once resume over a non-replayable source
# ---------------------------------------------------------------------------

class _Died(RuntimeError):
    """Planted mid-stream crash standing in for a kill -9."""


def _dying_source(edges, stop_after):
    def generate():
        for i, edge in enumerate(edges):
            if i == stop_after:
                raise _Died()
            yield edge
    return IterableSource(generate())


class TestExactlyOnceResume:
    BATCH = 64

    def _pipeline(self):
        return Pipeline.from_registry(
            ["count", "transitivity"], num_estimators=64, seed=17
        )

    def test_non_replayable_resume_is_bit_identical(self, tmp_path):
        """Kill a journaled run over a one-shot source; resume with a
        source serving only the never-delivered suffix. The journal
        replay must cover the gap between checkpoint and crash."""
        ckpt, jd = tmp_path / "ck", tmp_path / "jd"
        interrupted = self._pipeline()
        stop = 7 * self.BATCH + 9
        with pytest.raises(_Died):
            interrupted.run(
                _dying_source(EDGES, stop),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=3,
                journal_dir=jd,
                journal_fsync="off",
            )
        # the journal holds every *fully delivered* batch
        journaled_edges = sum(
            len(b) for b, _pos in journal_records(jd)
        )
        assert journaled_edges == 7 * self.BATCH

        resumed = self._pipeline().resume(ckpt)
        remaining = EDGES[journaled_edges:]
        resumed_report = resumed.run(
            IterableSource(iter(remaining)),
            batch_size=self.BATCH,
            journal_dir=jd,
            journal_fsync="off",
        )
        baseline = self._pipeline().run(EDGES, batch_size=self.BATCH)
        assert resumed_report.edges == baseline.edges
        for name in ("count", "transitivity"):
            assert resumed_report[name].results == baseline[name].results, name

    def test_resumed_journal_extends_not_overwrites(self, tmp_path):
        """After a kill/resume cycle the journal replays the *whole*
        stream: the resume appends live batches after the replayed ones."""
        ckpt, jd = tmp_path / "ck", tmp_path / "jd"
        with pytest.raises(_Died):
            self._pipeline().run(
                _dying_source(EDGES, 4 * self.BATCH + 1),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=2,
                journal_dir=jd,
                journal_fsync="off",
            )
        journaled = sum(len(b) for b, _pos in journal_records(jd))
        self._pipeline().resume(ckpt).run(
            IterableSource(iter(EDGES[journaled:])),
            batch_size=self.BATCH,
            journal_dir=jd,
            journal_fsync="off",
        )
        total = sum(len(b) for b, _pos in journal_records(jd))
        assert total == len(EDGES)

    def test_snapshots_surface_journal_stats(self, tmp_path):
        pipe = Pipeline.from_registry(["count"], num_estimators=32, seed=1)
        seen = []
        for snapshot in pipe.snapshots(
            EDGES,
            batch_size=self.BATCH,
            every=2,
            journal_dir=tmp_path / "jd",
            journal_fsync="batch",
        ):
            seen.append(snapshot)
        assert seen
        stats = seen[-1].to_dict()["journal"]
        assert stats["appends"] == seen[-1].batches
        assert stats["bytes_appended"] > 0
        assert stats["degraded"] is False
        assert "journal" in seen[-1].render_line()


# ---------------------------------------------------------------------------
# end to end: watch - over a pipe, kill -9, resume from the journal
# ---------------------------------------------------------------------------

def _repro(*args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )


def _feed(proc, lines):
    for line in lines:
        proc.stdin.write((line + "\n").encode())
    proc.stdin.flush()


def _final_results(jsonl_path):
    with open(jsonl_path) as handle:
        last = json.loads(handle.readlines()[-1])
    # wall-clock seconds differ run to run; the *results* must not.
    return last["edges"], [
        (e["name"], e["results"]) for e in last["estimators"]
    ]


def _wait_for_batches(jsonl_path, minimum, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(jsonl_path) as handle:
                lines = handle.readlines()
            if lines and json.loads(lines[-1])["batches"] >= minimum:
                return
        except (OSError, json.JSONDecodeError, KeyError, IndexError):
            pass
        time.sleep(0.05)
    raise AssertionError(f"watcher never reached batch {minimum}")


def _turnstile_lines(n_events, seed):
    """A valid turnstile schedule: deletions only of live edges."""
    rng = np.random.default_rng(seed)
    live, lines = [], []
    for _ in range(n_events):
        if live and rng.random() < 0.25:
            u, v = live.pop(int(rng.integers(len(live))))
            lines.append(f"{u} {v} -1")
        else:
            u = int(rng.integers(0, 60))
            v = int(rng.integers(0, 60))
            if u == v:
                v = (v + 1) % 61
            edge = (min(u, v), max(u, v))
            live.append(edge)
            lines.append(f"{edge[0]} {edge[1]} +1")
    return lines


class TestWatchKillResume:
    """The acceptance bar: exactly-once over a real pipe and kill -9."""

    BATCH = 64

    def _run_to_completion(self, args, lines, jsonl):
        proc = _repro(*args, "--jsonl", str(jsonl))
        _feed(proc, lines)
        proc.stdin.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0, err
        return _final_results(jsonl)

    def _kill_resume_case(self, tmp_path, lines, extra_args):
        base_args = [
            "watch", "--input", "-", "--seed", "7",
            "--batch-size", str(self.BATCH), "--every", "1", *extra_args,
        ]
        baseline = self._run_to_completion(
            base_args, lines, tmp_path / "baseline.jsonl"
        )

        ckpt, jd = str(tmp_path / "ck"), str(tmp_path / "jd")
        durable = [
            *base_args, "--checkpoint", ckpt, "--checkpoint-every", "2",
            "--journal", jd, "--journal-fsync", "batch",
        ]
        victim = _repro(*durable, "--jsonl", str(tmp_path / "victim.jsonl"))
        split = (len(lines) // 2 // self.BATCH) * self.BATCH + 7
        _feed(victim, lines[:split])
        _wait_for_batches(tmp_path / "victim.jsonl", 2)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        # stdin cannot re-serve: the continuation owes the journal every
        # edge the victim consumed, and the producer only the rest.
        consumed = sum(len(b) for b, _pos in journal_records(jd))
        assert 0 < consumed < len(lines)
        resumed = self._run_to_completion(
            [*durable, "--resume", ckpt],
            lines[consumed:],
            tmp_path / "resumed.jsonl",
        )
        assert resumed == baseline, (
            "kill/resume diverged from the uninterrupted run"
        )

    @pytest.mark.timeout(180)
    def test_unsigned_stream(self, tmp_path):
        lines = [f"{u} {v}" for u, v in holme_kim(350, 4, 0.5, seed=23)]
        self._kill_resume_case(
            tmp_path, lines, ["--estimator", "count", "--estimators", "64"]
        )

    @pytest.mark.timeout(180)
    def test_signed_stream(self, tmp_path):
        lines = _turnstile_lines(600, seed=29)
        self._kill_resume_case(
            tmp_path,
            lines,
            ["--signed", "--estimator", "triest-fd", "--estimators", "16"],
        )
