"""Tests for the live query surface: snapshots, follow-mode sources, watch.

The contract under test: ``Pipeline.run`` and ``Pipeline.snapshots``
share one stream driver, so observing the stream mid-flight must not
change it -- the final snapshot is bit-identical to ``run``'s report
for every registered estimator under a fixed seed -- and the
follow-mode sources/CLI keep that surface alive over streams that are
still being written.
"""

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import InvalidParameterError, SourceExhaustedError
from repro.generators import holme_kim
from repro.graph import write_edge_list
from repro.streaming import (
    ESTIMATORS,
    FollowSource,
    LineSource,
    Pipeline,
    PipelineSnapshot,
    as_source,
)

EDGES = holme_kim(250, 3, 0.5, seed=4)

#: Small pools keep the per-edge estimators (cliques, windows) quick.
POOL = 32


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.edges"
    write_edge_list(path, EDGES)
    return str(path)


def _results(report):
    return {r.name: r.results for r in report.estimators}


class TestSnapshots:
    def test_final_snapshot_bit_identical_to_run_for_every_estimator(self):
        """The acceptance contract, over the whole registry: draining
        snapshots (live reporters firing every other batch) ends in
        exactly run()'s report."""
        names = ESTIMATORS.names()
        ran = Pipeline.from_registry(names, num_estimators=POOL, seed=11).run(
            EDGES, batch_size=50
        )
        snapshots = list(
            Pipeline.from_registry(names, num_estimators=POOL, seed=11).snapshots(
                EDGES, batch_size=50, every=2
            )
        )
        final = snapshots[-1]
        assert final.final
        assert (final.edges, final.batches) == (ran.edges, ran.batches)
        assert _results(final) == _results(ran)

    def test_snapshot_cadence_and_monotonicity(self):
        snapshots = list(
            Pipeline.from_registry(["exact"]).snapshots(
                EDGES, batch_size=50, every=3
            )
        )
        m = len(EDGES)
        total = -(-m // 50)
        expected = [b for b in range(1, total + 1) if b % 3 == 0]
        assert [s.batches for s in snapshots[:-1]] == expected
        assert [s.edges for s in snapshots[:-1]] == [
            min(b * 50, m) for b in expected
        ]
        assert snapshots[-1].batches == total
        assert snapshots[-1].edges == m
        assert [s.final for s in snapshots] == [False] * (len(snapshots) - 1) + [True]
        edge_counts = [s.edges for s in snapshots]
        assert edge_counts == sorted(edge_counts)
        assert all(isinstance(s, PipelineSnapshot) for s in snapshots)

    def test_mid_stream_snapshots_use_live_reporters(self):
        """`sample`'s final reporter draws a triangle (consuming
        randomness); mid-stream snapshots must report pure queries only."""
        snapshots = list(
            Pipeline.from_registry(["sample"], num_estimators=POOL, seed=3).snapshots(
                EDGES, batch_size=50, every=1
            )
        )
        for snap in snapshots[:-1]:
            assert "triangle" not in snap["sample"].results
            assert "success_fraction" in snap["sample"].results
        assert "triangle" in snapshots[-1]["sample"].results

    def test_custom_live_reporters_override(self):
        from repro.baselines.exact_stream import ExactStreamingCounter

        pipeline = Pipeline(
            {"x": ExactStreamingCounter()},
            reporters={"x": lambda c: {"full": int(c.triangles)}},
            live_reporters={"x": lambda c: {"lite": int(c.triangles)}},
        )
        snaps = list(pipeline.snapshots(EDGES, batch_size=100, every=1))
        assert "lite" in snaps[0]["x"].results
        assert "full" in snaps[-1]["x"].results

    def test_every_validated_eagerly(self):
        pipeline = Pipeline.from_registry(["exact"])
        with pytest.raises(InvalidParameterError):
            pipeline.snapshots(EDGES, every=0)

    def test_batch_size_validated_eagerly(self):
        pipeline = Pipeline.from_registry(["exact"])
        with pytest.raises(InvalidParameterError):
            pipeline.snapshots(EDGES, batch_size=0)

    def test_snapshot_to_dict_and_render_line(self):
        snaps = list(
            Pipeline.from_registry(["exact"]).snapshots(EDGES, batch_size=100)
        )
        d = snaps[0].to_dict()
        assert d["final"] is False and snaps[-1].to_dict()["final"] is True
        json.dumps(d)  # JSONL-safe
        line = snaps[-1].render_line()
        assert "[final]" in line and "exact:" in line
        assert snaps[-1].checkpoint is None and "checkpoint" not in d
        assert "[ckpt" not in line

    def test_checkpointed_pass_reports_save_latency(self, tmp_path):
        """One save before the stream, one every 2nd batch of 300 edges
        in batches of 50, and the final one."""
        snaps = list(
            Pipeline.from_registry(["count"], num_estimators=POOL, seed=1).snapshots(
                EDGES[:300], batch_size=50, every=1,
                checkpoint_path=tmp_path / "ck", checkpoint_every=2,
            )
        )
        saves = [s.checkpoint["saves"] for s in snaps]
        assert saves == [1, 2, 2, 3, 3, 4, 5]
        final = snaps[-1].checkpoint
        assert 0 < final["last_ms"] <= final["max_ms"]
        ck = tmp_path / "ck"  # the 5th save rewrote arrays-0, as did the 1st
        on_disk = (ck / "manifest.json").stat().st_size + (ck / "arrays-0.npz").stat().st_size
        assert final["bytes"] == on_disk
        assert json.loads(json.dumps(snaps[-1].to_dict()))["checkpoint"] == final
        assert "[ckpt 5 |" in snaps[-1].render_line()

    def test_works_over_one_shot_generator(self):
        snaps = list(
            Pipeline.from_registry(["exact"]).snapshots(
                iter(EDGES), batch_size=100, every=2
            )
        )
        assert snaps[-1].edges == len(EDGES)

    def test_abandoning_generator_keeps_mid_stream_state(self):
        pipeline = Pipeline.from_registry(["exact"])
        gen = pipeline.snapshots(EDGES, batch_size=50, every=1)
        first = next(gen)
        gen.close()
        est = pipeline.estimator("exact")
        assert est.edges_seen == first.edges == 50


class TestSnapshotCheckpointing:
    def test_snapshots_checkpoint_resume_round_trip(self, tmp_path):
        """Abandon the snapshot stream mid-flight (a killed watcher),
        resume from its checkpoint, and finish identically to an
        uninterrupted run."""
        ck = tmp_path / "ck"
        names = ["count", "exact"]
        uninterrupted = Pipeline.from_registry(
            names, num_estimators=200, seed=5
        ).run(EDGES, batch_size=50)

        pipeline = Pipeline.from_registry(names, num_estimators=200, seed=5)
        gen = pipeline.snapshots(
            EDGES, batch_size=50, every=1, checkpoint_path=ck, checkpoint_every=2
        )
        for _ in range(4):  # stop right after the batch-4 checkpoint
            next(gen)
        gen.close()

        resumed = Pipeline.from_registry(names, num_estimators=200, seed=5)
        resumed.resume(ck)
        finals = [
            s for s in resumed.snapshots(EDGES, batch_size=50, every=2) if s.final
        ]
        assert _results(finals[-1]) == _results(uninterrupted)
        assert finals[-1].edges == uninterrupted.edges

    def test_resumed_checkpoint_cadence_uses_global_batch_index(
        self, tmp_path, monkeypatch
    ):
        """Regression: the periodic cadence used the continuation-local
        counter, so a run resumed at batch 4 with checkpoint_every=3
        snapshotted at global batches 7, 10, ... instead of 6, 9, ..."""
        ck = tmp_path / "ck"
        names = ["exact"]
        pipeline = Pipeline.from_registry(names)
        gen = pipeline.snapshots(
            EDGES, batch_size=50, every=1, checkpoint_path=ck, checkpoint_every=1
        )
        for _ in range(4):  # checkpoint lands at (unaligned) batch 4
            next(gen)
        gen.close()

        recorded = []
        original = Pipeline.checkpoint

        def spy(self, path):
            recorded.append(self._progress["batches"])
            return original(self, path)

        monkeypatch.setattr(Pipeline, "checkpoint", spy)
        resumed = Pipeline.from_registry(names).resume(ck)
        resumed.run(EDGES, batch_size=50, checkpoint_path=ck, checkpoint_every=3)
        # recorded[0] is the pre-stream snapshot at the resume position
        # (4); every periodic one must land on a global multiple of 3
        # (the buggy local cadence produced 7, 10, 13, ...), and the
        # final end-of-stream snapshot repeats the last batch index.
        total = -(-len(EDGES) // 50)
        expected = [b for b in range(5, total + 1) if b % 3 == 0] + [total]
        assert recorded[0] == 4
        assert recorded[1:] == expected, (
            f"periodic checkpoints must land on global multiples of 3, got "
            f"{recorded}"
        )

    def test_checkpoint_signal_without_path_raises(self):
        """Regression: run(checkpoint_signal=...) without checkpoint_path
        was silently ignored -- the caller believed snapshots were armed."""
        import signal as signal_module

        sig = getattr(signal_module, "SIGUSR1", signal_module.SIGTERM)
        pipeline = Pipeline.from_registry(["exact"])
        with pytest.raises(InvalidParameterError, match="checkpoint_signal"):
            pipeline.run(EDGES, checkpoint_signal=sig)
        with pytest.raises(InvalidParameterError, match="checkpoint_signal"):
            pipeline.snapshots(EDGES, checkpoint_signal=sig)


@pytest.mark.timeout(60)
class TestFollowSource:
    def test_follows_a_file_appended_mid_read(self, tmp_path):
        """The tail -f contract: edges appended after reading starts are
        still streamed, in order, across poll boundaries."""
        path = tmp_path / "grow.edges"
        write_edge_list(path, EDGES[:100])
        appended = threading.Event()

        def appender():
            time.sleep(0.05)
            with open(path, "a", encoding="utf-8") as handle:
                for u, v in EDGES[100:200]:
                    handle.write(f"{u} {v}\n")
            appended.set()

        thread = threading.Thread(target=appender)
        thread.start()
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.5)
        got = [e for batch in source.batches(64) for e in batch]
        thread.join()
        assert appended.is_set()
        assert got == EDGES[:200]

    def test_partial_trailing_line_waits_for_newline(self, tmp_path):
        path = tmp_path / "partial.edges"
        path.write_text("0 1\n2 3")  # "2 3" has no newline yet
        polls = {"n": 0}

        def stop():
            polls["n"] += 1
            if polls["n"] == 1:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write("9\n4 5\n")  # completes "2 39"
                return False
            return True

        source = FollowSource(path, poll_interval=0.01, stop=stop)
        got = [e for batch in source.batches(10) for e in batch]
        assert got == [(0, 1), (2, 39), (4, 5)]

    def test_trailing_line_without_newline_parsed_at_stop(self, tmp_path):
        path = tmp_path / "tail.edges"
        path.write_text("0 1\n2 3")
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.05)
        got = [e for batch in source.batches(10) for e in batch]
        assert got == [(0, 1), (2, 3)]

    def test_idle_flushes_short_batches(self, tmp_path):
        """A live consumer must see buffered edges when the file idles,
        not wait for a full batch."""
        path = tmp_path / "idle.edges"
        write_edge_list(path, EDGES[:10])
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.05)
        batches = list(source.batches(1_000))
        assert [len(b) for b in batches] == [10]

    def test_deduplicates_across_polls_when_asked(self, tmp_path):
        path = tmp_path / "dups.edges"
        path.write_text("0 1\n1 2\n")
        polls = {"n": 0}

        def stop():
            polls["n"] += 1
            if polls["n"] == 1:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write("1 0\n2 3\n0 1\n")
                return False
            return True

        source = FollowSource(path, poll_interval=0.01, stop=stop, deduplicate=True)
        got = [e for batch in source.batches(10) for e in batch]
        assert got == [(0, 1), (1, 2), (2, 3)]

    def test_replayable_and_fail_fast(self, tmp_path):
        path = tmp_path / "replay.edges"
        write_edge_list(path, EDGES[:20])
        source = FollowSource(path, poll_interval=0.01, idle_timeout=0.0)
        first = [e for b in source.batches(8) for e in b]
        second = [e for b in source.batches(8) for e in b]
        assert first == second == EDGES[:20]
        with pytest.raises(FileNotFoundError):
            FollowSource(tmp_path / "nope.edges", idle_timeout=0.0).batches(8)
        with pytest.raises(ValueError):
            source.batches(0)

    def test_invalid_parameters(self, tmp_path):
        path = tmp_path / "p.edges"
        path.write_text("0 1\n")
        with pytest.raises(InvalidParameterError):
            FollowSource(path, poll_interval=0.0)
        with pytest.raises(InvalidParameterError):
            FollowSource(path, idle_timeout=-1.0)


class TestLineSource:
    def test_streams_an_open_handle(self):
        text = "".join(f"{u} {v}\n" for u, v in EDGES[:50])
        source = LineSource(io.StringIO(text))
        assert [e for b in source.batches(16) for e in b] == EDGES[:50]

    def test_one_shot(self):
        source = LineSource(io.StringIO("0 1\n"))
        list(source.batches(4))
        with pytest.raises(SourceExhaustedError):
            source.batches(4)

    def test_bad_batch_size_does_not_consume(self):
        source = LineSource(io.StringIO("0 1\n"))
        with pytest.raises(ValueError):
            source.batches(0)
        assert [e for b in source.batches(4) for e in b] == [(0, 1)]

    def test_rejects_non_file_input(self):
        with pytest.raises(InvalidParameterError):
            LineSource([(0, 1)])

    def test_dedup_option(self):
        source = LineSource(io.StringIO("0 1\n1 0\n1 2\n"), deduplicate=True)
        assert [e for b in source.batches(4) for e in b] == [(0, 1), (1, 2)]

    def test_binary_handle_wrapped_to_text(self):
        """Binary handles (subprocess pipes, sockets) are wrapped in a
        UTF-8 text layer -- including through the ragged-row fallback,
        which used to crash on bytes lines."""
        source = LineSource(io.BytesIO(b"0 1\n1 2 3.5 extra\n2 3\n"))
        assert [e for b in source.batches(10) for e in b] == [
            (0, 1), (1, 2), (2, 3)
        ]

    @pytest.mark.parametrize("consume", [True, False])
    def test_binary_handle_stays_open_after_source_is_dropped(self, consume):
        """The caller owns the handle: neither reading nor dropping the
        source closes it (a text layer left attached would, once
        collected)."""
        import gc

        handle = io.BytesIO(b"0 1\n1 2\n")
        source = LineSource(handle)
        if consume:
            assert [e for b in source.batches(4) for e in b] == [(0, 1), (1, 2)]
        del source
        gc.collect()
        assert not handle.closed

    def test_live_gulping_does_not_wait_for_parser_chunk(self):
        """Regression: the chunk parser's loadtxt quota (~87k rows)
        must not delay a live stream -- one batch of lines has to
        surface as soon as it is readable, proven here by a handle
        that blocks forever after serving two batches' worth."""

        class TwoBatchesThenBlock:
            def __init__(self, lines):
                self._lines = iter(lines)

            def read(self, n=-1):
                return ""

            def readline(self):  # pragma: no cover - iterator used
                return next(self._lines, "")

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self._lines, None)
                if line is None:
                    raise AssertionError(
                        "consumer read past the available lines instead "
                        "of yielding the batches it already has"
                    )
                return line

        lines = [f"{i} {i + 1}\n" for i in range(100)]
        batches = LineSource(TwoBatchesThenBlock(lines)).batches(50)
        assert len(next(batches)) == 50
        assert len(next(batches)) == 50

    def test_as_source_coerces_file_objects(self, tmp_path):
        assert isinstance(as_source(io.StringIO("0 1\n")), LineSource)
        path = tmp_path / "f.edges"
        path.write_text("0 1\n")
        with open(path, "r", encoding="utf-8") as handle:
            source = as_source(handle)
            assert isinstance(source, LineSource)
            assert [e for b in source.batches(4) for e in b] == [(0, 1)]


@pytest.mark.timeout(60)
class TestWatchCLI:
    def test_watch_emits_monotonic_snapshots_over_growing_file(
        self, tmp_path, capsys
    ):
        path = tmp_path / "live.edges"
        write_edge_list(path, EDGES[:100])

        def appender():
            time.sleep(0.05)
            with open(path, "a", encoding="utf-8") as handle:
                for u, v in EDGES[100:180]:
                    handle.write(f"{u} {v}\n")

        thread = threading.Thread(target=appender)
        thread.start()
        code = main(
            ["watch", "--input", str(path), "--estimator", "exact",
             "--every", "1", "--batch-size", "32",
             "--poll-interval", "0.01", "--idle-timeout", "0.5"]
        )
        thread.join()
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        edges = [int(line.split("|")[1].split()[0].replace(",", "")) for line in lines]
        assert edges == sorted(edges)
        assert edges[-1] == 180
        assert "[final]" in lines[-1]

    def test_watch_jsonl_output(self, tmp_path):
        path = tmp_path / "live.edges"
        write_edge_list(path, EDGES[:64])
        out = tmp_path / "snaps.jsonl"
        code = main(
            ["watch", "--input", str(path), "--estimator", "exact",
             "--every", "1", "--batch-size", "32", "--jsonl", str(out),
             "--poll-interval", "0.01", "--idle-timeout", "0.05"]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["edges"] for r in records] == sorted(r["edges"] for r in records)
        assert records[-1]["final"] is True
        assert records[-1]["edges"] == 64

    def test_watch_reads_stdin(self, capsys, monkeypatch):
        text = "".join(f"{u} {v}\n" for u, v in EDGES[:60])
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(
            ["watch", "--input", "-", "--estimator", "exact",
             "--every", "1", "--batch-size", "25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[final]" in out and "60 edges" in out

    def test_watch_resume_continues_from_checkpoint(self, tmp_path, capsys):
        """Kill/restart workflow: watch, checkpoint, grow the file,
        re-watch with --resume; snapshots continue past the old total."""
        path = tmp_path / "live.edges"
        ck = tmp_path / "ck"
        write_edge_list(path, EDGES[:96])
        args = ["watch", "--input", str(path), "--estimator", "exact",
                "--every", "1", "--batch-size", "32",
                "--poll-interval", "0.01", "--idle-timeout", "0.05",
                "--checkpoint", str(ck)]
        assert main(args) == 0
        first = capsys.readouterr().out.strip().splitlines()
        assert "96 edges" in first[-1]

        with open(path, "a", encoding="utf-8") as handle:
            for u, v in EDGES[96:160]:
                handle.write(f"{u} {v}\n")
        assert main(args + ["--resume", str(ck)]) == 0
        resumed = capsys.readouterr().out.strip().splitlines()
        # the resumed watcher picks up at the checkpoint, not batch 0
        assert "128 edges" in resumed[0]
        assert "160 edges" in resumed[-1]

        exact = main(["exact", "--input", str(path), "--no-dedup"])
        assert exact == 0
        assert "edges: 160" in capsys.readouterr().out

    def test_watch_rejects_stdin_resume(self, tmp_path, capsys):
        code = main(
            ["watch", "--input", "-", "--resume", str(tmp_path / "ck")]
        )
        assert code == 1
        assert "replayable" in capsys.readouterr().err

    def test_watch_rejects_follow_flags_with_stdin(self, capsys):
        """--idle-timeout/--poll-interval have no effect on stdin;
        accepting them would leave a watcher hanging its user expects
        to stop on idle."""
        assert main(["watch", "--input", "-", "--idle-timeout", "5"]) == 1
        assert "following a file" in capsys.readouterr().err
        assert main(["watch", "--input", "-", "--poll-interval", "1"]) == 1
        assert "following a file" in capsys.readouterr().err


class TestIterableSourceValidation:
    def test_bad_batch_size_raises_eagerly_and_preserves_stream(self):
        """Regression: batches(0) nulled the iterator before validating,
        permanently exhausting the source without yielding an edge."""
        from repro.streaming import IterableSource

        source = IterableSource(iter(EDGES[:10]))
        with pytest.raises(ValueError, match="batch_size"):
            source.batches(0)
        # the stream is untouched: a corrected call sees every edge
        assert [e for b in source.batches(4) for e in b] == EDGES[:10]
