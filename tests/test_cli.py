"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.generators import holme_kim
from repro.graph import write_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.edges"
    write_edge_list(path, holme_kim(300, 3, 0.6, seed=1))
    return str(path)


class TestCount:
    def test_reports_estimate(self, graph_file, capsys):
        assert main(["count", "--input", graph_file, "--estimators", "2000"]) == 0
        out = capsys.readouterr().out
        assert "estimated triangles" in out
        assert "edges/s" in out

    def test_engine_choice(self, graph_file, capsys):
        code = main(
            ["count", "--input", graph_file, "--estimators", "200",
             "--engine", "bulk"]
        )
        assert code == 0

    def test_missing_file(self, capsys):
        assert main(["count", "--input", "/nonexistent.edges"]) == 2
        assert "error" in capsys.readouterr().err


class TestTransitivity:
    def test_reports_kappa(self, graph_file, capsys):
        code = main(
            ["transitivity", "--input", graph_file, "--estimators", "3000"]
        )
        assert code == 0
        assert "transitivity" in capsys.readouterr().out


class TestSample:
    def test_prints_k_triangles(self, graph_file, capsys):
        code = main(
            ["sample", "--input", graph_file, "--estimators", "5000", "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(lines) == 2

    def test_failure_when_pool_too_small(self, tmp_path, capsys):
        # A triangle-free path: no sampler can ever release a triangle.
        path = tmp_path / "path.edges"
        write_edge_list(path, [(i, i + 1) for i in range(20)])
        code = main(["sample", "--input", str(path), "--estimators", "10"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPipeline:
    def test_default_estimators(self, graph_file, capsys):
        code = main(
            ["pipeline", "--input", graph_file, "--estimators", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count:" in out
        assert "transitivity:" in out
        assert "exact:" in out
        assert "stream pass" in out

    def test_explicit_estimator_selection(self, graph_file, capsys):
        code = main(
            ["pipeline", "--input", graph_file, "--estimators", "1000",
             "--estimator", "count", "--estimator", "sample"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count:" in out
        assert "sample:" in out
        assert "exact:" not in out

    def test_unknown_estimator_rejected(self, graph_file, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--input", graph_file, "--estimator", "nope"])

    def test_checkpoint_and_resume_round_trip(self, graph_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        code = main(
            ["pipeline", "--input", graph_file, "--estimators", "500",
             "--estimator", "count", "--estimator", "exact",
             "--batch-size", "64", "--checkpoint", ckpt,
             "--checkpoint-every", "2"]
        )
        assert code == 0
        first = capsys.readouterr().out
        code = main(
            ["pipeline", "--input", graph_file, "--estimators", "500",
             "--estimator", "count", "--estimator", "exact",
             "--batch-size", "64", "--resume", ckpt]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        # the resumed run replays nothing but reports the same results
        assert first.splitlines()[0] == resumed.splitlines()[0]  # edge totals

        def results_only(text, key):
            lines = [l for l in text.splitlines() if key in l]
            return [l.rsplit(" [", 1)[0] for l in lines]  # drop timings

        assert results_only(first, "exact:") == results_only(resumed, "exact:")
        assert results_only(first, "count:") == results_only(resumed, "count:")

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_bad_checkpoint_member_exits_1(self, graph_file, tmp_path, capsys, damage):
        ckpt = tmp_path / "ck"
        args = ["pipeline", "--input", graph_file, "--estimators", "100",
                "--estimator", "count", "--batch-size", "64"]
        assert main(args + ["--checkpoint", str(ckpt)]) == 0
        member = ckpt / json.loads((ckpt / "manifest.json").read_text())["arrays"]
        if damage == "missing":
            os.remove(member)
        else:
            member.write_bytes(b"not an npz archive")
        capsys.readouterr()
        assert main(args + ["--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "missing or corrupt" in err and str(ckpt) in err
        assert "Traceback" not in err

    def test_workers_flag_runs_sharded(self, graph_file, capsys):
        code = main(
            ["pipeline", "--input", graph_file, "--estimators", "200",
             "--estimator", "count", "--estimator", "exact",
             "--workers", "2", "--batch-size", "256"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count:" in out
        assert "exact:" in out

    def test_workers_with_checkpoint_rejected(self, graph_file, tmp_path, capsys):
        code = main(
            ["pipeline", "--input", graph_file, "--workers", "2",
             "--checkpoint", str(tmp_path / "ck")]
        )
        assert code == 1
        assert "single-process" in capsys.readouterr().err


class TestDedup:
    def test_doubled_snap_file_deduped_by_default(self, tmp_path, capsys):
        """SNAP files often list each undirected edge in both
        directions; the CLI must count the simple graph by default."""
        path = tmp_path / "doubled.edges"
        path.write_text("0 1\n1 2\n0 2\n1 0\n2 1\n2 0\n")
        assert main(["exact", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "edges: 3" in out
        assert "triangles: 1" in out

    def test_no_dedup_streams_raw(self, tmp_path, capsys):
        path = tmp_path / "doubled.edges"
        path.write_text("0 1\n1 2\n0 2\n1 0\n2 1\n2 0\n")
        assert main(["exact", "--input", str(path), "--no-dedup"]) == 0
        assert "edges: 6" in capsys.readouterr().out


class TestExactAndStats:
    def test_exact_counts(self, graph_file, capsys):
        assert main(["exact", "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out and "wedges" in out

    def test_exact_matches_library(self, graph_file, capsys):
        from repro.exact import count_triangles
        from repro.graph import read_edge_list

        main(["exact", "--input", graph_file])
        out = capsys.readouterr().out
        reported = int(
            next(l for l in out.splitlines() if l.startswith("triangles"))
            .split(":")[1].strip().replace(",", "")
        )
        assert reported == count_triangles(read_edge_list(graph_file))

    def test_stats(self, graph_file, capsys):
        assert main(["stats", "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "max degree" in out
