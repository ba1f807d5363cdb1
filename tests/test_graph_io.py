"""Tests for edge-list file I/O."""

import pytest

from repro.graph import read_edge_list, write_edge_list
from repro.graph.io import iter_edge_array_chunks, iter_edge_list


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        edges = [(0, 1), (1, 2), (0, 2)]
        path = tmp_path / "g.edges"
        assert write_edge_list(path, edges) == 3
        assert read_edge_list(path) == edges

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# SNAP-style header\n\n0 1\n# another\n1 2\n")
        assert read_edge_list(path) == [(0, 1), (1, 2)]

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 0\n0 1\n")
        assert read_edge_list(path) == [(0, 1)]

    def test_edges_canonicalized(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("5 2\n")
        assert read_edge_list(path) == [(2, 5)]

    def test_deduplicate_keeps_first_position(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("3 4\n0 1\n4 3\n1 2\n")
        assert read_edge_list(path) == [(3, 4), (0, 1), (1, 2)]
        assert read_edge_list(path, deduplicate=False) == [
            (3, 4), (0, 1), (3, 4), (1, 2),
        ]

    def test_iter_is_lazy_and_complete(self, tmp_path):
        path = tmp_path / "g.edges"
        edges = [(i, i + 1) for i in range(100)]
        write_edge_list(path, edges)
        assert list(iter_edge_list(path)) == edges

    def test_extra_columns_ignored(self, tmp_path):
        # Some datasets carry weights/timestamps in later columns.
        path = tmp_path / "g.edges"
        path.write_text("0 1 1995\n1 2 1996\n")
        assert read_edge_list(path) == [(0, 1), (1, 2)]

    def test_ragged_columns_take_first_two_fields(self, tmp_path):
        """Rows with *varying* column counts defeat the bulk tokenizer;
        the careful fallback must parse them identically (first two
        fields) and resume exactly after the rows the fast path already
        emitted."""
        path = tmp_path / "g.edges"
        lines = [f"{i} {i + 1}" for i in range(200)]
        lines[150] = "150 151 3.5 extra"  # ragged mid-file
        lines.append("200 201 1996")
        path.write_text("\n".join(lines) + "\n")
        expected = [(i, i + 1) for i in range(201)]
        assert read_edge_list(path) == expected
        # chunked parse crosses the ragged row across chunk boundaries
        chunked = [
            tuple(row)
            for arr in iter_edge_array_chunks(path, chunk_chars=256)
            for row in arr.tolist()
        ]
        assert chunked == expected

    def test_ragged_fallback_skips_comments_consistently(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n0 1\n\n1 2\n2 3 weight extra\n# tail\n3 4\n")
        assert read_edge_list(path) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0\n1\n")
        with pytest.raises(Exception):
            read_edge_list(path)

    def test_tiny_chunks_cover_whole_file(self, tmp_path):
        path = tmp_path / "g.edges"
        edges = [(i, i + 1) for i in range(57)]
        write_edge_list(path, edges)
        for chunk_chars in (1, 16, 64):
            parsed = [
                tuple(row)
                for arr in iter_edge_array_chunks(path, chunk_chars=chunk_chars)
                for row in arr.tolist()
            ]
            assert parsed == edges


class TestHandleInput:
    """iter_edge_array_chunks over open handles (the LineSource /
    FollowSource substrate)."""

    def test_handle_matches_path_parse(self, tmp_path):
        import io

        edges = [(i, i + 1) for i in range(97)]
        path = tmp_path / "g.edges"
        write_edge_list(path, edges)
        text = path.read_text()
        from_path = [
            tuple(row) for arr in iter_edge_array_chunks(path)
            for row in arr.tolist()
        ]
        from_handle = [
            tuple(row) for arr in iter_edge_array_chunks(io.StringIO(text))
            for row in arr.tolist()
        ]
        assert from_handle == from_path == edges

    def test_handle_starts_at_current_position(self):
        import io

        handle = io.StringIO("0 1\n2 3\n4 5\n")
        handle.readline()  # the caller already consumed "0 1"
        parsed = [
            tuple(row) for arr in iter_edge_array_chunks(handle)
            for row in arr.tolist()
        ]
        assert parsed == [(2, 3), (4, 5)]

    def test_seekable_handle_ragged_fallback(self):
        import io

        lines = [f"{i} {i + 1}" for i in range(100)]
        lines[60] = "60 61 3.5 extra"  # ragged: defeats the bulk tokenizer
        handle = io.StringIO("\n".join(lines) + "\n")
        parsed = [
            tuple(row) for arr in iter_edge_array_chunks(handle, chunk_chars=256)
            for row in arr.tolist()
        ]
        assert parsed == [(i, i + 1) for i in range(100)]

    def test_non_seekable_handle_ragged_raises(self):
        import io

        class Pipe(io.StringIO):
            def seekable(self):
                return False

        lines = [f"{i} {i + 1}" for i in range(100)]
        lines[60] = "60 61 3.5 extra"
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="seekable"):
            list(iter_edge_array_chunks(Pipe("\n".join(lines) + "\n"),
                                        chunk_chars=256))

    def test_dedup_chunk_threads_state(self):
        import numpy as np

        from repro.graph.io import dedup_chunk

        seen = np.empty(0, dtype=np.int64)
        a = np.array([[0, 1], [1, 2], [0, 1]], dtype=np.int64)
        fresh, seen = dedup_chunk(a, seen)
        assert fresh.tolist() == [[0, 1], [1, 2]]
        b = np.array([[1, 2], [2, 3]], dtype=np.int64)
        fresh, seen = dedup_chunk(b, seen)
        assert fresh.tolist() == [[2, 3]]
        assert seen.size == 3


class TestMalformedLines:
    """A line without two integer fields raises a named error, with its
    physical line number when the input is a path."""

    BAD_LINES = ["foo bar", "7"]

    @pytest.mark.parametrize("bad", BAD_LINES)
    def test_file_source_names_the_line(self, tmp_path, bad):
        from repro.errors import InvalidParameterError
        from repro.streaming import FileSource

        path = tmp_path / "g.edges"
        path.write_text(f"0 1 extra\n# note\n{bad}\n1 2\n")
        with pytest.raises(InvalidParameterError, match=f"line 3: cannot parse '{bad}'"):
            list(FileSource(path, deduplicate=False).batches(16))

    @pytest.mark.parametrize("bad", BAD_LINES)
    def test_handle_input_quotes_the_text(self, bad):
        import io

        from repro.errors import InvalidParameterError

        handle = io.StringIO(f"0 1\n1 2 3\n{bad}\n")
        with pytest.raises(InvalidParameterError, match=f"cannot parse '{bad}'"):
            list(iter_edge_array_chunks(handle))

    @pytest.mark.parametrize("bad", BAD_LINES)
    def test_cli_exits_one_without_traceback(self, tmp_path, bad, capsys):
        from repro.cli import main

        path = tmp_path / "g.edges"
        path.write_text(f"0 1\n1 2\n{bad}\n0 2\n")
        assert main(["count", "--input", str(path), "--estimators", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3")
        assert "Traceback" not in err
