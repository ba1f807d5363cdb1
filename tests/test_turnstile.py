"""Turnstile (fully-dynamic) streams: signed parsing, gating, estimators.

Covers the end-to-end signed story introduced with the turnstile layer:

- the three signed edge-list layouts (``u v``, ``u v +1``, ``+ u v``),
  the columnar fast path, and the hard error on mixed signed/unsigned
  rows (naming the offending line, never falling back to a silent
  ragged parse);
- signed :class:`EdgeBatch` construction: the sign column rides the
  same validation as unsigned input (self-loops, negative ids), and
  canonicalization keeps signs aligned with their edges;
- capability gating: signed sources are rejected up front for
  insert-only estimators, and a signed batch that sneaks past the
  source-level check (e.g. a generator of ``(u, v, sign)`` triples)
  still dies at the batch guard;
- the two deletion-capable estimators (TRIÈST-FD and the
  vertex-subsampled dynamic sampler): exactness hooks against a full
  recount (hypothesis-driven over random interleavings), bit-identity
  with a per-event reference loop at any batching (re-inserts and
  deletes of absent edges included), batch-split invariance,
  checkpoint kill/resume bit-identity over a signed
  stream, and sharded execution.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import dynamic_sampler
from repro.core.dynamic_sampler import (
    DynamicGraphSampler,
    DynamicSamplerCounter,
    _keep_matrix,
)
from repro.core.parallel import ParallelTriangleCounter
from repro.core.triest_fd import TriestFdCounter
from repro.errors import InvalidParameterError
from repro.graph import write_signed_edge_list
from repro.graph.io import iter_signed_edge_array_chunks
from repro.rng import spawn_sources
from repro.streaming import (
    ESTIMATORS,
    FileSource,
    IterableSource,
    Pipeline,
    ShardedPipeline,
    load_checkpoint,
)
from repro.streaming.batch import EdgeBatch
from repro.streaming.source import LineSource, as_source
from test_golden_fingerprints import state_fingerprint

DYNAMIC_NAMES = ["triest-fd", "dynamic-sampler"]
DYNAMIC_OPTIONS = {"triest-fd": {"memory": 256}, "dynamic-sampler": {"p": 0.5}}
EXACT_OPTIONS = {"triest-fd": {"memory": 10**6}, "dynamic-sampler": {"p": 1.0}}


def make_events(n, vertices=40, delete_ratio=0.3, seed=11):
    """A well-formed turnstile stream: deletes only hit present edges."""
    import random

    rng = random.Random(seed)
    present: set[tuple[int, int]] = set()
    events: list[tuple[int, int, int]] = []
    while len(events) < n:
        if present and rng.random() < delete_ratio:
            edge = rng.choice(sorted(present))
            present.discard(edge)
            events.append((edge[0], edge[1], -1))
        else:
            u, v = rng.randrange(vertices), rng.randrange(vertices)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present:
                continue
            present.add(edge)
            events.append((edge[0], edge[1], 1))
    return events, present


def exact_triangles(edges):
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return sum(len(adj[u] & adj[v]) for u, v in edges) // 3


def all_chunks(source, **kwargs):
    return np.concatenate(
        list(iter_signed_edge_array_chunks(source, **kwargs))
        or [np.empty((0, 3), dtype=np.int64)]
    )


# ---------------------------------------------------------------------------
# signed parsing
# ---------------------------------------------------------------------------

class TestSignedParser:
    def test_column_format(self):
        got = all_chunks(io.StringIO("1 2 +1\n3 4 -1\n1 2 1\n"))
        assert got.tolist() == [[1, 2, 1], [3, 4, -1], [1, 2, 1]]

    def test_prefix_format(self):
        got = all_chunks(io.StringIO("+ 1 2\n- 3 4\n"))
        assert got.tolist() == [[1, 2, 1], [3, 4, -1]]

    def test_bare_format_is_all_inserts(self):
        got = all_chunks(io.StringIO("1 2\n3 4\n"))
        assert got.tolist() == [[1, 2, 1], [3, 4, 1]]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1 2 +1\n  # mid\n3 4 -1\n"
        assert all_chunks(io.StringIO(text)).tolist() == [[1, 2, 1], [3, 4, -1]]

    def test_canonicalizes_and_drops_self_loops(self):
        got = all_chunks(io.StringIO("5 2 +1\n3 3 -1\n1 4 -1\n"))
        assert got.tolist() == [[2, 5, 1], [1, 4, -1]]

    def test_negative_ids_rejected(self):
        with pytest.raises(InvalidParameterError, match="vertex ids"):
            all_chunks(io.StringIO("-1 2 +1\n"))

    def test_mixed_columns_raise_naming_the_line(self):
        with pytest.raises(InvalidParameterError, match="line 3: expected"):
            all_chunks(io.StringIO("1 2 +1\n3 4 -1\n5 6\n"))
        with pytest.raises(InvalidParameterError, match="mixed signed/unsigned"):
            all_chunks(io.StringIO("1 2\n3 4 -1\n"))

    def test_garbage_sign_raises_naming_the_line(self):
        with pytest.raises(InvalidParameterError, match="line 2"):
            all_chunks(io.StringIO("1 2 +1\n3 4 *1\n"))

    def test_layout_is_locked_across_chunks(self):
        """A tiny chunk size must parse identically to one gulp, and the
        layout chosen at the first data line holds for every later
        chunk (no silent re-probe)."""
        events, _ = make_events(400, seed=3)
        text = "".join(f"{u} {v} {s:+d}\n" for u, v, s in events)
        whole = all_chunks(io.StringIO(text))
        tiny = all_chunks(io.StringIO(text), chunk_chars=16)
        assert np.array_equal(whole, tiny)

    def test_missing_trailing_newline(self):
        got = all_chunks(io.StringIO("1 2 +1\n3 4 -1"))
        assert got.tolist() == [[1, 2, 1], [3, 4, -1]]

    def test_too_many_columns_rejected(self):
        with pytest.raises(InvalidParameterError, match="cannot infer"):
            all_chunks(io.StringIO("1 2 3 4\n"))

    def test_write_round_trip(self, tmp_path):
        events, _ = make_events(200, seed=5)
        path = tmp_path / "s.edges"
        assert write_signed_edge_list(path, events) == len(events)
        got = all_chunks(path)
        assert got.tolist() == [[u, v, s] for u, v, s in events]

    def test_write_rejects_bad_signs(self, tmp_path):
        with pytest.raises(InvalidParameterError, match=r"\+1 or -1"):
            write_signed_edge_list(tmp_path / "s.edges", [(1, 2, 0)])


# ---------------------------------------------------------------------------
# signed EdgeBatch (validation regression: signed path == unsigned path)
# ---------------------------------------------------------------------------

class TestSignedEdgeBatch:
    def test_three_column_array_splits_into_signs(self):
        batch = EdgeBatch.from_edges(
            np.array([[5, 2, -1], [1, 3, 1]], dtype=np.int64)
        )
        assert batch.array.tolist() == [[2, 5], [1, 3]]
        assert batch.signs.tolist() == [-1, 1]  # signs follow the swap

    def test_triples_and_explicit_signs_agree(self):
        from_triples = EdgeBatch.from_edges([(1, 2, 1), (2, 3, -1)])
        explicit = EdgeBatch.from_edges([(1, 2), (2, 3)], signs=[1, -1])
        assert from_triples == explicit

    def test_signed_path_rejects_self_loops(self):
        with pytest.raises(InvalidParameterError, match="self-loops"):
            EdgeBatch.from_edges([(3, 3, 1)])

    def test_signed_path_rejects_negative_ids(self):
        with pytest.raises(InvalidParameterError, match="vertex ids"):
            EdgeBatch.from_edges([(-1, 2, 1)])
        with pytest.raises(InvalidParameterError, match="vertex ids"):
            EdgeBatch.from_edges([(0, 2**31, -1)])

    def test_bad_sign_values_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"\+1 or -1"):
            EdgeBatch.from_edges([(1, 2, 0)])
        with pytest.raises(InvalidParameterError, match=r"\+1 or -1"):
            EdgeBatch.from_edges([(1, 2)], signs=[2])

    def test_mismatched_sign_length_rejected(self):
        with pytest.raises(InvalidParameterError, match="matching"):
            EdgeBatch.from_edges([(1, 2), (2, 3)], signs=[1])

    def test_wire_round_trip(self):
        batch = EdgeBatch.from_edges([(1, 2, 1), (2, 3, -1)])
        assert batch.wire.shape == (2, 3)
        again = EdgeBatch.from_wire(batch.wire)
        assert again == batch
        unsigned = EdgeBatch.from_edges([(1, 2), (2, 3)])
        assert unsigned.wire is unsigned.array  # zero-copy, unchanged path
        assert EdgeBatch.from_wire(unsigned.wire) == unsigned

    def test_slicing_carries_signs(self):
        batch = EdgeBatch.from_edges([(1, 2, 1), (2, 3, -1), (3, 4, 1)])
        tail = batch[1:]
        assert tail.signs.tolist() == [-1, 1]
        for piece in batch.batches(2):
            assert piece.signs is not None

    def test_context_masks_and_delta(self):
        batch = EdgeBatch.from_edges([(1, 2, 1), (2, 3, -1)])
        ctx = batch.context
        assert ctx.insert_mask.tolist() == [True, False]
        assert ctx.delete_mask.tolist() == [False, True]
        assert ctx.sign_delta.tolist() == [1, -1]
        unsigned = EdgeBatch.from_edges([(1, 2), (2, 3)]).context
        assert unsigned.insert_mask.all()
        assert not unsigned.delete_mask.any()

    def test_empty_signed_batch(self):
        batch = EdgeBatch.from_edges(np.empty((0, 3), dtype=np.int64))
        assert len(batch) == 0
        assert batch.signs.shape == (0,)


# ---------------------------------------------------------------------------
# sources and capability gating
# ---------------------------------------------------------------------------

class TestSignedSources:
    @pytest.fixture()
    def signed_file(self, tmp_path):
        events, present = make_events(600, seed=9)
        path = tmp_path / "turnstile.edges"
        write_signed_edge_list(path, events)
        return path, events, present

    def test_file_source_yields_signed_batches(self, signed_file):
        path, events, _ = signed_file
        source = FileSource(path, signed=True)
        assert source.signed
        rows = []
        for batch in source.batches(128):
            assert batch.signs is not None
            rows += [
                (u, v, s)
                for (u, v), s in zip(batch.array.tolist(), batch.signs.tolist())
            ]
        assert rows == events

    def test_file_source_rejects_dedup_with_signed(self, signed_file):
        path, _, _ = signed_file
        with pytest.raises(InvalidParameterError, match="deduplicate=True"):
            FileSource(path, deduplicate=True, signed=True)
        # default dedup resolves per mode: on for insert-only, off for signed
        assert FileSource(path).deduplicate
        assert not FileSource(path, signed=True).deduplicate

    def test_line_source_signed(self):
        handle = io.StringIO("1 2 +1\n2 3 +1\n1 2 -1\n")
        source = LineSource(handle, signed=True)
        (batch,) = list(source.batches(10))
        assert batch.signs.tolist() == [1, 1, -1]
        with pytest.raises(InvalidParameterError, match="deduplicate"):
            LineSource(io.StringIO(""), deduplicate=True, signed=True)

    def test_memory_source_detects_signs(self):
        assert as_source(np.array([[1, 2, 1]], dtype=np.int64)).signed
        assert as_source([(1, 2, -1)]).signed
        assert not as_source([(1, 2)]).signed

    def test_pipeline_rejects_signed_source_for_insert_only(self, signed_file):
        path, _, _ = signed_file
        pipe = Pipeline.from_registry(["count"], num_estimators=8, seed=0)
        with pytest.raises(InvalidParameterError, match="insert-only"):
            pipe.run(FileSource(path, signed=True), batch_size=128)

    def test_batch_guard_catches_undeclared_signed_batches(self):
        """A generator of (u, v, sign) triples has no source-level signed
        flag; the per-batch guard must still refuse to feed it to an
        insert-only estimator."""
        pipe = Pipeline.from_registry(["count"], num_estimators=8, seed=0)
        events = ((u, v, s) for u, v, s in [(1, 2, 1), (2, 3, -1)])
        with pytest.raises(InvalidParameterError, match="signed batch reached"):
            pipe.run(IterableSource(events), batch_size=16)

    def test_sharded_rejects_signed_source_for_insert_only(self, signed_file):
        path, _, _ = signed_file
        sharded = ShardedPipeline(["count"], workers=2, num_estimators=8, seed=0)
        with pytest.raises(InvalidParameterError, match="insert-only"):
            sharded.run(FileSource(path, signed=True), batch_size=128)

    def test_parallel_counter_rejects_signed_input_before_spawning(self):
        """The counter-only front-end runs the same up-front refusal:
        no worker is spawned, so no shipped worker traceback."""
        events, _ = make_events(200, seed=4)
        with pytest.raises(InvalidParameterError, match="insert-only") as excinfo:
            ParallelTriangleCounter(64, workers=2).count(events)
        notes = getattr(excinfo.value, "__notes__", [])
        assert not any("worker traceback" in note for note in notes)

    @pytest.mark.parametrize("command", ["count", "transitivity", "sample", "exact"])
    def test_cli_single_estimator_commands_refuse_signed_input(
        self, signed_file, command, capsys
    ):
        """Each subcommand runs through Pipeline.run, so a signed file
        gets the pipeline's named refusal instead of counting deletions
        as insertions."""
        path, _, _ = signed_file
        argv = [command, "--input", str(path), "--signed"]
        if command != "exact":
            argv += ["--estimators", "64"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "insert-only" in err
        assert "Traceback" not in err

    def test_mixed_pipeline_names_insert_only_offenders(self, signed_file):
        path, _, _ = signed_file
        pipe = Pipeline.from_registry(
            ["count", "triest-fd"], num_estimators=8, seed=0
        )
        with pytest.raises(InvalidParameterError, match=r"\['count'\]"):
            pipe.run(FileSource(path, signed=True), batch_size=128)


# ---------------------------------------------------------------------------
# deletion-capable estimators
# ---------------------------------------------------------------------------

@st.composite
def turnstile_streams(draw, absent_deletes=True):
    """Interleaved inserts/deletes, with re-inserts of present edges and,
    if ``absent_deletes``, deletes of absent ones.

    Those two drive the idempotent-insert, ``d_o`` and delete-of-unsampled
    branches. Returns the events and the final edge set: a re-insert
    leaves the graph unchanged and a delete of an absent edge is a no-op.
    """
    n = draw(st.integers(min_value=10, max_value=16))
    kinds = "+-ra" if absent_deletes else "+-r"
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n), st.integers(0, n), st.sampled_from(kinds)
            ).filter(lambda op: op[0] != op[1]),
            min_size=4,
            max_size=150,
        )
    )
    present: set[tuple[int, int]] = set()
    events = []
    for u, v, kind in ops:
        edge = (min(u, v), max(u, v))
        if kind == "-" and edge in present:
            present.discard(edge)
            events.append((*edge, -1))
        elif kind == "r" and edge in present:
            events.append((*edge, 1))
        elif kind == "a" and edge not in present:
            events.append((*edge, -1))
        elif edge not in present:
            present.add(edge)
            events.append((*edge, 1))
    return events, present


def _common(adj, u, v):
    return sum(1 for w in adj.get(u, ()) if w in adj.get(v, ()))


def reference_triest_fd(events, memory, seed):
    """Single-sampler TRIÈST-FD, recounting triangles at every sample change.

    The per-event oracle for the batch-native sampler: same rng, same
    draws, returned as the sampler's ``state_dict``.
    """
    rng = spawn_sources(seed, 1)[0]
    edges, slot, adj = [], {}, {}
    s = d_i = d_o = tau = 0

    def add(edge):
        nonlocal tau
        tau += _common(adj, *edge)
        slot[edge] = len(edges)
        edges.append(edge)
        adj.setdefault(edge[0], set()).add(edge[1])
        adj.setdefault(edge[1], set()).add(edge[0])

    def remove(idx):
        nonlocal tau
        edge, last = edges[idx], edges[-1]
        edges[idx] = last
        slot[last] = idx
        edges.pop()
        del slot[edge]
        adj[edge[0]].discard(edge[1])
        adj[edge[1]].discard(edge[0])
        tau -= _common(adj, *edge)

    for u, v, sign in events:
        edge = (u, v)
        if sign < 0:
            s -= 1
            if edge in slot:
                remove(slot[edge])
                d_i += 1
            else:
                d_o += 1
            continue
        s += 1
        if edge in slot:
            continue
        d = d_i + d_o
        if d == 0:
            if len(edges) < memory:
                add(edge)
            elif rng.coin(memory / s):
                remove(rng.rand_int(0, len(edges) - 1))
                add(edge)
        elif rng.coin(d_i / d):
            d_i -= 1
            add(edge)
        else:
            d_o -= 1
    return {
        "memory": memory, "t": len(events), "s": s, "d_i": d_i, "d_o": d_o,
        "tau": tau, "edges": np.array(edges, dtype=np.int64).reshape(-1, 2),
        "rng": rng.getstate(),
    }


def reference_dynamic_sampler(events, p, seed):
    """Single vertex-subsampled counter, updated event by event."""
    sampler = DynamicGraphSampler(p, rng=spawn_sources(seed, 1)[0])
    edges, adj, tau = set(), {}, 0
    for u, v, sign in events:
        if not (sampler.keeps(u) and sampler.keeps(v)):
            continue
        if sign > 0 and (u, v) not in edges:
            tau += _common(adj, u, v)
            edges.add((u, v))
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        elif sign < 0 and (u, v) in edges:
            edges.discard((u, v))
            adj[u].discard(v)
            adj[v].discard(u)
            tau -= _common(adj, u, v)
    state = sampler.state_dict()
    state.update(
        t=len(events),
        s=sum(sign for _, _, sign in events),
        tau=tau,
        edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
    )
    return state


class TestDynamicEstimators:
    @pytest.mark.parametrize("name", DYNAMIC_NAMES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_exact_hooks_match_full_recount(self, name, data):
        """With the sampling knob open (memory >= everything, p = 1) both
        estimators are exact: estimate == recount of the final graph.

        TRIÈST-FD's random pairing books a delete of an absent edge as a
        ``d_o`` hole that a later insert may fill by dropping itself, so
        its exact hook holds only without such deletes."""
        events, present = data.draw(
            turnstile_streams(absent_deletes=name == "dynamic-sampler")
        )
        est = ESTIMATORS.get(name).create(2, 0, **EXACT_OPTIONS[name])
        for i in range(0, len(events), 13):
            est.update_batch(events[i : i + 13])
        assert est.estimate() == float(exact_triangles(present))
        assert est.net_edges() == sum(sign for _, _, sign in events)

    @given(data=turnstile_streams(), split=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_batched_state_matches_per_event_reference(self, data, split):
        """Per-event decisions with per-batch triangle upkeep reproduce the
        per-event loop bit for bit, malformed events and any batching
        included, in the sampled regime."""
        events, _ = data
        references = {
            "triest-fd": reference_triest_fd(events, memory=8, seed=9),
            "dynamic-sampler": reference_dynamic_sampler(events, p=0.6, seed=9),
        }
        options = {"triest-fd": {"memory": 8}, "dynamic-sampler": {"p": 0.6}}
        for name, reference in references.items():
            est = ESTIMATORS.get(name).create(1, 9, **options[name])
            for batch in EdgeBatch.from_edges(np.array(events)).batches(split):
                est.update_batch(batch)
            (state,) = est.state_dict()["samplers"]
            assert state_fingerprint(state) == state_fingerprint(reference), name

    @pytest.mark.parametrize("name", DYNAMIC_NAMES)
    def test_batch_split_invariance(self, name):
        """Feeding one big batch or many small ones is bit-identical."""
        events, _ = make_events(800, seed=2)
        arr = np.array(events, dtype=np.int64)
        one = ESTIMATORS.get(name).create(6, 4, **DYNAMIC_OPTIONS[name])
        one.update_batch(EdgeBatch.from_edges(arr))
        many = ESTIMATORS.get(name).create(6, 4, **DYNAMIC_OPTIONS[name])
        for batch in EdgeBatch.from_edges(arr).batches(37):
            many.update_batch(batch)
        assert one.estimates() == many.estimates()
        assert state_fingerprint(one.state_dict()) == state_fingerprint(
            many.state_dict()
        )

    def test_triest_fd_rejects_malformed_plain_sequences(self):
        """Plain input takes the same validation as EdgeBatch input:
        self-loops and negative ids raise instead of entering the sample."""
        for bad in ([(1, 1), (1, 2)], [(1, 2), (-3, 4)], [(2, 2, -1)]):
            counter = TriestFdCounter(2, 100, seed=0)
            with pytest.raises(InvalidParameterError):
                counter.update_batch(bad)
            assert counter.edges_seen == 0 and counter.net_edges() == 0
        counter = TriestFdCounter(2, 100, seed=0)
        counter.update_batch([(2, 1, 1), (1, 3, 1), (3, 2, 1), (1, 3, -1)])
        assert counter.net_edges() == 2
        assert sorted(counter._samplers[0]._slot) == [(1, 2), (2, 3)]

    def test_triest_fd_stays_within_memory_budget(self):
        events, _ = make_events(2000, seed=6)
        counter = TriestFdCounter(2, memory=64, seed=0)
        counter.update_batch(EdgeBatch.from_edges(np.array(events)))
        for sampler in counter._samplers:
            assert len(sampler._edges) <= 64

    def test_dynamic_sampler_subsamples_vertices(self):
        events, present = make_events(2000, seed=6)
        counter = DynamicSamplerCounter(4, p=0.3, seed=0)
        counter.update_batch(EdgeBatch.from_edges(np.array(events)))
        sizes = [len(s._edges) for s in counter._samplers]
        assert max(sizes) < len(present)  # genuinely subsampled
        assert counter.estimate() > 0

    @pytest.mark.parametrize("p", [1e-30, 0.3, 1.0])
    def test_pooled_hash_matches_per_vertex_keeps(self, p):
        counter = DynamicSamplerCounter(5, p=p, seed=4)
        verts = np.array([0, 1, 2, 977, 2**31 - 1], dtype=np.int64)
        expected = [[s.keeps(x) for x in verts.tolist()] for s in counter._samplers]
        assert _keep_matrix(counter._samplers, verts).tolist() == expected

    def test_chunked_prefilter_matches_single_broadcast(self, monkeypatch):
        """Splitting a large pool into prefilter chunks changes nothing."""
        events, _ = make_events(1500, vertices=40, seed=3)
        whole = DynamicSamplerCounter(9, p=0.5, seed=2)
        whole.update_batch(events)
        monkeypatch.setattr(dynamic_sampler, "_BROADCAST_CELLS", 1000)
        chunked = DynamicSamplerCounter(9, p=0.5, seed=2)
        chunked.update_batch(events)
        assert state_fingerprint(whole.state_dict()) == state_fingerprint(
            chunked.state_dict()
        )

    @pytest.mark.parametrize("name", DYNAMIC_NAMES)
    def test_approximate_regime_is_in_the_ballpark(self, name):
        events, present = make_events(3000, vertices=50, seed=8)
        exact = exact_triangles(present)
        est = ESTIMATORS.get(name).create(64, 3, **DYNAMIC_OPTIONS[name])
        est.update_batch(EdgeBatch.from_edges(np.array(events)))
        assert est.estimate() == pytest.approx(exact, rel=0.35)

    @pytest.mark.parametrize("name", DYNAMIC_NAMES)
    def test_merge_rejects_mismatched_config_or_stream(self, name):
        spec = ESTIMATORS.get(name)
        a = spec.create(2, 0, **DYNAMIC_OPTIONS[name])
        b = spec.create(2, 0, **EXACT_OPTIONS[name])
        with pytest.raises(InvalidParameterError, match="merge"):
            a.merge(b)
        c = spec.create(2, 0, **DYNAMIC_OPTIONS[name])
        c.update_batch([(1, 2)])
        with pytest.raises(InvalidParameterError, match="different streams"):
            a.merge(c)


class _Killed(RuntimeError):
    pass


def _interruptible_signed(events, stop_after):
    def generate():
        for i, event in enumerate(events):
            if i == stop_after:
                raise _Killed()
            yield event
    return IterableSource(generate())


class TestSignedKillResume:
    BATCH = 64

    def _pipeline(self):
        return Pipeline.from_registry(
            DYNAMIC_NAMES, num_estimators=8, seed=17, options=DYNAMIC_OPTIONS
        )

    def test_killed_signed_run_resumes_bit_identically(self, tmp_path):
        events, _ = make_events(1200, seed=13)
        ckpt = tmp_path / "ck"
        interrupted = self._pipeline()
        with pytest.raises(_Killed):
            interrupted.run(
                _interruptible_signed(events, stop_after=7 * self.BATCH + 9),
                batch_size=self.BATCH,
                checkpoint_path=ckpt,
                checkpoint_every=3,
            )
        assert load_checkpoint(ckpt).edges_seen == 6 * self.BATCH

        resumed = self._pipeline().resume(ckpt)
        resumed_report = resumed.run(events, batch_size=self.BATCH)
        uninterrupted = self._pipeline().run(events, batch_size=self.BATCH)

        assert resumed_report.edges == uninterrupted.edges
        for name in DYNAMIC_NAMES:
            assert resumed_report[name].results == uninterrupted[name].results

    def test_resume_mid_batch_carries_signs(self, tmp_path):
        """An end-of-stream checkpoint that cuts inside a batch must
        replay the remainder *with its signs* (a resume that dropped the
        sign column would re-insert deleted edges)."""
        events, present = make_events(500, seed=19)
        cut = 13 * 31 + 7  # deliberately not batch-aligned
        path = tmp_path / "grow.edges"
        write_signed_edge_list(path, events[:cut])
        pipe = Pipeline.from_registry(
            DYNAMIC_NAMES, num_estimators=2, seed=3, options=EXACT_OPTIONS
        )
        pipe.run(
            FileSource(path, signed=True),
            batch_size=31,
            checkpoint_path=tmp_path / "ck",
        )
        with open(path, "a", encoding="utf-8") as handle:
            for u, v, sign in events[cut:]:
                handle.write(f"{u} {v} {sign:+d}\n")
        resumed = Pipeline.from_registry(
            DYNAMIC_NAMES, num_estimators=2, seed=3, options=EXACT_OPTIONS
        ).resume(tmp_path / "ck")
        report = resumed.run(FileSource(path, signed=True), batch_size=31)
        expected = float(exact_triangles(present))
        for name in DYNAMIC_NAMES:
            assert report[name].results["triangles"] == expected


class TestSignedSharded:
    def test_sharded_signed_run_matches_exact_count(self, tmp_path):
        events, present = make_events(1000, seed=23)
        path = tmp_path / "turnstile.edges"
        write_signed_edge_list(path, events)
        sharded = ShardedPipeline(
            DYNAMIC_NAMES,
            workers=2,
            num_estimators=4,
            seed=5,
            options=EXACT_OPTIONS,
        )
        report = sharded.run(FileSource(path, signed=True), batch_size=128)
        expected = float(exact_triangles(present))
        for name in DYNAMIC_NAMES:
            assert report[name].results["triangles"] == expected
            assert report[name].results["net_edges"] == len(present)

    def test_supervised_recovery_over_signed_stream(self, tmp_path):
        """A worker killed mid-signed-stream is respawned and the run
        still ends bit-identical to an unfaulted one (snapshot restore +
        replay must re-deliver the sign column, not just the edges)."""
        from repro.errors import WorkerRestartedWarning
        from repro.streaming import FaultPlan

        events, _ = make_events(900, seed=31)
        path = tmp_path / "turnstile.edges"
        write_signed_edge_list(path, events)

        def run(**kwargs):
            pipe = ShardedPipeline(
                DYNAMIC_NAMES,
                workers=2,
                num_estimators=6,
                seed=11,
                options=DYNAMIC_OPTIONS,
                **kwargs,
            )
            report = pipe.run(FileSource(path, signed=True), batch_size=64)
            return {e.name: e.results for e in report.estimators}

        baseline = run()
        with pytest.warns(WorkerRestartedWarning, match="worker 0"):
            faulted = run(
                max_restarts=2, fault_plan=FaultPlan.parse("kill:w0@b2")
            )
        assert faulted == baseline

    def test_sharded_signed_run_is_reproducible(self, tmp_path):
        events, _ = make_events(800, seed=29)
        path = tmp_path / "turnstile.edges"
        write_signed_edge_list(path, events)
        results = []
        for _ in range(2):
            sharded = ShardedPipeline(
                DYNAMIC_NAMES,
                workers=2,
                num_estimators=6,
                seed=7,
                options=DYNAMIC_OPTIONS,
            )
            report = sharded.run(FileSource(path, signed=True), batch_size=64)
            results.append([r.results for r in report.estimators])
        assert results[0] == results[1]
