"""Tests for the streaming pipeline: sources, registries, fan-out."""

import itertools

import pytest

from repro.core.transitivity import TransitivityEstimator, WedgeCounter
from repro.core.vectorized import VectorizedTriangleCounter
from repro.errors import InvalidParameterError, SourceExhaustedError, VertexIdError
from repro.experiments.harness import stream_through
from repro.generators import holme_kim
from repro.graph import EdgeStream, write_edge_list
from repro.streaming import (
    ENGINES,
    ESTIMATORS,
    EdgeSource,
    FileSource,
    IterableSource,
    MemorySource,
    Pipeline,
    Registry,
    StreamingEstimator,
    as_source,
    batched_iter,
    build_estimators,
    derive_seed,
    load_checkpoint,
)
from repro.streaming.batch import EdgeBatch
from repro.streaming.registry import EstimatorSpec

EDGES = holme_kim(250, 3, 0.5, seed=4)


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.edges"
    write_edge_list(path, EDGES)
    return str(path)


class TestSources:
    def test_file_source_batches_lazily_and_completely(self, graph_file):
        source = FileSource(graph_file)
        batches = list(source.batches(64))
        assert [e for b in batches for e in b] == EDGES
        assert all(len(b) == 64 for b in batches[:-1])
        assert 0 < len(batches[-1]) <= 64

    def test_file_source_is_replayable(self, graph_file):
        source = FileSource(graph_file)
        assert list(source.batches(100)) == list(source.batches(100))

    def test_file_source_missing_path_fails_at_batches_call(self, tmp_path):
        """The error must fire when batches() is called, not at the
        first next() deep inside a pipeline run."""
        source = FileSource(tmp_path / "nope.edges")  # constructing is fine
        with pytest.raises(FileNotFoundError):
            source.batches(64)

    def test_file_source_unreadable_path_fails_at_batches_call(self, tmp_path):
        import os

        path = tmp_path / "locked.edges"
        write_edge_list(path, [(0, 1)])
        os.chmod(path, 0o000)
        try:
            if os.access(path, os.R_OK):  # running as root: chmod is moot
                pytest.skip("cannot make a file unreadable for this user")
            with pytest.raises(PermissionError):
                FileSource(path).batches(64)
        finally:
            os.chmod(path, 0o644)

    def test_file_source_streaming_dedup_is_the_default(self, tmp_path):
        path = tmp_path / "dups.edges"
        write_edge_list(path, [(0, 1), (1, 2), (1, 0), (0, 1), (2, 3)])
        assert list(FileSource(path)) == [(0, 1), (1, 2), (2, 3)]
        assert list(FileSource(path, deduplicate=False)) == [
            (0, 1), (1, 2), (0, 1), (0, 1), (2, 3)
        ]

    def test_memory_source_wraps_sequences_and_streams(self):
        assert list(MemorySource(EDGES).batches(97))[0] == EDGES[:97]
        stream = EdgeStream(EDGES, validate=False)
        assert [e for b in MemorySource(stream).batches(97) for e in b] == EDGES

    def test_iterable_source_is_single_shot(self):
        source = IterableSource(iter(EDGES))
        assert [e for b in source.batches(50) for e in b] == EDGES
        with pytest.raises(SourceExhaustedError):
            source.batches(50)

    def test_iterable_source_bounded_memory_on_endless_stream(self):
        """An infinite generator can be consumed batch by batch: memory
        is bounded by one batch, proving nothing is materialized."""
        endless = ((i, i + 1) for i in itertools.count())
        batches = IterableSource(endless).batches(1_000)
        assert len(next(batches)) == 1_000
        assert next(batches)[0] == (1_000, 1_001)

    def test_as_source_coercions(self, graph_file):
        assert isinstance(as_source(graph_file), FileSource)
        assert isinstance(as_source(EDGES), MemorySource)
        assert isinstance(as_source(EdgeStream(EDGES, validate=False)), MemorySource)
        assert isinstance(as_source(iter(EDGES)), IterableSource)
        source = FileSource(graph_file)
        assert as_source(source) is source
        with pytest.raises(TypeError):
            as_source(42)

    def test_batched_iter_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batched_iter(iter(EDGES), 0))


class TestRegistry:
    def test_engines_registered(self):
        for name in ("reference", "bulk", "vectorized"):
            assert name in ENGINES

    def test_estimators_registered(self):
        for name in ("count", "transitivity", "sample", "exact",
                     "cliques4", "sliding-window"):
            assert name in ESTIMATORS

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(InvalidParameterError, match="vectorized"):
            ENGINES.get("nope")

    def test_conflicting_registration_rejected(self):
        registry = Registry("thing")

        class First:
            pass

        class Second:
            pass

        registry.register("a", First)
        with pytest.raises(InvalidParameterError):
            registry.register("a", Second)

    def test_reregistering_same_definition_is_idempotent(self):
        """Module re-execution (importlib.reload, notebook autoreload)
        re-runs the decorators; the same definition must not raise."""
        registry = Registry("thing")

        class Engine:
            pass

        registry.register("a", Engine)
        registry.register("a", Engine)
        assert registry.get("a") is Engine

    def test_decorator_registration(self):
        registry = Registry("engine")

        @registry.register("mine")
        class MyEngine:
            pass

        assert registry.get("mine") is MyEngine

    def test_specs_build_streaming_estimators(self):
        for name, spec in ESTIMATORS.items():
            assert isinstance(spec, EstimatorSpec)
            estimator = spec.create(num_estimators=4, seed=0)
            assert isinstance(estimator, StreamingEstimator), name
            estimator.update_batch(EDGES[:16])

    def test_retired_option_is_a_named_error(self):
        """``wedge_estimators`` sized transitivity's second pool, which is
        gone; passing it must not escape as the factory's TypeError."""
        with pytest.raises(InvalidParameterError, match="wedge_estimators.*none"):
            Pipeline.from_registry(
                ["transitivity"], options={"transitivity": {"wedge_estimators": 5}}
            )

    def test_unknown_option_lists_valid_ones(self):
        with pytest.raises(InvalidParameterError, match=r"\['engin'\].*\['engine'\]"):
            ESTIMATORS.get("count").create(4, 0, engin="bulk")
        assert ESTIMATORS.get("count").create(4, 0, engine="bulk") is not None


class TestDeriveSeed:
    def test_deterministic_and_name_keyed(self):
        assert derive_seed(7, "count") == derive_seed(7, "count")
        assert derive_seed(7, "count") != derive_seed(7, "sample")
        assert derive_seed(8, "count") != derive_seed(7, "count")

    def test_none_passes_through(self):
        assert derive_seed(None, "count") is None


class _ListSource(EdgeSource):
    """A third-party source that yields plain edge lists."""

    def __init__(self, edges):
        self.edges = list(edges)

    def batches(self, batch_size):
        return batched_iter(self.edges, batch_size)


class _RepeatSource(EdgeSource):
    """A source that yields one batch object ``times`` times."""

    def __init__(self, batch, times):
        self.batch, self.times = batch, times

    def batches(self, batch_size):
        return iter([self.batch] * self.times)


class TestBatchContract:
    """Past the source boundary every batch is an EdgeBatch, so every
    entry point applies EdgeBatch.from_edges's contract."""

    def test_per_edge_pipeline_rejects_out_of_range_ids(self):
        pipe = Pipeline.from_registry(
            ["cliques4", "sliding-window"], num_estimators=8, seed=0
        )
        with pytest.raises(VertexIdError):
            pipe.run([(0, 1), (1, 2), (3, 1 << 40)], batch_size=2)

    def test_bad_in_memory_tail_fails_before_any_update(self):
        pipe = Pipeline.from_registry(["count", "cliques4"], num_estimators=8, seed=0)
        with pytest.raises(InvalidParameterError, match="self-loop"):
            pipe.run([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)], batch_size=2)
        assert pipe.estimator("count").edges_seen == 0

    def test_ragged_rows_raise_a_named_shape_error(self):
        pipe = Pipeline.from_registry(["count"], num_estimators=8, seed=0)
        with pytest.raises(InvalidParameterError, match=r"\(w, 2\) array"):
            pipe.run([(0, 1), (1, 2, 3, 4), (2,)], batch_size=2)

    def test_third_party_list_source_still_streams(self):
        names = ["count", "exact"]
        expected = Pipeline.from_registry(names, num_estimators=64, seed=1).run(
            EDGES, batch_size=50
        )
        got = Pipeline.from_registry(names, num_estimators=64, seed=1).run(
            _ListSource(EDGES), batch_size=50
        )
        for name in names:
            assert got[name].results == expected[name].results
        with pytest.raises(VertexIdError):
            Pipeline.from_registry(["exact"]).run(
                _ListSource([(0, 1), (2, 1 << 40)]), batch_size=1
            )


class TestPipeline:
    NAMES = ["count", "transitivity", "wedges", "exact"]

    def test_fanout_matches_independent_passes(self):
        """Co-run equals standalone per pool: ``count`` is bit-identical
        to running alone, ``transitivity`` and ``wedges`` read the pool
        ``count`` builds alone, and ``exact`` runs as it would alone."""
        fanout = Pipeline.from_registry(self.NAMES, num_estimators=512, seed=9)
        report = fanout.run(EDGES, batch_size=128)

        alone = {
            name: ESTIMATORS.get(name).create(512, derive_seed(9, name))
            for name in ("count", "exact")
        }
        pool = alone["count"].engine
        alone["transitivity"] = TransitivityEstimator(512, pool=pool)
        alone["wedges"] = WedgeCounter(512, pool=pool)
        stream_through(alone["count"], EDGES, 128)
        stream_through(alone["exact"], EDGES, 128)
        for name in self.NAMES:
            spec = ESTIMATORS.get(name)
            assert spec.report(alone[name]) == report[name].results, name

    def test_file_and_memory_sources_agree_bit_for_bit(self, graph_file):
        def seeded():
            return Pipeline.from_registry(self.NAMES, num_estimators=512, seed=3)

        from_file = seeded().run(FileSource(graph_file), batch_size=100)
        from_memory = seeded().run(EDGES, batch_size=100)
        from_generator = seeded().run(iter(EDGES), batch_size=100)
        for name in self.NAMES:
            assert from_file[name].results == from_memory[name].results
            assert from_file[name].results == from_generator[name].results

    def test_count_streams_an_unbounded_source(self):
        """The CLI's count path (lazy batches -> update_batch) never
        materializes the stream: an endless generator can be consumed
        batch by batch with memory bounded by batch + estimator state."""
        endless = ((i, i + 1) for i in itertools.count())
        counter = ESTIMATORS.get("count").create(64, 0)
        batches = as_source(endless).batches(4_096)
        for _ in range(3):
            counter.update_batch(next(batches))
        assert counter.edges_seen == 3 * 4_096

    def test_report_structure(self):
        report = Pipeline.from_registry(["count", "exact"], num_estimators=64,
                                        seed=0).run(EDGES, batch_size=100)
        assert report.edges == len(EDGES)
        assert report.batches == -(-len(EDGES) // 100)
        assert {r.name for r in report.estimators} == {"count", "exact"}
        assert all(r.seconds >= 0 for r in report.estimators)
        assert "edges" in report.render()
        payload = report.to_dict()
        assert payload["estimators"][0]["results"]
        with pytest.raises(KeyError):
            report["missing"]

    def test_prebuilt_estimators_and_default_reporter(self):
        from repro.baselines.exact_stream import ExactStreamingCounter

        pipeline = Pipeline([("truth", ExactStreamingCounter())])
        report = pipeline.run(EDGES, batch_size=64)
        assert report["truth"].results["estimate"] == pytest.approx(
            float(_exact_count())
        )

    def test_duplicate_or_empty_estimators_rejected(self):
        from repro.baselines.exact_stream import ExactStreamingCounter

        with pytest.raises(InvalidParameterError):
            Pipeline([])
        with pytest.raises(InvalidParameterError):
            Pipeline([("a", ExactStreamingCounter()),
                      ("a", ExactStreamingCounter())])


class TestSharedPools:
    """One neighborhood-sampling pool per pool size, whoever asks."""

    NAMES = ["count", "transitivity", "wedges"]

    def _same(self, a, b):
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], dict) or not hasattr(a[key], "shape"):
                assert a[key] == b[key], key
            else:
                assert (a[key] == b[key]).all(), key

    def test_pool_builds_once_for_its_members(self):
        pipe = Pipeline.from_registry(
            ["count", "transitivity", "wedges", "sample", "exact"],
            num_estimators=64,
            seed=2,
        )
        engine = pipe.estimator("count").engine
        for name in ("transitivity", "wedges", "sample"):
            assert pipe.estimator(name).engine is engine, name
        pipe.run(EDGES, batch_size=100)
        assert engine.edges_seen == len(EDGES)

    def test_requested_order_does_not_matter(self):
        runs = [
            Pipeline.from_registry(names, num_estimators=128, seed=4).run(
                EDGES, batch_size=64
            )
            for names in (["count", "transitivity"], ["transitivity", "count"])
        ]
        for name in ("count", "transitivity"):
            assert runs[0][name].results == runs[1][name].results, name

    def test_unequal_pool_sizes_build_separate_pools(self):
        def plan(name, r):
            return {
                "name": name,
                "num_estimators": r,
                "seed": derive_seed(5, name),
                "options": {},
            }

        pairs = dict(build_estimators([plan("count", 64), plan("transitivity", 32)]))
        assert pairs["transitivity"].engine is not pairs["count"].engine
        Pipeline(list(pairs.items())).run(EDGES, batch_size=100)
        alone = TransitivityEstimator(32, seed=derive_seed(5, "transitivity"))
        stream_through(alone, EDGES, 100)
        self._same(alone.state_dict(), pairs["transitivity"].state_dict())

    def test_count_on_another_engine_leaves_the_pool_to_the_next_rank(self):
        pipe = Pipeline.from_registry(
            ["count", "transitivity", "wedges"],
            num_estimators=32,
            seed=6,
            options={"count": {"engine": "bulk"}},
        )
        assert not isinstance(pipe.estimator("count").engine, VectorizedTriangleCounter)
        assert pipe.estimator("wedges").engine is pipe.estimator("transitivity").engine
        report = pipe.run(EDGES, batch_size=100)
        alone = TransitivityEstimator(32, seed=derive_seed(6, "transitivity"))
        stream_through(alone, EDGES, 100)
        assert report["transitivity"].results == ESTIMATORS.get("transitivity").report(alone)

    def test_rebuilt_pipeline_stays_shared_and_bit_identical(self):
        """``Pipeline(pipe._pairs)`` with every update wrapped (a
        tracer's rebuild) advances the pool once per batch."""
        expected = Pipeline.from_registry(self.NAMES, num_estimators=256, seed=8).run(
            EDGES, batch_size=64
        )
        pipe = Pipeline.from_registry(self.NAMES, num_estimators=256, seed=8)
        calls = []
        for name in self.NAMES:
            est = pipe.estimator(name)
            inner = est.update_batch

            def wrapped(batch, _inner=inner, _name=name):
                calls.append(_name)
                return _inner(batch)

            est.update_batch = wrapped
        got = Pipeline(pipe._pairs).run(EDGES, batch_size=64)
        batches = -(-len(EDGES) // 64)
        assert len(calls) == 3 * batches
        for name in self.NAMES:
            assert got[name].results == expected[name].results, name
        alone = VectorizedTriangleCounter(256, seed=derive_seed(8, "count"))
        stream_through(alone, EDGES, 64)
        self._same(alone.state_dict(), pipe.estimator("count").state_dict())

    def test_repeated_batch_object_advances_the_pool_each_time(self):
        batch = EdgeBatch.from_edges(EDGES)
        pipe = Pipeline.from_registry(["count", "transitivity"], num_estimators=64, seed=7)
        pipe.run(_RepeatSource(batch, 3), batch_size=len(EDGES))
        alone = VectorizedTriangleCounter(64, seed=derive_seed(7, "count"))
        for _ in range(3):
            alone.update_batch(batch)
        assert pipe.estimator("transitivity").edges_seen == 3 * len(EDGES)
        self._same(alone.state_dict(), pipe.estimator("count").state_dict())

    def test_report_names_the_member_that_paid(self):
        pipe = Pipeline.from_registry(
            ["count", "exact", "transitivity"], num_estimators=32, seed=1
        )
        snapshot = list(pipe.snapshots(EDGES, batch_size=100))[-1]
        payload = snapshot.to_dict()["estimators"]
        assert "pool" not in payload[0] and "pool" not in payload[1]
        assert payload[2]["pool"] == "count"
        assert "[pool: count]" in snapshot.render_line()
        lines = pipe.run(EDGES, batch_size=100).render().splitlines()
        assert lines[-1].startswith("  transitivity:")
        assert lines[-1].endswith("[pool: count]")
        assert "[pool" not in lines[-2] and "[pool" not in lines[-3]

    def test_kill_and_resume_stays_bit_identical(self, tmp_path):
        def fresh():
            return Pipeline.from_registry(self.NAMES, num_estimators=128, seed=3)

        ckpt = tmp_path / "ck"
        killed = fresh().snapshots(
            EDGES, batch_size=64, checkpoint_path=ckpt, checkpoint_every=4
        )
        for _ in range(6):
            next(killed)
        killed.close()
        assert load_checkpoint(ckpt).edges_seen == 4 * 64
        resumed = fresh().resume(ckpt).run(EDGES, batch_size=64)
        uninterrupted = fresh().run(EDGES, batch_size=64)
        for name in self.NAMES:
            assert resumed[name].results == uninterrupted[name].results, name

    def test_checkpoint_of_separate_pools_is_a_named_error(self, tmp_path):
        """A co-run checkpoint written when each name held its own pool
        cannot resume into one pool: no state would be the right one."""
        separate = Pipeline(
            [
                ("count", ESTIMATORS.get("count").create(64, 1)),
                ("transitivity", ESTIMATORS.get("transitivity").create(64, 2)),
            ]
        )
        separate.run(EDGES, batch_size=100, checkpoint_path=tmp_path / "ck")
        shared = Pipeline.from_registry(
            ["count", "transitivity"], num_estimators=64, seed=0
        )
        with pytest.raises(InvalidParameterError, match="separate pools"):
            shared.resume(tmp_path / "ck")

    def test_checkpoint_holds_one_state_per_name(self, tmp_path):
        pipe = Pipeline.from_registry(self.NAMES, num_estimators=64, seed=0)
        pipe.run(EDGES, batch_size=100, checkpoint_path=tmp_path / "ck")
        states = load_checkpoint(tmp_path / "ck").states
        assert sorted(states) == sorted(self.NAMES)
        for name in self.NAMES:
            self._same(pipe.estimator("count").state_dict(), states[name])


def _exact_count() -> int:
    from repro.exact import count_triangles

    return count_triangles(EDGES)
