"""CI smoke gate: fail when streaming throughput regresses badly.

Nine gates. The first two compare against the repo's committed
``BENCH_throughput.json``, failing below 50% of the committed value --
generous enough for CI hardware variance, tight enough to catch a
hot-path regression:

1. the Figure 4 benchmark on the smallest committed configuration
   (the smallest dataset at the smallest ``r``): the vectorized
   engine's raw throughput;
2. the same dataset at the *largest* committed ``r``: the paper-scale
   pool regime that the output-sensitive watch-index path serves. The
   small-r gate alone would not notice this optimization regressing
   (small pools take the dense scans anyway), so large-r throughput is
   pinned explicitly.

The third is self-relative: ``Pipeline.run`` with the ``count``
estimator against a direct loop feeding the same ``TriangleCounter``
``EdgeBatch.from_edges(stream).batches(8192)`` through ``update_batch``,
over a ~480k-edge Holme-Kim stream at r=1,024, min of 5 interleaved
runs each. Both end in the same estimate; the gate fails when direct
time over pipeline time drops below 0.75, i.e. when the shared stream
loop behind ``run`` and ``snapshots`` costs more than a third on top of the
bare update loop.

The fourth is self-relative (hardware-independent): with the
shared-memory transport, 4 workers must process the stream at least
2x as fast as 1 worker. A broken zero-copy path (every batch quietly
falling back to per-worker pickles) flattens that curve long before it
breaks any absolute number. Skipped below 4 cores, where the premise
-- cores to scale onto -- does not hold.

The fifth gates the turnstile hot path: each deletion-capable
estimator (``triest-fd``, ``dynamic-sampler``) re-measured at one
deletion ratio against the ``dynamic`` section of the committed
artifact, same 50% floor. Skipped when the artifact predates the
turnstile benchmark.

The sixth is self-relative again: the durable ingest journal at its
default ``fsync=batch`` policy must keep at least 85% of the
journal-off throughput on the same freshly measured stream. Absolute
journal numbers swing with the box's disk, but the *relative* tax of
append-before-deliver is a property of the code -- a serialization or
sync regression shows up here no matter the hardware. Skipped when
the artifact predates the journal benchmark.

The seventh is self-relative too: at the shape every ``--workers``
shard runs (r=8,192 estimators, batches of 8,192, a ~500k-edge stream
over 250k vertices), the output-sensitive count engine must be no
slower than its ``sparse=False`` dense reference, min of 3 interleaved
runs each. The two paths are bit-identical, so the ratio isolates the
sparse/dense dispatch: if the watch-index path stops paying for itself
at the shape users shard to, this gate says so on any runner.

The eighth is self-relative as well: on a Holme-Kim power-law stream
(the ``pipeline-file`` benchmark graph's shape, ~320k edges, where the
degree orientation matters), the columnar exact counter must beat the
dict-of-sets reference it replaced (``tests/exact_reference.py``) by
1.5x at batch 65,536 and at least match it at batch 1,024, min of 3
interleaved runs each, per-batch context builds included. The small
batch leg guards the amortized run/base merge: an index rebuilt at
``Theta(m)`` per batch loses there long before it shows at 65,536.

The ninth is self-relative too: the text parser every file-fed run
starts with. A ~240k-row Holme-Kim edge list, written once as ``u v``
and once as ``u v +-1``, streams through ``FileSource(...).batches(65_536)``
(dedup off; signed for the second file) at least 3x faster than the
per-line tuple parser ``iter_edge_list`` reads the same rows, min of 3
interleaved runs each, timed in process CPU time so a busy shared
runner does not count against either leg. Both layouts read 4-6x on a
2-core box; a layout that drops off the ``loadtxt`` fast path onto the
per-line pass reads about 1x, and the old signed parser read 0.6x.

    PYTHONPATH=src python benchmarks/check_throughput_regression.py
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.experiments.runners import run_figure4
from repro.streaming.shm import shm_available

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
FLOOR_FRACTION = 0.5
SHARD_SPEEDUP_FLOOR = 2.0
JOURNAL_OVERHEAD_CEILING = 0.15
#: The worker-shape gate: sparse time must not exceed dense time.
WORKER_SHAPE_RATIO_FLOOR = 1.0
#: The Pipeline.run gate: direct-loop time over ``Pipeline.run`` time.
PIPELINE_RUN_RATIO_FLOOR = 0.75
#: The exact-baseline gate: reference time over columnar time, per batch size.
EXACT_SPEEDUP_FLOORS = {65_536: 1.5, 1_024: 1.0}
#: The parse gate: per-line reference time over FileSource time, per layout.
PARSE_SPEEDUP_FLOOR = 3.0


def _gate(label: str, measured: float, baseline: float) -> bool:
    floor = FLOOR_FRACTION * baseline
    print(
        f"[throughput-gate] {label}: measured {measured:.3f} Medges/s, "
        f"committed {baseline:.3f}, floor {floor:.3f}"
    )
    if measured < floor:
        print(
            f"[throughput-gate] FAIL ({label}): throughput regressed more "
            f"than {100 * (1 - FLOOR_FRACTION):.0f}% against the committed "
            "BENCH_throughput.json",
            file=sys.stderr,
        )
        return False
    return True


def _pipeline_run_gate() -> bool:
    import numpy as np

    from repro.core.triangle_count import TriangleCounter
    from repro.generators import holme_kim
    from repro.streaming import Pipeline, derive_seed
    from repro.streaming.batch import EdgeBatch

    r, w = 1_024, 8_192
    stream = np.array(holme_kim(120_000, 4, 0.3, seed=3), dtype=np.int64)

    def direct() -> tuple[float, float]:
        counter = TriangleCounter(r, seed=derive_seed(0, "count"))
        t0 = time.perf_counter()
        for batch in EdgeBatch.from_edges(stream).batches(w):
            counter.update_batch(batch)
        return time.perf_counter() - t0, counter.estimate()

    def pipeline() -> tuple[float, float]:
        pipe = Pipeline.from_registry(["count"], num_estimators=r, seed=0)
        t0 = time.perf_counter()
        pipe.run(stream, batch_size=w)
        return time.perf_counter() - t0, pipe.estimator("count").estimate()

    best = {"direct": float("inf"), "pipeline": float("inf")}
    estimates = set()
    for _ in range(5):
        for name, run in (("direct", direct), ("pipeline", pipeline)):
            seconds, estimate = run()
            best[name] = min(best[name], seconds)
            estimates.add(estimate)
    ratio = best["direct"] / max(best["pipeline"], 1e-9)
    print(
        f"[throughput-gate] Pipeline.run r={r} w={w} "
        f"({stream.shape[0]} edges): direct {best['direct']:.3f}s, "
        f"Pipeline.run {best['pipeline']:.3f}s (direct/pipeline "
        f"{ratio:.3f}, floor {PIPELINE_RUN_RATIO_FLOOR:.2f})"
    )
    if len(estimates) != 1:
        print(
            "[throughput-gate] FAIL (Pipeline.run): Pipeline.run and the "
            f"direct loop disagree: estimates {sorted(estimates)}",
            file=sys.stderr,
        )
        return False
    if ratio < PIPELINE_RUN_RATIO_FLOOR:
        print(
            "[throughput-gate] FAIL (Pipeline.run): Pipeline.run costs "
            "more than the floor allows over a direct update_batch loop",
            file=sys.stderr,
        )
        return False
    return True


def _shard_scaling_gate() -> bool:
    cpus = os.cpu_count() or 1
    if cpus < 4:
        print(f"[throughput-gate] shard scaling: skipped ({cpus} cores < 4)")
        return True
    if not shm_available():
        print("[throughput-gate] shard scaling: skipped (no shared memory)")
        return True
    from bench_shard_scaling import measure_scaling

    out = measure_scaling(worker_counts=(1, 4), transports=("shm",), trials=2)
    curve = out["throughput"]["shm"]
    one, four = curve["workers=1"], curve["workers=4"]
    speedup = four / max(one, 1e-9)
    print(
        f"[throughput-gate] shard scaling (shm): workers=1 {one:.3f} -> "
        f"workers=4 {four:.3f} Medges/s ({speedup:.2f}x, floor "
        f"{SHARD_SPEEDUP_FLOOR:.1f}x)"
    )
    if speedup < SHARD_SPEEDUP_FLOOR:
        print(
            "[throughput-gate] FAIL (shard scaling): 4 shm workers no "
            f"longer reach {SHARD_SPEEDUP_FLOOR:.1f}x one worker -- the "
            "zero-copy transport has likely degraded to per-worker pickling",
            file=sys.stderr,
        )
        return False
    return True


def _dynamic_gate(committed: dict) -> bool:
    dynamic = committed.get("dynamic")
    if dynamic is None:
        print("[throughput-gate] no committed dynamic baseline; skipping")
        return True
    from bench_dynamic import measure_dynamic

    # One mid-sweep ratio is enough for a smoke gate; re-measuring the
    # full sweep belongs to the benchmark job, not the regression check.
    ratio_key = "delete_ratio=0.2"
    baseline_leg = dynamic["sweep"].get(ratio_key)
    if baseline_leg is None:
        ratio_key, baseline_leg = next(iter(dynamic["sweep"].items()))
    ratio = float(ratio_key.split("=", 1)[1])
    out = measure_dynamic(trials=2, ratios=(ratio,))
    measured_leg = out["sweep"][ratio_key]["estimators"]
    ok = True
    for name, row in baseline_leg["estimators"].items():
        ok = _gate(
            f"turnstile {name} @ {ratio_key}",
            measured_leg[name]["medges_per_s"],
            row["medges_per_s"],
        ) and ok
    return ok


def _journal_overhead_gate(committed: dict) -> bool:
    if committed.get("journal") is None:
        print("[throughput-gate] no committed journal baseline; skipping")
        return True
    from bench_journal_overhead import measure_journal_overhead

    # Both legs remeasured back-to-back on the same stream: the ratio
    # cancels the hardware, leaving only the append-before-deliver tax.
    out = measure_journal_overhead(trials=2, legs=("off", "fsync=batch"))
    base = out["legs"]["off"]["medges_per_s"]
    batched = out["legs"]["fsync=batch"]["medges_per_s"]
    overhead = 1.0 - batched / max(base, 1e-9)
    print(
        f"[throughput-gate] journal fsync=batch: {batched:.3f} Medges/s vs "
        f"journal-off {base:.3f} ({100 * overhead:.1f}% overhead, ceiling "
        f"{100 * JOURNAL_OVERHEAD_CEILING:.0f}%)"
    )
    if overhead > JOURNAL_OVERHEAD_CEILING:
        print(
            "[throughput-gate] FAIL (journal overhead): the default "
            "fsync=batch journal now costs more than "
            f"{100 * JOURNAL_OVERHEAD_CEILING:.0f}% of journal-off "
            "throughput -- the append path has likely grown a copy or "
            "a per-append sync",
            file=sys.stderr,
        )
        return False
    return True


def _worker_shape_gate() -> bool:
    from bench_large_r import _stub_matching_stream

    from repro.core.vectorized import VectorizedTriangleCounter
    from repro.streaming.batch import EdgeBatch

    r = w = 8_192
    stream = _stub_matching_stream(250_000, 4, seed=0)

    def one_run(sparse: bool) -> float:
        # Fresh batches (and per-batch contexts, built untimed) for
        # every run, so no lazily cached context view carries over.
        batches = [
            EdgeBatch(stream[start : start + w])
            for start in range(0, stream.shape[0], w)
        ]
        for batch in batches:
            batch.context  # noqa: B018 -- build outside the timed loop
        engine = VectorizedTriangleCounter(r, seed=0, sparse=sparse)
        t0 = time.perf_counter()
        for batch in batches:
            engine.update_prepared(batch)
        return time.perf_counter() - t0

    best = {True: float("inf"), False: float("inf")}
    for _ in range(3):
        for sparse in (True, False):
            best[sparse] = min(best[sparse], one_run(sparse))
    ratio = best[False] / max(best[True], 1e-9)
    print(
        f"[throughput-gate] worker shape r={r} w={w} "
        f"({stream.shape[0]} edges): sparse {best[True]:.3f}s, dense "
        f"{best[False]:.3f}s (dense/sparse {ratio:.2f}, floor "
        f"{WORKER_SHAPE_RATIO_FLOOR:.2f})"
    )
    if ratio < WORKER_SHAPE_RATIO_FLOOR:
        print(
            "[throughput-gate] FAIL (worker shape): the output-sensitive "
            "count engine is slower than the dense reference at the "
            "sharded-worker shape",
            file=sys.stderr,
        )
        return False
    return True


def _exact_baseline_gate() -> bool:
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from exact_reference import ReferenceExactCounter

    from repro.baselines import ExactStreamingCounter
    from repro.generators import holme_kim
    from repro.streaming.batch import EdgeBatch

    stream = np.array(holme_kim(40_000, 8, 0.35, seed=0), dtype=np.int64)

    def one_run(counter, w: int) -> float:
        # Fresh batches every run, so the columnar counter pays its
        # per-batch context build inside the timed loop.
        batches = [
            EdgeBatch(stream[start : start + w])
            for start in range(0, stream.shape[0], w)
        ]
        t0 = time.perf_counter()
        for batch in batches:
            counter.update_batch(batch)
        return time.perf_counter() - t0

    ok = True
    for w, floor in EXACT_SPEEDUP_FLOORS.items():
        best = {"reference": float("inf"), "columnar": float("inf")}
        for _ in range(3):
            best["reference"] = min(best["reference"], one_run(ReferenceExactCounter(), w))
            best["columnar"] = min(best["columnar"], one_run(ExactStreamingCounter(), w))
        ratio = best["reference"] / max(best["columnar"], 1e-9)
        print(
            f"[throughput-gate] exact baseline w={w} ({stream.shape[0]} edges): "
            f"columnar {best['columnar']:.3f}s, reference {best['reference']:.3f}s "
            f"({ratio:.2f}x, floor {floor:.1f}x)"
        )
        if ratio < floor:
            print(
                f"[throughput-gate] FAIL (exact baseline w={w}): the columnar "
                "exact counter fell below its floor against the dict-of-sets "
                "reference",
                file=sys.stderr,
            )
            ok = False
    return ok


def _parse_gate() -> bool:
    import tempfile

    from repro.generators import holme_kim
    from repro.graph.io import iter_edge_list, write_edge_list, write_signed_edge_list
    from repro.streaming import FileSource

    edges = holme_kim(60_000, 4, 0.3, seed=4)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        plain, signed = Path(tmp) / "plain.edges", Path(tmp) / "signed.edges"
        write_edge_list(plain, edges)
        write_signed_edge_list(
            signed, ((u, v, -1 if i % 5 == 4 else 1) for i, (u, v) in enumerate(edges))
        )
        for label, path, is_signed in (("u v", plain, False), ("u v +-1", signed, True)):

            def file_source() -> tuple[float, int]:
                source = FileSource(path, deduplicate=False, signed=is_signed)
                t0 = time.process_time()
                rows = sum(len(batch) for batch in source.batches(65_536))
                return time.process_time() - t0, rows

            def reference() -> tuple[float, int]:
                t0 = time.process_time()
                rows = sum(1 for _ in iter_edge_list(path))
                return time.process_time() - t0, rows

            best = {"file_source": float("inf"), "reference": float("inf")}
            rows = set()
            for _ in range(3):
                for name, run in (("file_source", file_source), ("reference", reference)):
                    seconds, count = run()
                    best[name] = min(best[name], seconds)
                    rows.add(count)
            ratio = best["reference"] / max(best["file_source"], 1e-9)
            print(
                f"[throughput-gate] parse '{label}' ({len(edges)} rows): "
                f"FileSource {best['file_source']:.3f}s, iter_edge_list "
                f"{best['reference']:.3f}s ({ratio:.2f}x, floor "
                f"{PARSE_SPEEDUP_FLOOR:.1f}x)"
            )
            if len(rows) != 1:
                print(
                    f"[throughput-gate] FAIL (parse '{label}'): FileSource and "
                    f"iter_edge_list disagree on the row count: {sorted(rows)}",
                    file=sys.stderr,
                )
                ok = False
            elif ratio < PARSE_SPEEDUP_FLOOR:
                print(
                    f"[throughput-gate] FAIL (parse '{label}'): the columnar "
                    "parser fell below its floor against the per-line parser",
                    file=sys.stderr,
                )
                ok = False
    return ok


def main() -> int:
    committed = json.loads(ARTIFACT.read_text())
    r = min(committed["r_values"])
    r_large = max(committed["r_values"])
    # Smallest dataset = cheapest smoke run; ordering in the artifact
    # follows FIGURE3_DATASETS, whose first entry is the smallest.
    dataset = next(iter(committed["throughput"]))
    baseline = committed["throughput"][dataset][f"r={r}"]

    r_values = (r,) if r_large == r else (r, r_large)
    out = run_figure4(
        r_values=r_values, datasets=(dataset,), trials=3, verbose=False
    )
    ok = _gate(f"{dataset} @ r={r}", out["rows"][0][2], baseline)
    if r_large != r:
        baseline_large = committed["throughput"][dataset][f"r={r_large}"]
        ok = _gate(
            f"{dataset} @ r={r_large}", out["rows"][0][3], baseline_large
        ) and ok

    ok = _pipeline_run_gate() and ok
    ok = _shard_scaling_gate() and ok
    ok = _dynamic_gate(committed) and ok
    ok = _journal_overhead_gate(committed) and ok
    ok = _worker_shape_gate() and ok
    ok = _exact_baseline_gate() and ok
    ok = _parse_gate() and ok

    if not ok:
        return 1
    print("[throughput-gate] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
