"""Turnstile throughput and accuracy across a deletion-ratio sweep.

The deletion-capable estimators (TRIÈST-FD and the vertex-subsampled
dynamic sampler) pay for turnstile support with per-event reservoir
decisions that the insert-only vectorized engines never make; their
triangle upkeep runs once per batch, over the sample's net change.
This benchmark pins down what that costs and what it buys:

- **throughput** (Medges/s, events = inserts + deletes) for each
  estimator at deletion ratios 0 / 0.2 / 0.4 over the same synthetic
  event schedule;
- **accuracy** (relative error of the triangle estimate against an
  exact recount of the *final* graph) at each ratio, since deletions
  are precisely what shrinks TRIÈST-FD's effective sample and the
  dynamic sampler's subgraph;
- a **batch-size leg**: each estimator over one stream at w=64 and
  w=65,536, which must end in identical states (per-batch upkeep is a
  pure speedup) and shows what small batches still cost.

Results merge into ``BENCH_throughput.json`` under the ``dynamic`` key
so the CI gate (``check_throughput_regression.py``) can hold the
turnstile hot path to the same 50%-of-committed floor as the
insert-only engines.

Run directly for the numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic.py -q -s
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.rng import RandomSource
from repro.streaming import ESTIMATORS
from repro.streaming.batch import EdgeBatch

N_VERTICES = 2_000
N_EVENTS = 60_000
BATCH_SIZE = 8_192
NUM_ESTIMATORS = 4
DELETE_RATIOS = (0.0, 0.2, 0.4)
OPTIONS = {"triest-fd": {"memory": 4_096}, "dynamic-sampler": {"p": 0.5}}
TRIALS = 3
BATCH_LEG_SIZES = (64, 65_536)

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def turnstile_stream(
    n_events: int, n_vertices: int, delete_ratio: float, seed: int = 0
):
    """A well-formed turnstile schedule and the exact final triangle count.

    Deletions target a uniform *present* edge (O(1) via swap-remove), so
    the stream is a valid evolving simple graph at every prefix.
    """
    rng = RandomSource(seed)
    present: list[tuple[int, int]] = []
    slot: dict[tuple[int, int], int] = {}
    events = np.empty((n_events, 3), dtype=np.int64)
    count = 0
    while count < n_events:
        if present and rng.random() < delete_ratio:
            idx = rng.rand_int(0, len(present) - 1)
            edge = present[idx]
            last = present[-1]
            present[idx] = last
            slot[last] = idx
            present.pop()
            del slot[edge]
            events[count] = (edge[0], edge[1], -1)
        else:
            u = rng.rand_int(0, n_vertices - 1)
            v = rng.rand_int(0, n_vertices - 1)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in slot:
                continue
            slot[edge] = len(present)
            present.append(edge)
            events[count] = (edge[0], edge[1], 1)
        count += 1

    adj: dict[int, set[int]] = {}
    for u, v in present:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    exact = sum(len(adj[u] & adj[v]) for u, v in present) // 3
    return events, exact


def measure_dynamic(
    *,
    n_events: int = N_EVENTS,
    trials: int = TRIALS,
    seed: int = 0,
    ratios: tuple = DELETE_RATIOS,
) -> dict:
    """Best-of-``trials`` throughput and the accuracy per ratio/estimator."""
    sweep = {}
    for ratio in ratios:
        events, exact = turnstile_stream(n_events, N_VERTICES, ratio, seed=seed)
        batches = list(EdgeBatch.from_edges(events).batches(BATCH_SIZE))
        per_estimator = {}
        for name, options in OPTIONS.items():
            times = []
            estimate = None
            for _ in range(trials):
                est = ESTIMATORS.get(name).create(NUM_ESTIMATORS, seed, **options)
                t0 = time.perf_counter()
                for batch in batches:
                    est.update_batch(batch)
                times.append(time.perf_counter() - t0)
                estimate = est.estimate()
            rel_error = (
                abs(estimate - exact) / exact if exact else abs(estimate)
            )
            per_estimator[name] = {
                "seconds": round(min(times), 4),
                "medges_per_s": round(n_events / min(times) / 1e6, 3),
                "estimate": round(estimate, 1),
                "rel_error": round(rel_error, 4),
            }
        sweep[f"delete_ratio={ratio}"] = {
            "exact_triangles": exact,
            "estimators": per_estimator,
        }
    return {
        "cpu_count": os.cpu_count() or 1,
        "events": n_events,
        "n_vertices": N_VERTICES,
        "batch_size": BATCH_SIZE,
        "num_estimators": NUM_ESTIMATORS,
        "options": OPTIONS,
        "unit": "Medges/s",
        "sweep": sweep,
    }


def same_state(a, b) -> bool:
    """Deep equality of two ``state_dict`` snapshots, arrays included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_state, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def measure_batch_legs(
    *, n_events: int = N_EVENTS, trials: int = TRIALS, seed: int = 0, ratio: float = 0.2
) -> dict:
    """Best-of-``trials`` throughput per batch size, and whether the
    sizes agree on every estimator's final state."""
    events, _ = turnstile_stream(n_events, N_VERTICES, ratio, seed=seed)
    legs = {}
    for name, options in OPTIONS.items():
        row, states = {}, []
        for size in BATCH_LEG_SIZES:
            batches = list(EdgeBatch.from_edges(events).batches(size))
            times = []
            for _ in range(trials):
                est = ESTIMATORS.get(name).create(NUM_ESTIMATORS, seed, **options)
                t0 = time.perf_counter()
                for batch in batches:
                    est.update_batch(batch)
                times.append(time.perf_counter() - t0)
            states.append(est.state_dict())
            row[f"batch={size}"] = {
                "seconds": round(min(times), 4),
                "medges_per_s": round(n_events / min(times) / 1e6, 3),
            }
        row["identical_state"] = same_state(*states)
        legs[name] = row
    return {"delete_ratio": ratio, "legs": legs}


def _write_artifact(result: dict) -> None:
    """Merge the turnstile numbers into the shared throughput artifact."""
    data = {}
    if ARTIFACT_PATH.exists():
        data = json.loads(ARTIFACT_PATH.read_text())
    data["dynamic"] = result
    ARTIFACT_PATH.write_text(json.dumps(data, indent=2) + "\n")


@pytest.fixture(scope="module")
def dynamic():
    result = measure_dynamic()
    result["batch_legs"] = measure_batch_legs()
    _write_artifact(result)
    for name, row in result["batch_legs"]["legs"].items():
        speeds = ", ".join(
            f"w={size}: {row[f'batch={size}']['medges_per_s']:.3f}"
            for size in BATCH_LEG_SIZES
        )
        print(f"\n[dynamic] {name} batch legs (Medges/s): {speeds}")
    for ratio, leg in result["sweep"].items():
        for name, row in leg["estimators"].items():
            print(
                f"\n[dynamic] {ratio} {name}: {row['medges_per_s']:.3f} "
                f"Medges/s, rel_error {row['rel_error']:.3f} "
                f"(exact {leg['exact_triangles']})"
            )
    return result


def test_every_leg_completes(dynamic):
    for ratio, leg in dynamic["sweep"].items():
        for name, row in leg["estimators"].items():
            assert row["seconds"] > 0, (ratio, name)
            assert row["medges_per_s"] > 0, (ratio, name)


def test_accuracy_stays_bounded_across_ratios(dynamic):
    """Deletions must not blow the estimators up: the sweep's relative
    error stays within a loose sanity band at every ratio (the tight
    statistical claims live in the test suite's exactness hooks)."""
    for ratio, leg in dynamic["sweep"].items():
        for name, row in leg["estimators"].items():
            assert row["rel_error"] < 0.75, (ratio, name, row)


def test_insert_only_ratio_matches_triest_exactly(dynamic):
    """At delete_ratio=0 with memory >= stream, TRIÈST-FD is exact."""
    leg = dynamic["sweep"]["delete_ratio=0.0"]
    row = leg["estimators"]["triest-fd"]
    # memory 4096 < 60k inserts, so not exact -- but the reservoir
    # correction should still land close on a dense random graph.
    assert row["rel_error"] < 0.5


def test_small_and_large_batches_end_in_identical_states(dynamic):
    """Per-batch triangle upkeep must not depend on where batches cut."""
    for name, row in dynamic["batch_legs"]["legs"].items():
        assert row["identical_state"], name
