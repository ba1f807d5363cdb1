"""Fault-recovery cost: what supervision and a mid-stream kill cost.

Self-healing is only free when nothing fails -- and only worth having
when a failure costs less than rerunning the stream. This benchmark
measures :class:`~repro.core.parallel.ParallelTriangleCounter` over a
long synthetic stream three ways:

- ``unsupervised`` -- ``max_restarts=0``, the executor's fail-fast
  mode with no snapshot barriers (the overhead baseline);
- ``supervised`` -- a restart budget (``max_restarts``, periodic
  in-memory snapshots) but no fault injected: the pure overhead of the
  snapshot barriers;
- ``faulted`` -- same, with a worker SIGKILLed mid-stream by a
  :class:`~repro.streaming.FaultPlan`: detection, respawn, snapshot
  restore, and bounded replay all on the clock.

All three must produce the bit-identical estimate; the wall-clock
spread is recorded in ``BENCH_throughput.json`` under the
``fault_recovery`` key so recovery cost is tracked across PRs.

Run directly for the numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_recovery.py -q -s
"""

import json
import os
import time
import warnings
from pathlib import Path

import pytest

from repro.core.parallel import ParallelTriangleCounter
from repro.errors import WorkerRestartedWarning
from repro.streaming import FaultPlan

from bench_large_r import _stub_matching_stream

N_VERTICES = 200_000
MEAN_DEGREE = 4
BATCH_SIZE = 8_192
NUM_ESTIMATORS = 8_192
WORKERS = 2
KILL_AT_BATCH = 20
TRIALS = 3

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def measure_fault_recovery(
    *,
    num_estimators: int = NUM_ESTIMATORS,
    batch_size: int = BATCH_SIZE,
    trials: int = TRIALS,
    seed: int = 0,
) -> dict:
    """Best-of-``trials`` wall clock for each leg, plus the estimates."""
    stream = _stub_matching_stream(N_VERTICES, MEAN_DEGREE, seed=seed)
    m = int(stream.shape[0])

    def run(**kwargs):
        times = []
        estimate = None
        restarts = None
        for _ in range(trials):
            counter = ParallelTriangleCounter(
                num_estimators, workers=WORKERS, seed=seed, **kwargs
            )
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WorkerRestartedWarning)
                estimate = counter.count(stream, batch_size=batch_size)
            times.append(time.perf_counter() - t0)
            restarts = counter.last_restarts
        return {
            "seconds": round(min(times), 4),
            "medges_per_s": round(m / min(times) / 1e6, 3),
            "estimate": estimate,
            "restarts": restarts,
        }

    legs = {
        "unsupervised": run(),
        "supervised": run(max_restarts=2),
        "faulted": run(
            max_restarts=2,
            fault_plan=FaultPlan.parse(f"kill:w1@b{KILL_AT_BATCH}"),
        ),
    }
    return {
        "cpu_count": os.cpu_count() or 1,
        "edges": m,
        "num_estimators": num_estimators,
        "batch_size": batch_size,
        "workers": WORKERS,
        "kill_at_batch": KILL_AT_BATCH,
        "recovery_overhead_s": round(
            legs["faulted"]["seconds"] - legs["supervised"]["seconds"], 4
        ),
        "legs": legs,
    }


def _write_artifact(result: dict) -> None:
    """Merge the recovery numbers into the shared throughput artifact."""
    payload = {
        key: (
            {k: {kk: vv for kk, vv in v.items() if kk != "estimate"}
             for k, v in value.items()}
            if key == "legs"
            else value
        )
        for key, value in result.items()
    }
    data = {}
    if ARTIFACT_PATH.exists():
        data = json.loads(ARTIFACT_PATH.read_text())
    data["fault_recovery"] = payload
    ARTIFACT_PATH.write_text(json.dumps(data, indent=2) + "\n")


@pytest.fixture(scope="module")
def recovery():
    result = measure_fault_recovery()
    _write_artifact(result)
    for name, leg in result["legs"].items():
        print(f"\n[fault-recovery] {name}: {leg['seconds']:.3f}s "
              f"({leg['medges_per_s']:.3f} Medges/s, restarts={leg['restarts']})")
    print(f"[fault-recovery] recovery overhead: "
          f"{result['recovery_overhead_s']:.3f}s")
    return result


def test_every_leg_completes(recovery):
    for name, leg in recovery["legs"].items():
        assert leg["seconds"] > 0, name
        assert leg["medges_per_s"] > 0, name


def test_all_legs_are_bit_identical(recovery):
    """Supervision and even a mid-stream SIGKILL must not move the
    estimate: snapshot restore + replay reconstructs the exact state."""
    legs = recovery["legs"]
    assert legs["supervised"]["estimate"] == legs["unsupervised"]["estimate"]
    assert legs["faulted"]["estimate"] == legs["unsupervised"]["estimate"]


def test_the_faulted_leg_actually_restarted(recovery):
    assert sum(recovery["legs"]["faulted"]["restarts"]) >= 1
    assert sum(recovery["legs"]["supervised"]["restarts"]) == 0


def test_recovery_beats_rerunning_the_stream(recovery):
    """Restore + bounded replay must cost less than a from-scratch
    rerun would: the faulted run stays under twice the clean one."""
    legs = recovery["legs"]
    assert legs["faulted"]["seconds"] < 2.0 * legs["supervised"]["seconds"] + 1.0
