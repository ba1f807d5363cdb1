"""Command-line interface: streaming graph statistics from edge-list files.

    python -m repro count --input graph.edges --estimators 50000
    python -m repro transitivity --input graph.edges --estimators 50000
    python -m repro sample --input graph.edges --estimators 20000 -k 5
    python -m repro pipeline --input graph.edges --estimator count \\
        --estimator transitivity --estimator sample
    python -m repro watch --input live.edges --every 10 --checkpoint ck/
    python -m repro exact --input graph.edges
    python -m repro stats --input graph.edges
    python -m repro check src/ benchmarks/ --format json

Files are whitespace-separated ``u v`` lines (SNAP format; ``#``
comments ignored). Every subcommand pulls the file through a lazy
:class:`~repro.streaming.FileSource` in fixed-size batches -- the edge
list is never materialized. Repeated edges are dropped on the fly by
default (the paper assumes a simple stream; SNAP files often list both
directions), which keeps a membership set; pass ``--no-dedup`` on
already-simple inputs to make memory bounded by the batch size plus
estimator state no matter how long the stream is. ``pipeline``
fans one stream pass out to any set of estimators from the registry
(``--estimator`` choices below); ``--engine`` choices likewise come
from the engine registry, so out-of-tree registrations appear
automatically. ``pipeline`` also carries the production
knobs: ``--workers`` shards every estimator pool across processes over
one stream read (``--transport`` chooses how batches reach them:
zero-copy shared memory or pickled queues), and ``--checkpoint`` /
``--checkpoint-every`` /
``--resume`` snapshot and restore estimator state so a long run can be
killed and continued bit-identically. Multiprocess runs are supervised:
``--max-restarts`` / ``--worker-deadline`` respawn crashed or hung
workers from in-memory snapshots with bounded replay (results stay
bit-identical), and ``--fault-plan`` injects deterministic faults to
drill those paths. ``watch`` is the live surface:
it follows a *growing* file (or stdin) and emits a snapshot of every
estimator's current results each ``--every`` batches while the stream
keeps flowing, with the same checkpoint/resume knobs. ``check`` is the
repo's own static analyzer: it runs the :mod:`repro.analysis` rules
(checkpoint completeness, RNG discipline, resource lifecycle,
iteration determinism, registry conformance) over source
trees and exits nonzero on findings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections.abc import Sequence

import numpy as np

from .baselines.exact_stream import ExactStreamingCounter
from .core.transitivity import TransitivityEstimator
from .core.triangle_count import TriangleCounter
from .core.triangle_sample import TriangleSampler
from .errors import InvalidParameterError, ReproError
from .streaming import (
    DEFAULT_SEGMENT_BYTES,
    ENGINES,
    ESTIMATORS,
    FSYNC_POLICIES,
    FaultPlan,
    FileSource,
    FollowSource,
    LineSource,
    Pipeline,
    ShardedPipeline,
    faults,
)

__all__ = ["main"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="edge-list file")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--batch-size", type=_positive_int, default=65_536, help="edges per batch"
    )
    parser.add_argument(
        "--dedup",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="drop repeated edges on the fly so the stream is a simple "
        "graph's, as the paper assumes (default; costs O(distinct edges) "
        "memory). Pass --no-dedup for constant-memory streaming of inputs "
        "that are already simple. Incompatible with --signed, where "
        "repeats are re-inserts and deletions",
    )
    parser.add_argument(
        "--signed",
        action="store_true",
        help="treat the input as a fully-dynamic (turnstile) stream: "
        "each line is 'u v' plus a +1/-1 third column (or a +/- prefix) "
        "marking insertion vs deletion. Requires deletion-capable "
        "estimators (triest-fd, dynamic-sampler)",
    )


def _add_journal(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="write-ahead journal DIR: every batch is durably appended "
        "before any estimator sees it, checkpoints record the journal "
        "position, and a --resume replays the journal instead of "
        "re-reading the input -- exactly-once even for stdin/sockets",
    )
    parser.add_argument(
        "--journal-fsync",
        choices=FSYNC_POLICIES,
        default="batch",
        help="journal durability: 'always' fsyncs every append "
        "(power-loss safe), 'batch' fsyncs at checkpoints/rotation "
        "(default; kill -9 safe), 'off' never fsyncs (still kill -9 "
        "safe -- appends are flushed to the OS)",
    )
    parser.add_argument(
        "--journal-max-segment",
        type=_positive_int,
        default=DEFAULT_SEGMENT_BYTES,
        metavar="BYTES",
        help="rotate journal segment files past this size "
        f"(default: {DEFAULT_SEGMENT_BYTES})",
    )


def _source(args: argparse.Namespace) -> FileSource:
    # deduplicate=None lets FileSource pick the mode default: dedup on
    # for insert-only input, off for signed (where repeats are events).
    return FileSource(args.input, deduplicate=args.dedup, signed=args.signed)


def _stream(name: str, estimator, args: argparse.Namespace) -> float:
    """Run ``estimator`` over the input as the one-estimator pipeline
    ``name``; return the pass's seconds. The report queries nothing:
    the subcommand prints its own results (and makes ``sample``'s draws).
    """
    pipeline = Pipeline([(name, estimator)], reporters={name: lambda _: {}})
    return pipeline.run(_source(args), batch_size=args.batch_size).seconds


def _cmd_count(args: argparse.Namespace) -> int:
    counter = TriangleCounter(args.estimators, engine=args.engine, seed=args.seed)
    elapsed = _stream("count", counter, args)
    edges = counter.edges_seen
    print(f"edges: {edges:,}")
    print(f"estimated triangles: {counter.estimate():,.1f}")
    print(f"estimators holding a triangle: {counter.fraction_holding_triangle():.2%}")
    print(f"processing time: {elapsed:.3f}s "
          f"({edges / max(elapsed, 1e-9) / 1e6:.2f}M edges/s, incl. file I/O)")
    return 0


def _cmd_transitivity(args: argparse.Namespace) -> int:
    est = TransitivityEstimator(args.estimators, seed=args.seed)
    elapsed = _stream("transitivity", est, args)
    print(f"edges: {est.edges_seen:,}")
    print(f"estimated triangles: {est.triangle_estimate():,.1f}")
    print(f"estimated wedges: {est.wedge_estimate():,.1f}")
    print(f"estimated transitivity: {est.estimate():.4f}")
    print(f"processing time: {elapsed:.3f}s")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    sampler = TriangleSampler(args.estimators, seed=args.seed)
    _stream("sample", sampler, args)
    triangles = sampler.sample(args.k)
    print(f"{args.k} uniform triangles (with replacement):")
    for tri in triangles:
        print(f"  {tri[0]} {tri[1]} {tri[2]}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    counter = ExactStreamingCounter()
    elapsed = _stream("exact", counter, args)
    print(f"edges: {counter.edges_seen:,}")
    print(f"triangles: {counter.triangles:,}")
    print(f"wedges: {counter.wedges:,}")
    if counter.wedges:
        print(f"transitivity: {counter.transitivity():.4f}")
    print(f"processing time: {elapsed:.3f}s")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # One lazy pass: per-batch degree counts come from a vectorized
    # np.unique over the columnar batch; only the (much smaller) set of
    # distinct vertices per batch touches Python. The edge list itself
    # is never materialized.
    degrees: dict[int, int] = {}
    edges = 0
    for batch in _source(args).batches(args.batch_size):
        edges += len(batch)
        verts, counts = np.unique(batch.array, return_counts=True)
        for vertex, count in zip(verts.tolist(), counts.tolist()):
            degrees[vertex] = degrees.get(vertex, 0) + count
    print(f"vertices: {len(degrees):,}")
    print(f"edges: {edges:,}")
    print(f"max degree: {max(degrees.values(), default=0):,}")
    return 0


def _install_fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """Parse and install ``--fault-plan`` (None leaves $REPRO_FAULT_PLAN)."""
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return None
    plan = FaultPlan.parse(spec)
    faults.install(plan)
    return plan


def _cmd_watch(args: argparse.Namespace) -> int:
    """Follow a growing file (or stdin) and emit live snapshots."""
    _install_fault_plan(args)
    if args.input == "-":
        if args.resume and not args.journal:
            raise InvalidParameterError(
                "--resume needs a replayable input; stdin cannot re-serve "
                "the edges the checkpoint already consumed. Watch a file, "
                "or run with --journal so the continuation replays the "
                "durable journal instead."
            )
        if args.poll_interval is not None or args.idle_timeout is not None:
            # stdin has no poll loop (reads block until the producer
            # writes or closes); silently accepting these would leave a
            # watcher its user believes will stop on idle hanging forever.
            raise InvalidParameterError(
                "--poll-interval/--idle-timeout only apply when following "
                "a file; stdin ends when the producer closes the pipe"
            )
        source = LineSource(sys.stdin, deduplicate=args.dedup, signed=args.signed)
    else:
        source = FollowSource(
            args.input,
            deduplicate=args.dedup,
            signed=args.signed,
            poll_interval=0.2 if args.poll_interval is None else args.poll_interval,
            idle_timeout=args.idle_timeout,
        )
    names = args.estimator or ["count", "sliding-window"]
    pipeline = Pipeline.from_registry(
        names, num_estimators=args.estimators, seed=args.seed
    )
    if args.resume:
        pipeline.resume(args.resume)
    checkpoint_signal = None
    if args.checkpoint and hasattr(signal, "SIGUSR1"):
        # kill -USR1 <pid> snapshots at the next batch boundary.
        checkpoint_signal = signal.SIGUSR1
    snapshots = pipeline.snapshots(
        source,
        batch_size=args.batch_size,
        every=args.every,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        checkpoint_signal=checkpoint_signal,
        journal_dir=args.journal,
        journal_fsync=args.journal_fsync,
        journal_max_segment=args.journal_max_segment,
    )
    # Unbuffered binary append: each snapshot is one write(2) of one
    # complete line, so a concurrent reader (or a kill mid-write) never
    # sees a torn/interleaved record.
    jsonl = open(args.jsonl, "ab", buffering=0) if args.jsonl else None
    try:
        for snapshot in snapshots:
            if jsonl is not None:
                line = json.dumps(snapshot.to_dict()) + "\n"
                jsonl.write(line.encode("utf-8"))
            else:
                print(snapshot.render_line(), flush=True)
    except KeyboardInterrupt:
        # A watcher is killed, not completed; the last --checkpoint
        # snapshot (if any) is what --resume continues from.
        print("watch interrupted", file=sys.stderr)
        return 130
    finally:
        if jsonl is not None:
            jsonl.close()
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    names = args.estimator or ["count", "transitivity", "exact"]
    plan = _install_fault_plan(args)
    if args.workers > 1:
        if args.checkpoint or args.resume:
            raise InvalidParameterError(
                "--checkpoint/--resume are single-process features; "
                "run them without --workers"
            )
        sharded = ShardedPipeline(
            names,
            workers=args.workers,
            num_estimators=args.estimators,
            seed=args.seed,
            transport=args.transport,
            max_restarts=args.max_restarts,
            worker_deadline=args.worker_deadline,
            fault_plan=plan,
        )
        report = sharded.run(
            _source(args),
            batch_size=args.batch_size,
            journal_dir=args.journal,
            journal_fsync=args.journal_fsync,
            journal_max_segment=args.journal_max_segment,
        )
        print(report.render())
        return 0
    pipeline = Pipeline.from_registry(
        names, num_estimators=args.estimators, seed=args.seed
    )
    if args.resume:
        pipeline.resume(args.resume)
    checkpoint_signal = None
    if args.checkpoint and hasattr(signal, "SIGUSR1"):
        # kill -USR1 <pid> snapshots at the next batch boundary.
        checkpoint_signal = signal.SIGUSR1
    report = pipeline.run(
        _source(args),
        batch_size=args.batch_size,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        checkpoint_signal=checkpoint_signal,
        journal_dir=args.journal,
        journal_fsync=args.journal_fsync,
        journal_max_segment=args.journal_max_segment,
    )
    print(report.render())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the repo's static-analysis rules; exit 1 on findings."""
    # Imported here so ordinary streaming commands never pay for the
    # analyzer (and vice versa: `check` needs no estimator machinery).
    from .analysis import RULES, render_human, render_json, run_check

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].title}")
        return 0
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    try:
        result = run_check(paths, rules=args.rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as handle:
            handle.write(render_json(result) + "\n")
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="approximate triangle counting")
    _add_common(p_count)
    p_count.add_argument("--estimators", type=int, default=100_000)
    p_count.add_argument(
        "--engine", choices=ENGINES.names(), default="vectorized"
    )
    p_count.set_defaults(func=_cmd_count)

    p_trans = sub.add_parser("transitivity", help="transitivity coefficient")
    _add_common(p_trans)
    p_trans.add_argument("--estimators", type=int, default=100_000)
    p_trans.set_defaults(func=_cmd_transitivity)

    p_sample = sub.add_parser("sample", help="uniform triangle sampling")
    _add_common(p_sample)
    p_sample.add_argument("--estimators", type=int, default=50_000)
    p_sample.add_argument("-k", type=int, default=1, help="triangles to draw")
    p_sample.set_defaults(func=_cmd_sample)

    p_pipe = sub.add_parser(
        "pipeline",
        help="fan one stream pass out to several estimators",
        description="Run any set of registered estimators over a single "
        "read of the input file, with per-estimator timing.",
    )
    _add_common(p_pipe)
    p_pipe.add_argument(
        "--estimator",
        action="append",
        choices=ESTIMATORS.names(),
        metavar="NAME",
        help="estimator to run (repeatable); choices: "
        + ", ".join(ESTIMATORS.names())
        + "; default: count, transitivity, exact",
    )
    p_pipe.add_argument(
        "--estimators",
        type=int,
        default=None,
        help="pool size for every estimator (default: per-estimator)",
    )
    p_pipe.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="shard every estimator pool across this many worker "
        "processes over one stream read (default: 1, in-process)",
    )
    p_pipe.add_argument(
        "--transport",
        choices=("auto", "shm", "queue"),
        default="auto",
        help="with --workers > 1: how batches reach the workers. 'shm' "
        "ships zero-copy shared-memory views, 'queue' pickles each batch "
        "per worker, 'auto' (default) prefers shm where the platform "
        "supports it",
    )
    p_pipe.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        metavar="N",
        help="with --workers > 1: respawn a crashed or hung worker up "
        "to N times (snapshot restore + bounded replay keeps results "
        "bit-identical). 0 fails the run on the first worker death "
        "(default: 2)",
    )
    p_pipe.add_argument(
        "--worker-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --workers > 1: declare a worker hung (and restart "
        "it) when it makes no progress for this long (default: wait "
        "forever)",
    )
    p_pipe.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults for recovery drills, e.g. "
        "'kill:w0@b5,source-error@r2' (also read from "
        "$REPRO_FAULT_PLAN; see repro.streaming.faults)",
    )
    p_pipe.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="snapshot estimator state into DIR: always at stream end, "
        "every --checkpoint-every batches, and on SIGUSR1",
    )
    p_pipe.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="K",
        help="with --checkpoint: also snapshot every K batches",
    )
    p_pipe.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume from a checkpoint DIR (same estimators, same input, "
        "same --batch-size) and continue bit-identically",
    )
    _add_journal(p_pipe)
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_watch = sub.add_parser(
        "watch",
        help="live snapshots over a growing file or stdin",
        description="Follow an edge-list file as it grows (tail -f "
        "semantics; pass '-' to read stdin instead) and print a "
        "snapshot of every estimator's current results every --every "
        "batches. Windowed estimators pair naturally with this mode. "
        "With --checkpoint, a killed watcher restarts with --resume "
        "and continues where it stood.",
    )
    p_watch.add_argument(
        "--input", required=True, help="edge-list file to follow, or '-' for stdin"
    )
    p_watch.add_argument("--seed", type=int, default=0, help="random seed")
    p_watch.add_argument(
        "--batch-size", type=_positive_int, default=4_096,
        help="edges per batch (smaller than pipeline's default: live "
        "latency beats throughput here)",
    )
    p_watch.add_argument(
        "--dedup",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="drop repeated edges across the whole watched stream "
        "(default OFF for watch: the membership set grows forever on "
        "an unbounded stream)",
    )
    p_watch.add_argument(
        "--signed",
        action="store_true",
        help="treat the followed stream as fully-dynamic (turnstile): "
        "each line carries a +1/-1 third column or a +/- prefix marking "
        "insertion vs deletion; pair with deletion-capable estimators",
    )
    p_watch.add_argument(
        "--estimator",
        action="append",
        choices=ESTIMATORS.names(),
        metavar="NAME",
        help="estimator to run (repeatable); choices: "
        + ", ".join(ESTIMATORS.names())
        + "; default: count, sliding-window",
    )
    p_watch.add_argument(
        "--estimators",
        type=int,
        default=None,
        help="pool size for every estimator (default: per-estimator)",
    )
    p_watch.add_argument(
        "--every", type=_positive_int, default=1, metavar="K",
        help="emit a snapshot every K batches (default: 1)",
    )
    p_watch.add_argument(
        "--poll-interval", type=float, default=None, metavar="SECONDS",
        help="seconds between polls of an idle file (default: 0.2; "
        "file input only)",
    )
    p_watch.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="stop after the file has not grown for this long "
        "(default: follow forever; file input only)",
    )
    p_watch.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="append each snapshot as a JSON line to PATH instead of "
        "printing to stdout (one atomic write per line)",
    )
    p_watch.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults for recovery drills, e.g. "
        "'source-error@r2,ckpt-fail@s2' (also read from "
        "$REPRO_FAULT_PLAN; see repro.streaming.faults)",
    )
    p_watch.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="snapshot estimator state into DIR: every "
        "--checkpoint-every batches, on SIGUSR1, and at stream end",
    )
    p_watch.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="K",
        help="with --checkpoint: also snapshot every K batches",
    )
    p_watch.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume a killed watcher from its checkpoint DIR (same "
        "estimators, same file, same --batch-size); with --journal, "
        "works for stdin too: the journal replays the edges the "
        "checkpoint had not yet covered",
    )
    _add_journal(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_exact = sub.add_parser("exact", help="exact counts (O(m) memory)")
    _add_common(p_exact)
    p_exact.set_defaults(func=_cmd_exact)

    p_stats = sub.add_parser("stats", help="basic graph statistics")
    _add_common(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_check = sub.add_parser(
        "check",
        help="run the repo's static-analysis rules",
        description="AST-based invariant checks over Python sources: "
        "checkpoint-state completeness (R001), RNG discipline (R002), "
        "resource lifecycle (R004), nondeterministic iteration (R005), "
        "and registry/protocol conformance (R006). Suppress a single line with "
        "'# repro: allow[R00x]'; unused suppressions are themselves "
        "flagged. Exits 0 when clean, 1 on findings, 2 on usage errors.",
    )
    p_check.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze "
        "(default: the installed repro package)",
    )
    p_check.add_argument(
        "--rule",
        action="append",
        metavar="R00x",
        default=None,
        help="run only this rule id (repeatable; default: all rules). "
        "Unused-suppression warnings are emitted only on full runs",
    )
    p_check.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format on stdout (default: human)",
    )
    p_check.add_argument(
        "--json-report",
        metavar="PATH",
        default=None,
        help="additionally write the JSON report to PATH (any --format)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
