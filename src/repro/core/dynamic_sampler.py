"""Vertex-subsampled triangle counting for fully-dynamic streams.

Bulteau, Froese, Kutzkov and Pagh (arXiv:1404.4696) count triangles in
a turnstile stream by *vertex* subsampling: a pairwise-independent hash
keeps each vertex with probability ``p``, the stream is filtered down
to edges whose **both** endpoints survive, and the exact triangle count
``tau`` of the sampled subgraph unbiases as ``tau / p^3`` (a triangle
survives iff its three vertices do, each independently enough under
the pairwise hash).

The crucial property for turnstile streams is that membership is a
*deterministic function of the vertex id*: a deletion hashes to exactly
the same decision as the insertion it cancels, so the sampled subgraph
tracks the evolving graph with no per-event randomness at all. All
randomness is spent once, at construction, drawing the hash
coefficients -- which is also what makes checkpoint/resume and sharded
replicas trivially bit-stable.

The hash is the classic multiply-shift ``h(v) = (a*v + b) mod 2^64``
with ``a`` odd; ``v`` survives when ``h(v) < p * 2^64``. Membership is
also set-semantic, so only the last event of each edge in a batch
matters: a batch is reduced to its distinct edges' final signs once,
the whole pool's hash runs as one broadcast over the batch's vertices,
and each sampler applies its kept edges' net change in one step
(:func:`~repro.core.triest_fd.apply_sample_delta`). ``tau`` is the
triangle count of the sampled edge set, a function of the set alone,
so this per-batch upkeep is bit-identical to per-event updates.

``p = 1.0`` keeps every vertex and makes the estimator exact -- the
deterministic hook the tests pin against.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, repeat

import numpy as np

from ..errors import InvalidParameterError
from ..rng import RandomSource, spawn_sources
from .triest_fd import apply_sample_delta

__all__ = ["DynamicGraphSampler", "DynamicSamplerCounter"]

_WORD = 1 << 64
_BROADCAST_CELLS = 1 << 20  # samplers x kept edges per prefilter chunk


class DynamicGraphSampler:
    """One vertex-subsampled subgraph over a signed edge stream.

    Parameters
    ----------
    p:
        Vertex sampling probability in ``(0, 1]``. ``1.0`` keeps the
        whole graph (exact counting).
    """

    def __init__(
        self,
        p: float,
        seed: int | None = None,
        *,
        rng: RandomSource | None = None,
    ) -> None:
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"p must be in (0, 1], got {p}")
        self.p = float(p)
        source = rng if rng is not None else RandomSource(seed)
        # All randomness up front: the multiply-shift coefficients.
        self.a = source.rand_int(0, (1 << 63) - 1) * 2 + 1  # odd
        self.b = source.rand_int(0, _WORD - 1)
        self._threshold = _WORD if self.p >= 1.0 else int(self.p * _WORD)
        self._edges: set[tuple[int, int]] = set()  # sampled subgraph
        self._adj: dict[int, set[int]] = {}
        self.t = 0  # stream events processed (inserts + deletes)
        self.s = 0  # net edge count of the evolving graph
        self.tau = 0  # exact triangles of the sampled subgraph

    def keeps(self, vertex: int) -> bool:
        """Whether the hash retains ``vertex`` (deterministic)."""
        return (self.a * vertex + self.b) % _WORD < self._threshold

    def update_final(self, events: int, net: int, final) -> None:
        """Observe a batch reduced to its kept edges' final signs.

        ``events`` and ``net`` are the whole batch's event count and
        sign sum; ``final`` yields ``((u, v), sign)`` for each distinct
        kept edge with the sign of its last event in the batch.
        Membership is set-semantic, so the last event alone decides it.
        """
        self.t += events
        self.s += net
        edges = self._edges
        removed, added = [], []
        for edge, sign in final:
            if sign < 0:
                if edge in edges:
                    removed.append(edge)
            elif edge not in edges:
                added.append(edge)
        edges.difference_update(removed)
        edges.update(added)
        self.tau += apply_sample_delta(self._adj, removed, added)

    def triangle_estimate(self) -> float:
        """``tau / p^3``: unbiased for the current graph's triangles."""
        return self.tau / (self.p**3)

    def state_dict(self) -> dict:
        """Snapshot: hash coefficients, counters, the sampled subgraph."""
        edges = np.array(sorted(self._edges), dtype=np.int64).reshape(-1, 2)
        return {
            "p": self.p,
            "a": self.a,
            "b": self.b,
            "t": self.t,
            "s": self.s,
            "tau": self.tau,
            "edges": edges,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        p = float(state["p"])
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"p must be in (0, 1], got {p}")
        self.p = p
        self.a = int(state["a"])
        self.b = int(state["b"])
        self._threshold = _WORD if p >= 1.0 else int(p * _WORD)
        self.t = int(state["t"])
        self.s = int(state["s"])
        self.tau = int(state["tau"])
        self._edges = {tuple(row) for row in np.asarray(state["edges"]).tolist()}
        self._adj = {}
        for u, v in self._edges:
            self._adj.setdefault(u, set()).add(v)
            self._adj.setdefault(v, set()).add(u)


class DynamicSamplerCounter:
    """A pool of independent vertex-subsampled counters, averaged.

    The registry estimator: ``num_estimators`` independent hash draws
    sharing every batch, their ``tau / p^3`` estimates averaged. The
    pooling contract matches every other estimator, so checkpointing,
    sharded merge-by-concatenation, and live snapshots work unchanged.
    """

    #: Turnstile-capable: honours the ``+1``/``-1`` sign column.
    supports_deletions = True

    def __init__(
        self, num_estimators: int, p: float, *, seed: int | None = None
    ) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        sources = spawn_sources(seed, num_estimators)
        self._samplers = [DynamicGraphSampler(p, rng=src) for src in sources]
        self.p = float(p)
        self.edges_seen = 0  # stream events (inserts + deletes)

    @property
    def num_estimators(self) -> int:
        return len(self._samplers)

    def update_batch(self, batch: Sequence) -> None:
        """Observe one batch, signed or plain.

        Plain sequences of ``(u, v)`` pairs or ``(u, v, sign)`` triples
        are validated into an :class:`~repro.streaming.batch.EdgeBatch`
        first. The batch is reduced to each distinct edge's last event
        once, then the whole pool's hash prefilter runs as one
        (pool x vertices) broadcast.
        """
        from ..streaming.batch import VERTEX_LIMIT, EdgeBatch

        batch = EdgeBatch.from_edges(batch)
        events = len(batch)
        if events:
            array, signs = batch.array, batch.signs
            net = events if signs is None else int(signs.sum(dtype=np.int64))
            keys = array[::-1, 0] * VERTEX_LIMIT + array[::-1, 1]
            last = events - 1 - np.unique(keys, return_index=True)[1]
            edges = array[last]
            final = list(zip(
                map(tuple, edges.tolist()),
                repeat(1) if signs is None else signs[last].tolist(),
            ))
            verts, inverse = np.unique(edges, return_inverse=True)
            pairs = inverse.reshape(-1, 2)
            step = max(1, _BROADCAST_CELLS // len(final))  # bounds the matrices
            for lo in range(0, len(self._samplers), step):
                chunk = self._samplers[lo : lo + step]
                keep = _keep_matrix(chunk, verts)[:, pairs].all(axis=2)
                for sampler, mask in zip(chunk, keep.tolist()):
                    sampler.update_final(events, net, compress(final, mask))
        self.edges_seen += events

    def state_dict(self) -> dict:
        """Snapshot: every sampler, in pool order."""
        return {
            "p": self.p,
            "edges_seen": self.edges_seen,
            "samplers": [s.state_dict() for s in self._samplers],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot, adopting its ``p`` and pool wholesale."""
        samplers = []
        for sampler_state in state["samplers"]:
            sampler = DynamicGraphSampler(float(state["p"]))
            sampler.load_state_dict(sampler_state)
            samplers.append(sampler)
        if not samplers:
            raise InvalidParameterError("state dict holds no samplers")
        self._samplers = samplers
        self.p = float(state["p"])
        self.edges_seen = int(state["edges_seen"])

    def merge(self, other: "DynamicSamplerCounter") -> None:
        """Absorb ``other``'s sampler pool (same stream, same ``p``)."""
        if other.p != self.p:
            raise InvalidParameterError(
                f"cannot merge p={other.p} into p={self.p}"
            )
        if other.edges_seen != self.edges_seen:
            raise InvalidParameterError(
                "cannot merge counters that observed different streams "
                f"({other.edges_seen} events vs {self.edges_seen})"
            )
        self._samplers.extend(other._samplers)

    def estimates(self) -> list[float]:
        """Per-sampler triangle estimates."""
        return [s.triangle_estimate() for s in self._samplers]

    def estimate(self) -> float:
        """The averaged triangle-count estimate for the current graph."""
        values = self.estimates()
        return sum(values) / len(values)

    def net_edges(self) -> int:
        """The evolving graph's net edge count (inserts minus deletes)."""
        return self._samplers[0].s


def _keep_matrix(samplers, verts: np.ndarray) -> np.ndarray:
    """Each sampler's :meth:`~DynamicGraphSampler.keeps` over ``verts``.

    One ``(len(samplers), len(verts))`` multiply-shift broadcast; uint64
    arithmetic wraps mod ``2^64`` natively.
    """
    a = np.array([s.a for s in samplers], dtype=np.uint64)
    b = np.array([s.b for s in samplers], dtype=np.uint64)
    limit = np.array(
        [min(s._threshold, _WORD - 1) for s in samplers], dtype=np.uint64
    )
    hashed = a[:, None] * verts.astype(np.uint64) + b[:, None]
    keep = hashed < limit[:, None]
    keep[[s._threshold >= _WORD for s in samplers]] = True  # p = 1 keeps all
    return keep
