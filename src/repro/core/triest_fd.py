"""TRIÈST-FD: triangle counting over fully-dynamic (turnstile) streams.

De Stefani, Epasto, Riondato and Upfal's fully-dynamic variant of
TRIÈST (KDD 2016) adapts reservoir sampling to edge *deletions* with
random pairing (Gemulla, Lehner, Haas): a deletion is not compensated
immediately -- it is remembered in one of two counters, ``d_i`` (a
deletion of an edge that was *in* the sample) or ``d_o`` (of one that
was *out*), and a later insertion "pairs" with an uncompensated
deletion instead of running the reservoir coin:

- **deletion** of ``e``: decrement the net edge count ``s``; if ``e``
  is sampled, remove it (updating the sampled triangle count ``tau``)
  and ``d_i += 1``, else ``d_o += 1``;
- **insertion** of ``e`` with no uncompensated deletions
  (``d_i + d_o == 0``): the classic reservoir step -- add while the
  sample has room, else replace a uniform victim with probability
  ``M / s``;
- **insertion** with ``d_i + d_o > 0``: with probability
  ``d_i / (d_i + d_o)`` the arrival refills the sampled-deletion hole
  (``d_i -= 1``, ``e`` enters the sample), otherwise it is dropped
  (``d_o -= 1``).

The invariant is that the sample stays a uniform ``min(M, pop)``-subset
of the current edge *population* ``pop = s + d_i + d_o``, so with
``omega = min(M, pop)`` the sampled triangle count ``tau`` unbiases by
the probability that all three edges of a triangle are sampled:

    estimate = tau * (pop choose 3) / (omega choose 3)
             = tau / prod_{j<3} (omega - j) / (pop - j)

When ``M >= pop`` the sample is the whole graph, the correction is 1,
and ``tau`` is the exact triangle count -- the deterministic hook the
test suite pins the implementation against.

Decisions run per event: each one conditions the reservoir state, so
every sampler walks the batch in order, making the same ``coin`` /
``rand_int`` draws on the slot arrays alone. ``tau`` is maintained per
batch: the adjacency and triangle count follow the sample's *net*
change once, after the walk (:func:`apply_sample_delta`). That is
bit-identical to per-event upkeep because ``tau`` is always the
triangle count of the current sampled edge set -- a function of the
set, not of the path that reached it -- and no decision reads ``tau``
or the adjacency. Edges admitted and evicted inside one batch never
touch the adjacency at all.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat

import numpy as np

from ..errors import InvalidParameterError
from ..rng import RandomSource, spawn_sources

__all__ = ["TriestFdSampler", "TriestFdCounter", "apply_sample_delta"]


class TriestFdSampler:
    """One TRIÈST-FD reservoir over a signed edge stream.

    Parameters
    ----------
    memory:
        The reservoir capacity ``M`` (sampled edges held at most).
    """

    def __init__(
        self,
        memory: int,
        seed: int | None = None,
        *,
        rng: RandomSource | None = None,
    ) -> None:
        if memory < 1:
            raise InvalidParameterError(f"memory must be >= 1, got {memory}")
        self.memory = memory
        self._rng = rng if rng is not None else RandomSource(seed)
        self._edges: list[tuple[int, int]] = []  # sample, in slot order
        self._slot: dict[tuple[int, int], int] = {}  # edge -> sample index
        self._adj: dict[int, set[int]] = {}  # sampled adjacency
        self.t = 0  # stream events processed (inserts + deletes)
        self.s = 0  # net edge count of the evolving graph
        self.d_i = 0  # uncompensated deletions of sampled edges
        self.d_o = 0  # uncompensated deletions of unsampled edges
        self.tau = 0  # triangles with all three edges in the sample

    # -- the stream --------------------------------------------------------
    def update_rows(self, rows: Sequence, signs: Sequence | None) -> None:
        """Observe a batch of canonical ``(u, v)`` tuples with their signs.

        The reservoir and random-pairing decisions run per event over
        the slot arrays alone; the first touch of each edge records
        whether it started the batch sampled, and the adjacency and
        ``tau`` then follow the sample's net change in one step.
        """
        edges, slot, memory = self._edges, self._slot, self.memory
        coin, rand_int = self._rng.coin, self._rng.rand_int
        s, d_i, d_o = self.s, self.d_i, self.d_o
        sampled_before: dict[tuple[int, int], bool] = {}
        for edge, sign in zip(rows, repeat(1) if signs is None else signs):
            if sign < 0:
                s -= 1
                if edge not in slot:
                    d_o += 1
                    continue
                d_i += 1
                victim, edge = edge, None
            else:
                s += 1
                if edge in slot:
                    continue  # duplicate insert of a sampled edge: idempotent
                d = d_i + d_o
                if d:
                    if not coin(d_i / d):
                        d_o -= 1
                        continue
                    d_i -= 1
                    victim = None
                elif len(edges) < memory:
                    victim = None
                elif coin(memory / s):
                    victim = edges[rand_int(0, len(edges) - 1)]
                else:
                    continue
            if victim is not None:  # the last slot fills the hole
                idx = slot.pop(victim)
                last = edges.pop()
                if idx < len(edges):
                    edges[idx] = last
                    slot[last] = idx
                sampled_before.setdefault(victim, True)
            if edge is not None:
                sampled_before.setdefault(edge, False)
                slot[edge] = len(edges)
                edges.append(edge)
        self.t += len(rows)
        self.s, self.d_i, self.d_o = s, d_i, d_o
        removed = [e for e, was in sampled_before.items() if was and e not in slot]
        added = [e for e, was in sampled_before.items() if not was and e in slot]
        self.tau += apply_sample_delta(self._adj, removed, added)

    # -- queries -----------------------------------------------------------
    def population(self) -> int:
        """``s + d_i + d_o``: the population the sample is uniform over."""
        return self.s + self.d_i + self.d_o

    def triangle_estimate(self) -> float:
        """Unbiased estimate of the current graph's triangle count."""
        pop = self.population()
        if pop < 3:
            return 0.0
        omega = min(self.memory, pop)
        if omega < 3:
            return 0.0
        p = 1.0
        for j in range(3):
            p *= (omega - j) / (pop - j)
        return self.tau / p

    # -- checkpoint/ship surface -------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot: counters, the sample in slot order, the rng state."""
        edges = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
        return {
            "memory": self.memory,
            "t": self.t,
            "s": self.s,
            "d_i": self.d_i,
            "d_o": self.d_o,
            "tau": self.tau,
            "edges": edges,
            "rng": self._rng.getstate(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        memory = int(state["memory"])
        if memory < 1:
            raise InvalidParameterError(f"memory must be >= 1, got {memory}")
        self.memory = memory
        self.t = int(state["t"])
        self.s = int(state["s"])
        self.d_i = int(state["d_i"])
        self.d_o = int(state["d_o"])
        self.tau = int(state["tau"])
        self._edges = [tuple(row) for row in np.asarray(state["edges"]).tolist()]
        self._slot = {edge: i for i, edge in enumerate(self._edges)}
        self._adj = {}
        for u, v in self._edges:
            self._adj.setdefault(u, set()).add(v)
            self._adj.setdefault(v, set()).add(u)
        if state.get("rng") is not None:
            self._rng.setstate(state["rng"])


class TriestFdCounter:
    """A pool of independent TRIÈST-FD reservoirs, averaged.

    The registry estimator: ``num_estimators`` independent samplers
    sharing every batch, their estimates averaged -- the same pooling
    contract as every other estimator, so checkpointing, sharded
    merge-by-concatenation, and live snapshots work unchanged.
    """

    #: Turnstile-capable: honours the ``+1``/``-1`` sign column.
    supports_deletions = True

    def __init__(
        self, num_estimators: int, memory: int, *, seed: int | None = None
    ) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        sources = spawn_sources(seed, num_estimators)
        self._samplers = [TriestFdSampler(memory, rng=src) for src in sources]
        self.memory = memory
        self.edges_seen = 0  # stream events (inserts + deletes)

    @property
    def num_estimators(self) -> int:
        return len(self._samplers)

    def update_batch(self, batch: Sequence) -> None:
        """Observe one batch, signed or plain.

        Plain sequences of ``(u, v)`` pairs or ``(u, v, sign)`` triples
        are validated into an :class:`~repro.streaming.batch.EdgeBatch`
        first; its rows become tuples once and every sampler shares them.
        """
        from ..streaming.batch import EdgeBatch

        batch = EdgeBatch.from_edges(batch)
        rows = batch.tuples()
        signs = None if batch.signs is None else batch.signs.tolist()
        for sampler in self._samplers:
            sampler.update_rows(rows, signs)
        self.edges_seen += len(rows)

    def state_dict(self) -> dict:
        """Snapshot: every sampler, in pool order."""
        return {
            "memory": self.memory,
            "edges_seen": self.edges_seen,
            "samplers": [s.state_dict() for s in self._samplers],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot, adopting its memory and pool wholesale."""
        samplers = []
        for sampler_state in state["samplers"]:
            sampler = TriestFdSampler(int(state["memory"]))
            sampler.load_state_dict(sampler_state)
            samplers.append(sampler)
        if not samplers:
            raise InvalidParameterError("state dict holds no samplers")
        self._samplers = samplers
        self.memory = int(state["memory"])
        self.edges_seen = int(state["edges_seen"])

    def merge(self, other: "TriestFdCounter") -> None:
        """Absorb ``other``'s sampler pool (same stream, same memory)."""
        if other.memory != self.memory:
            raise InvalidParameterError(
                f"cannot merge memory {other.memory} into memory {self.memory}"
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


def apply_sample_delta(
    adj: dict[int, set[int]], removed: Iterable, added: Iterable
) -> int:
    """Move a sampled adjacency across a net change; return ``tau``'s change.

    Each removed edge leaves first and uncounts the sampled triangles it
    closed; each added edge then counts the triangles it closes. The
    sampled triangle count is a function of the sampled edge set alone,
    so one pass over a batch's net change lands on exactly the count the
    per-event updates would have reached.
    """
    delta = 0
    for u, v in removed:
        nu, nv = adj[u], adj[v]
        nu.discard(v)
        nv.discard(u)
        delta -= len(nu & nv)
        if not nu:
            del adj[u]
        if not nv:
            del adj[v]
    for u, v in added:
        nu, nv = adj.setdefault(u, set()), adj.setdefault(v, set())
        delta += len(nu & nv)
        nu.add(v)
        nv.add(u)
    return delta
