"""Golden fingerprints: insert-only behavior is frozen, byte for byte.

The turnstile work threads an optional sign column through every layer
(parser, batches, transports, estimators). Its compatibility guarantee
is that *unsigned* input takes exactly the code paths it always took:
same parser output, same rng consumption, same estimator state down to
the last bit.

These tests pin SHA-256 fingerprints of (a) the chunked parser's output
over a written edge list and (b) every pre-turnstile estimator's full
``state_dict`` after a fixed pipeline run. The hashes were captured on
the tree *before* the sign column existed; if any of them moves, an
insert-only code path changed behavior, which is a bug in whatever
claimed to be a pure extension.

The two deletion-capable estimators have their own goldens
(:data:`TURNSTILE_GOLDEN`), captured before their hot loops were made
batch-native: per-event reservoir decisions with ``tau`` maintained per
batch from the sample's net change must reproduce the per-event loop
bit for bit -- same rng consumption, same slot order, same ``tau``,
``d_i``/``d_o`` and hash coefficients -- at every batch size.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.generators import holme_kim
from repro.graph import write_edge_list
from repro.graph.io import iter_edge_array_chunks
from repro.streaming import Pipeline

EDGES = holme_kim(250, 3, 0.5, seed=4)

SMALL_POOLS = {
    "count": 64,
    "transitivity": 48,
    "wedges": 32,
    "sample": 32,
    "exact": 1,
    "cliques4": 8,
    "cliques": 6,
    "sliding-window": 6,
    "timed-window": 6,
}
SMALL_OPTIONS = {
    "sliding-window": {"window": 512},
    "timed-window": {"horizon": 512.0},
}

#: Captured before the signed/turnstile layer existed. Do not refresh
#: these to make a failure pass -- a mismatch means an insert-only code
#: path changed behavior.
GOLDEN = {
    "__parser__": "8e1533767333de26f920979229c9e62feb4d67f68715ca310a13ec6e16bd5b48",
    "cliques": "83ac89bfb4c6a029429f7365375cfdf4fba446726a44d5b83714c434db88e518",
    "cliques4": "96b4e1310963be1968bb4463dd9804f50304b1bb5f9c5c725a809ea03c560f27",
    "count": "fe2f43bd204b5f6ca19d78e4b8f6ccf289a3c819ee85cd2c8f15c7debcb11681",
    "exact": "8ae8f205f9b7bfc6c9cba6a566d1bca3f3ec3f09e614e7aedfb427288a0489bd",
    "sample": "33a87647b24d97bef13d97a082da11c33601b7b5a6650a586e2193410eca47fd",
    "sliding-window": "f39a419761c4452d0c01651cd469c8d5efdd5f8a16cfaf5e3bd3173487c98d57",
    "timed-window": "76e97ad0c7e27ded2eb8b8a67d7e356d105f4ac11de31753c4ebed0394c277d8",
    # Re-pinned once, on purpose, when transitivity moved to one
    # estimator pool (zeta' read from the triangle pool's counters):
    # the state_dict lost its "triangles"/"wedges" split and the second
    # pool's draws. Licensed by the kappa/zeta accuracy legs in
    # tests/test_transitivity.py::TestTransitivityAccuracy.
    "transitivity": "4396150777f5617e7760a178ba0058fc722b78419addefcdb438ff5f56c25d16",
    "wedges": "a4d87c181d1608e21b65db3066a60934a899128f64972ec54eaef90f3deb7834",
}


def turnstile_golden_events(n=3000, vertices=40, seed=41):
    """A fixed signed stream that drives every turnstile branch.

    Besides fresh inserts and deletes of present edges it re-inserts
    present edges (idempotent for a sampled edge, a ``d_o``-pairing or
    reservoir step otherwise) and deletes absent ones (``d_o += 1``).
    """
    rng = random.Random(seed)
    present: set[tuple[int, int]] = set()
    events: list[tuple[int, int, int]] = []
    while len(events) < n:
        u, v = sorted(rng.sample(range(vertices), 2))
        roll = rng.random()
        if present and roll < 0.3:
            u, v = rng.choice(sorted(present))
            present.discard((u, v))
            events.append((u, v, -1))
        elif present and roll < 0.4:
            events.append((*rng.choice(sorted(present)), 1))
        elif roll < 0.45 and (u, v) not in present:
            events.append((u, v, -1))
        else:
            present.add((u, v))
            events.append((u, v, 1))
    # end on a run of deletions so the final state holds uncompensated
    # d_i / d_o counters
    events += [(u, v, -1) for u, v in sorted(present)[:40]]
    return events


TURNSTILE_EVENTS = turnstile_golden_events()

#: Sampling regime for the goldens: the reservoir is far smaller than
#: the edge population and the hash keeps about half the vertices.
TURNSTILE_POOLS = {"triest-fd": 8, "dynamic-sampler": 8}
TURNSTILE_OPTIONS = {"triest-fd": {"memory": 96}, "dynamic-sampler": {"p": 0.5}}

#: Captured on the per-event estimators, before their update became
#: batch-native. Do not refresh these to make a failure pass -- a
#: mismatch means the batched update changed rng consumption or state.
TURNSTILE_GOLDEN = {
    "dynamic-sampler": "58d1c12268b37b4f818841bed723ee60ea2fb73c156d421098669625f3345069",
    "triest-fd": "265614cc427a33046b4c4c2b088a12c5c81244d675db212c81615438d193fdcc",
}


def _feed(digest, value):
    if isinstance(value, np.ndarray):
        digest.update(b"nd")
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _feed(digest, value.item())
    elif isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value):
            digest.update(repr(key).encode())
            _feed(digest, value[key])
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    else:
        digest.update(repr(value).encode())


def state_fingerprint(state) -> str:
    digest = hashlib.sha256()
    _feed(digest, state)
    return digest.hexdigest()


class TestInsertOnlyGolden:
    def test_parser_output_unchanged(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(path, EDGES)
        digest = hashlib.sha256()
        for arr in iter_edge_array_chunks(path):
            _feed(digest, arr)
        assert digest.hexdigest() == GOLDEN["__parser__"]

    def test_every_pretained_estimator_state_unchanged(self):
        mismatches = {}
        for name, expected in GOLDEN.items():
            if name == "__parser__":
                continue
            pipe = Pipeline.from_registry(
                [name],
                num_estimators=SMALL_POOLS[name],
                seed=7,
                options={name: SMALL_OPTIONS.get(name, {})},
            )
            pipe.run(EDGES, batch_size=64)
            ((_, est),) = pipe._pairs
            got = state_fingerprint(est.state_dict())
            if got != expected:
                mismatches[name] = got
        assert not mismatches, (
            "insert-only estimator state drifted from the pre-turnstile "
            f"golden fingerprints: {mismatches}"
        )

    def test_journaled_run_and_replay_keep_golden_state(self, tmp_path):
        """Journaling is a pure tap on the stream: a journaled run and
        a replay of its journal both land on the pre-turnstile golden
        fingerprint -- journaling consumed no randomness and moved no
        batch boundary."""
        from repro.streaming import JournalSource

        name = "count"
        journal_dir = tmp_path / "jd"
        journaled = Pipeline.from_registry(
            [name], num_estimators=SMALL_POOLS[name], seed=7
        )
        journaled.run(EDGES, batch_size=64, journal_dir=journal_dir)
        ((_, est),) = journaled._pairs
        assert state_fingerprint(est.state_dict()) == GOLDEN[name]

        replayed = Pipeline.from_registry(
            [name], num_estimators=SMALL_POOLS[name], seed=7
        )
        replayed.run(JournalSource(journal_dir), batch_size=64)
        ((_, est),) = replayed._pairs
        assert state_fingerprint(est.state_dict()) == GOLDEN[name]


class TestTurnstileGolden:
    @pytest.mark.parametrize("batch_size", [1, 64, 4096])
    @pytest.mark.parametrize("name", sorted(TURNSTILE_GOLDEN))
    def test_deletion_capable_state_unchanged(self, name, batch_size):
        pipe = Pipeline.from_registry(
            [name],
            num_estimators=TURNSTILE_POOLS[name],
            seed=7,
            options={name: TURNSTILE_OPTIONS[name]},
        )
        pipe.run(TURNSTILE_EVENTS, batch_size=batch_size)
        ((_, est),) = pipe._pairs
        assert state_fingerprint(est.state_dict()) == TURNSTILE_GOLDEN[name]

    def test_golden_regime_samples(self):
        """The goldens pin a genuinely sampled regime: the population
        outgrows the reservoir, the final state holds uncompensated
        deletions, and the hash drops vertices."""
        pipe = Pipeline.from_registry(
            sorted(TURNSTILE_GOLDEN),
            num_estimators=2,
            seed=7,
            options=TURNSTILE_OPTIONS,
        )
        pipe.run(TURNSTILE_EVENTS, batch_size=64)
        states = {name: est.state_dict() for name, est in pipe._pairs}
        for sampler in states["triest-fd"]["samplers"]:
            population = sampler["s"] + sampler["d_i"] + sampler["d_o"]
            assert len(sampler["edges"]) <= 96 < population
            assert sampler["d_i"] + sampler["d_o"] > 0 and sampler["tau"] > 0
        for sampler in states["dynamic-sampler"]["samplers"]:
            assert 0 < len(sampler["edges"]) < sampler["s"]
