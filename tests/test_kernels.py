"""The numpy hot kernels' output contracts, kernel by kernel.

The engines' bit-identity guarantees (golden fingerprints, sparse ==
dense, resumed == uninterrupted) are asserted end to end in
``tests/test_vectorized_sparse.py``; this module pins each kernel's
own semantics where it lives: the batch-index kernels in
:mod:`repro.streaming.batch`, the watch-index kernels in
:mod:`repro.core.watch_index`, and the step-2/3 kernels in
:mod:`repro.core.vectorized`. Each kernel is checked twice: on small
hand-checked cases, and on seeded random inputs against a plain-Python
reference loop.
"""

import numpy as np
import pytest

from repro.core.vectorized import (
    _pack_edge_keys,
    _phi_from_draws,
    _step2_totals,
    _wedge_geometry,
)
from repro.core.watch_index import (
    _expand_ranges,
    _pack_sort_pairs,
    _packed_range_lookup,
    _sorted_range_lookup,
    _tail_probe,
)
from repro.streaming.batch import (
    _SORTED_QUERY_MIN,
    _lookup_sorted,
    _pack2_index_sort,
    _pack_index_sort,
)


class TestNumpyKernelContracts:
    """Each kernel's output contract, pinned on small hand-checked cases."""

    def test_lookup_sorted_hits_misses_offset(self):
        ref = np.array([2, 5, 9], dtype=np.int64)
        vals = np.array([10, 20, 30], dtype=np.int64)
        queries = np.array([5, 3, 9, 2, 11], dtype=np.int64)
        assert _lookup_sorted(queries, ref, vals).tolist() == [20, 0, 30, 10, 0]
        assert _lookup_sorted(queries, ref, vals, offset=1).tolist() == [21, 0, 31, 11, 0]

    def test_lookup_sorted_large_query_path_matches_small(self):
        """Past the sorted-query threshold the strategy switches; the
        answers must not."""
        rng = np.random.default_rng(0)
        ref = np.unique(rng.integers(0, 5000, 700).astype(np.int64))
        vals = rng.integers(1, 1 << 40, ref.shape[0]).astype(np.int64)
        queries = rng.integers(0, 5000, _SORTED_QUERY_MIN + 17).astype(np.int64)
        got = _lookup_sorted(queries, ref, vals, offset=3)
        table = dict(zip(ref.tolist(), vals.tolist()))
        assert got.tolist() == [table.get(int(q), -3) + 3 for q in queries]

    def test_expand_ranges_mixed_empties(self):
        lo = np.array([3, 7, 7, 0], dtype=np.int64)
        hi = np.array([5, 7, 9, 1], dtype=np.int64)
        positions, qidx = _expand_ranges(lo, hi)
        assert positions.tolist() == [3, 4, 7, 8, 0]
        assert qidx.tolist() == [0, 0, 2, 2, 3]

    def test_expand_ranges_all_empty(self):
        bound = np.array([4, 4], dtype=np.int64)
        positions, qidx = _expand_ranges(bound, bound)
        assert positions.shape == (0,) and qidx.shape == (0,)

    def test_packed_range_lookup(self):
        shift = np.int64(4)
        packed = np.sort(
            np.array([(1 << 4) | 2, (1 << 4) | 5, (3 << 4) | 0], dtype=np.int64)
        )
        queries = np.array([0, 1, 3], dtype=np.int64)
        slots, qidx = _packed_range_lookup(packed, shift, queries)
        assert slots.tolist() == [2, 5, 0]
        assert qidx.tolist() == [1, 1, 2]

    def test_sorted_range_lookup_duplicates(self):
        keys = np.array([1, 1, 2, 5, 5, 5], dtype=np.int64)
        queries = np.array([1, 4, 5], dtype=np.int64)
        positions, qidx = _sorted_range_lookup(keys, queries)
        assert positions.tolist() == [0, 1, 3, 4, 5]
        assert qidx.tolist() == [0, 0, 2, 2, 2]

    def test_tail_probe(self):
        queries = np.array([2, 6, 9], dtype=np.int64)
        tail = np.array([6, 1, 9, 2, 6], dtype=np.int64)
        tail_idx, qidx = _tail_probe(queries, tail)
        assert tail_idx.tolist() == [0, 2, 3, 4]
        assert qidx.tolist() == [1, 2, 0, 1]

    def test_pack_index_sort_is_a_stable_argsort(self):
        values = np.array([5, 1, 5, 0], dtype=np.int64)
        packed = _pack_index_sort(values, np.int64(2))
        assert (packed >> 2).tolist() == [0, 1, 5, 5]
        assert (packed & 3).tolist() == [3, 1, 0, 2]  # ties keep input order

    def test_pack2_index_sort_orders_hi_then_lo(self):
        hi = np.array([2, 1, 2], dtype=np.int64)
        lo = np.array([0, 9, 0], dtype=np.int64)
        packed = _pack2_index_sort(hi, lo, np.int64(4), np.int64(2))
        assert (packed & 3).tolist() == [1, 0, 2]

    def test_pack_sort_pairs(self):
        keys = np.array([7, 3, 7], dtype=np.int64)
        slots = np.array([1, 2, 0], dtype=np.int64)
        packed = _pack_sort_pairs(keys, slots, np.int64(2))
        assert (packed >> 2).tolist() == [3, 7, 7]
        assert (packed & 3).tolist() == [2, 0, 1]

    def test_pack_edge_keys_canonicalizes(self):
        a = np.array([5, 2], dtype=np.int64)
        c = np.array([2, 9], dtype=np.int64)
        assert _pack_edge_keys(a, c).tolist() == [(2 << 32) | 5, (2 << 32) | 9]

    def test_wedge_geometry(self):
        r1u = np.array([0, 3], dtype=np.int64)
        r1v = np.array([1, 4], dtype=np.int64)
        r2u = np.array([1, 5], dtype=np.int64)
        r2v = np.array([2, 3], dtype=np.int64)
        shared, out1, out2, keys = _wedge_geometry(r1u, r1v, r2u, r2v)
        assert shared.tolist() == [1, 3]
        assert out1.tolist() == [0, 4]
        assert out2.tolist() == [2, 5]
        assert keys.tolist() == [(0 << 32) | 2, (4 << 32) | 5]

    def test_phi_clamps_the_rounding_boundary(self):
        total = np.array([1 << 60], dtype=np.int64)
        assert _phi_from_draws(np.array([1.0]), total).tolist() == [1 << 60]
        assert _phi_from_draws(np.array([0.0]), total).tolist() == [1]

    def test_step2_totals(self):
        a, c_plus, total = _step2_totals(
            np.array([5], dtype=np.int64),
            np.array([4], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([10], dtype=np.int64),
        )
        assert (a.tolist(), c_plus.tolist(), total.tolist()) == ([3], [6], [16])


class TestKernelReferenceParity:
    """Randomized kernel-by-kernel agreement with plain-Python references.

    The hand-checked cases above pin each contract on a few entries;
    these drive every kernel with seeded random inputs (including the
    empty and threshold-crossing shapes) and compare value *and* dtype
    against a loop that states the contract directly.
    """

    SEEDS = [0, 1, 2]

    @staticmethod
    def assert_int64_equal(got, expected):
        got = np.asarray(got)
        assert got.dtype == np.int64
        assert got.tolist() == list(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lookup_sorted(self, seed):
        rng = np.random.default_rng(seed)
        ref = np.unique(rng.integers(0, 10_000, 500).astype(np.int64))
        vals = rng.integers(-(1 << 40), 1 << 40, ref.shape[0]).astype(np.int64)
        table = dict(zip(ref.tolist(), vals.tolist()))
        # 9000 queries crosses the sorted-query threshold: both
        # strategies must agree with the reference.
        for n in (0, 7, 9000):
            queries = rng.integers(0, 10_000, n).astype(np.int64)
            for offset in (0, 1):
                expected = [
                    table[q] + offset if q in table else 0 for q in queries.tolist()
                ]
                self.assert_int64_equal(
                    _lookup_sorted(queries, ref, vals, offset=offset), expected
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_expand_ranges(self, seed):
        rng = np.random.default_rng(seed)
        lo = np.sort(rng.integers(0, 50, 40)).astype(np.int64)
        hi = lo + rng.integers(0, 5, 40).astype(np.int64)
        positions, qidx = _expand_ranges(lo, hi)
        pairs = [
            (p, i) for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))
            for p in range(a, b)
        ]
        self.assert_int64_equal(positions, [p for p, _ in pairs])
        self.assert_int64_equal(qidx, [i for _, i in pairs])
        positions, qidx = _expand_ranges(lo, lo.copy())
        assert positions.shape == (0,) and qidx.shape == (0,)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_packed_range_lookup(self, seed):
        rng = np.random.default_rng(seed)
        shift = np.int64(12)
        keys = rng.integers(0, 200, 300).astype(np.int64)
        slots = rng.integers(0, 1 << 12, 300).astype(np.int64)
        packed = np.sort((keys << shift) | slots)
        queries = np.unique(rng.integers(0, 250, 50).astype(np.int64))
        got_slots, got_qidx = _packed_range_lookup(packed, shift, queries)
        entries = [(p >> 12, p & ((1 << 12) - 1)) for p in packed.tolist()]
        pairs = [
            (slot, i) for i, q in enumerate(queries.tolist())
            for key, slot in entries if key == q
        ]
        self.assert_int64_equal(got_slots, [s for s, _ in pairs])
        self.assert_int64_equal(got_qidx, [i for _, i in pairs])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sorted_range_lookup(self, seed):
        rng = np.random.default_rng(seed)
        sorted_keys = np.sort(rng.integers(0, 100, 400).astype(np.int64))
        queries = np.unique(rng.integers(0, 120, 60).astype(np.int64))
        positions, qidx = _sorted_range_lookup(sorted_keys, queries)
        pairs = [
            (p, i) for i, q in enumerate(queries.tolist())
            for p, key in enumerate(sorted_keys.tolist()) if key == q
        ]
        self.assert_int64_equal(positions, [p for p, _ in pairs])
        self.assert_int64_equal(qidx, [i for _, i in pairs])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tail_probe(self, seed):
        rng = np.random.default_rng(seed)
        queries = np.unique(rng.integers(0, 300, 80).astype(np.int64))
        where = {q: i for i, q in enumerate(queries.tolist())}
        for n in (0, 200):
            tail = rng.integers(0, 350, n).astype(np.int64)
            tail_idx, qidx = _tail_probe(queries, tail)
            pairs = [(t, where[k]) for t, k in enumerate(tail.tolist()) if k in where]
            self.assert_int64_equal(tail_idx, [t for t, _ in pairs])
            self.assert_int64_equal(qidx, [i for _, i in pairs])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pack_sorts(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        shift = np.int64(10)
        values = rng.integers(0, 1 << 31, n).astype(np.int64)
        self.assert_int64_equal(
            _pack_index_sort(values, shift),
            sorted((v << 10) | i for i, v in enumerate(values.tolist())),
        )
        hi = rng.integers(0, 1 << 20, n).astype(np.int64)
        lo = rng.integers(0, 1 << 8, n).astype(np.int64)
        self.assert_int64_equal(
            _pack2_index_sort(hi, lo, np.int64(8), shift),
            sorted(
                (((h << 8) | l_) << 10) | i
                for i, (h, l_) in enumerate(zip(hi.tolist(), lo.tolist()))
            ),
        )
        keys = rng.integers(0, 1 << 31, n).astype(np.int64)
        slots = rng.integers(0, 1 << 10, n).astype(np.int64)
        self.assert_int64_equal(
            _pack_sort_pairs(keys, slots, shift),
            sorted((k << 10) | s for k, s in zip(keys.tolist(), slots.tolist())),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_and_wedge_geometry(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        a = rng.integers(0, 1 << 31, n).astype(np.int64)
        c = rng.integers(0, 1 << 31, n).astype(np.int64)
        self.assert_int64_equal(
            _pack_edge_keys(a, c),
            [(min(x, y) << 32) | max(x, y) for x, y in zip(a.tolist(), c.tolist())],
        )
        shared = rng.integers(0, 1 << 31, n).astype(np.int64)
        out1 = rng.integers(0, 1 << 31, n).astype(np.int64)
        out2 = rng.integers(0, 1 << 31, n).astype(np.int64)
        flip1 = rng.random(n) < 0.5
        flip2 = rng.random(n) < 0.5
        r1u = np.where(flip1, shared, out1)
        r1v = np.where(flip1, out1, shared)
        r2u = np.where(flip2, shared, out2)
        r2v = np.where(flip2, out2, shared)
        got = _wedge_geometry(r1u, r1v, r2u, r2v)
        self.assert_int64_equal(got[0], shared.tolist())
        self.assert_int64_equal(got[1], out1.tolist())
        self.assert_int64_equal(got[2], out2.tolist())
        self.assert_int64_equal(
            got[3],
            [(min(x, y) << 32) | max(x, y) for x, y in zip(out1.tolist(), out2.tolist())],
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_phi_and_step2(self, seed):
        rng = np.random.default_rng(seed)
        totals = np.concatenate(
            [
                rng.integers(1, 1 << 62, 200).astype(np.int64),
                np.array([1, 1, 1 << 60], dtype=np.int64),
            ]
        )
        draws = np.concatenate(
            [rng.random(200), np.array([0.0, np.nextafter(1.0, 0.0), 1.0])]
        )
        expected = [
            min(1 + int(d * float(t)), t)
            for d, t in zip(draws.tolist(), totals.tolist())
        ]
        assert all(1 <= p <= t for p, t in zip(expected, totals.tolist()))
        self.assert_int64_equal(_phi_from_draws(draws, totals), expected)
        cols = [rng.integers(0, 1 << 30, 150).astype(np.int64) for _ in range(5)]
        a, c_plus, total = _step2_totals(*cols)
        deg_bx, deg_by, beta_x, beta_y, c_minus = (col.tolist() for col in cols)
        ref_a = [d - b for d, b in zip(deg_bx, beta_x)]
        ref_c_plus = [x + d - b for x, d, b in zip(ref_a, deg_by, beta_y)]
        self.assert_int64_equal(a, ref_a)
        self.assert_int64_equal(c_plus, ref_c_plus)
        self.assert_int64_equal(total, [m + p for m, p in zip(c_minus, ref_c_plus)])
