"""Unit suite for the persistent watch-index delta/compaction life cycle.

The index contract (see :mod:`repro.core.watch_index`): every live
entry is findable through any mix of tiers (sorted base with optional
dense offsets + bitmap, sorted run, unsorted tail); deletions are lazy
(stale entries may over-report but never under-report, and
``note_stale`` only feeds the compaction budget); ``rebuild`` resets
everything from the authoritative state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.watch_index import WatchIndex, _expand_ranges


class TinyTail(WatchIndex):
    """A tail of 8 forces run merges in small tests."""

    __slots__ = ()
    _TAIL_MAX = 8


def lookup_pairs(index, keys):
    slots, qidx = index.lookup(np.asarray(sorted(set(keys)), dtype=np.int64))
    query = sorted(set(keys))
    return sorted((int(query[q]), int(s)) for s, q in zip(slots, qidx))


def reference_pairs(entries, keys):
    keyset = set(keys)
    return sorted((int(k), int(s)) for k, s in entries if k in keyset)


class TestLifecycle:
    def test_insert_and_query(self):
        idx = WatchIndex()
        idx.add(np.array([5, 3, 5], dtype=np.int64), np.array([0, 1, 2], dtype=np.int64))
        assert lookup_pairs(idx, [3, 5, 7]) == [(3, 1), (5, 0), (5, 2)]
        assert idx.size == 3
        assert idx.delta_size == 3

    def test_replace_leaves_stale_entry_and_counts_churn(self):
        # "Replace" is add-new + note_stale(old): the old entry remains
        # visible (caller filters liveness) and churn reflects both.
        idx = WatchIndex()
        idx.add(np.array([4], dtype=np.int64), np.array([7], dtype=np.int64))
        churn_before = idx.churn
        idx.add(np.array([9], dtype=np.int64), np.array([7], dtype=np.int64))
        idx.note_stale(1)
        assert lookup_pairs(idx, [4, 9]) == [(4, 7), (9, 7)]  # stale 4 still reported
        assert idx.churn == churn_before + 2  # one add + one tombstone

    def test_tombstones_are_never_materialized(self):
        idx = WatchIndex()
        idx.add(np.array([1, 2], dtype=np.int64), np.array([0, 1], dtype=np.int64))
        idx.note_stale(2)
        # note_stale alone never removes anything...
        assert lookup_pairs(idx, [1, 2]) == [(1, 0), (2, 1)]
        # ...only a rebuild (from the authoritative live set) drops them.
        idx.rebuild(np.array([2], dtype=np.int64), np.array([1], dtype=np.int64))
        assert lookup_pairs(idx, [1, 2]) == [(2, 1)]
        assert idx.churn == 0

    def test_compaction_preserves_lookup_results(self):
        idx = TinyTail()
        entries = [(k % 11, k % 5) for k in range(60)]
        for k, s in entries:  # one-by-one: exercises tail -> run merges
            idx.add(np.array([k], dtype=np.int64), np.array([s], dtype=np.int64))
        before = lookup_pairs(idx, range(12))
        assert before == reference_pairs(entries, range(12))
        idx.consolidate()
        assert idx.delta_size == 0
        assert lookup_pairs(idx, range(12)) == before

    def test_rebuild_resets_counters(self):
        idx = WatchIndex()
        idx.add(np.array([1], dtype=np.int64), np.array([2], dtype=np.int64))
        idx.note_stale(5)
        assert idx.churn == 6
        idx.rebuild(np.array([8], dtype=np.int64), np.array([3], dtype=np.int64))
        assert idx.churn == 0
        assert lookup_pairs(idx, [1, 8]) == [(8, 3)]

    def test_empty_queries_and_empty_index(self):
        idx = WatchIndex()
        slots, qidx = idx.lookup(np.array([1, 2], dtype=np.int64))
        assert slots.shape == qidx.shape == (0,)
        idx.add(np.array([1], dtype=np.int64), np.array([0], dtype=np.int64))
        slots, qidx = idx.lookup(np.empty(0, dtype=np.int64))
        assert slots.shape == (0,)


class TestRepresentations:
    """The packed / split / dense-offset base forms must agree."""

    def test_dense_offsets_and_bitmap_built_for_compact_keys(self):
        idx = WatchIndex()
        idx.rebuild(np.array([3, 1, 3], dtype=np.int64), np.array([0, 1, 2], dtype=np.int64))
        assert idx._offsets is not None
        assert idx._bitmap is not None
        assert lookup_pairs(idx, [0, 1, 2, 3]) == [(1, 1), (3, 0), (3, 2)]

    def test_wide_keys_fall_back_to_split_arrays(self):
        keys = np.array([1 << 62, (1 << 62) + 5], dtype=np.int64)
        idx = WatchIndex()
        idx.rebuild(keys, np.array([4, 9], dtype=np.int64))
        assert idx._offsets is None
        assert idx._packed.shape[0] == 0  # cannot pack 62-bit keys + slots
        slots, qidx = idx.lookup(np.sort(keys))
        assert sorted(slots.tolist()) == [4, 9]

    def test_bitmap_grows_past_span_and_drops_past_bound(self):
        idx = WatchIndex()
        idx.rebuild(np.array([2, 4], dtype=np.int64), np.array([0, 1], dtype=np.int64))
        assert idx._bitmap is not None
        idx.add(np.array([3], dtype=np.int64), np.array([2], dtype=np.int64))
        assert idx._bitmap is not None  # in-span: incrementally marked
        assert lookup_pairs(idx, [2, 3, 4]) == [(2, 0), (3, 2), (4, 1)]
        far = int(idx._bitmap_hi) + 100
        idx.add(np.array([far], dtype=np.int64), np.array([3], dtype=np.int64))
        assert idx._bitmap is not None  # past the span: grown, not dropped
        assert idx._bitmap_hi > far
        assert lookup_pairs(idx, [2, far]) == [(2, 0), (far, 3)]
        huge = WatchIndex._BITMAP_MIN + 7
        idx.add(np.array([huge], dtype=np.int64), np.array([4], dtype=np.int64))
        assert idx._bitmap is None  # past the memory bound: prefilter off
        assert lookup_pairs(idx, [2, far, huge]) == [(2, 0), (far, 3), (huge, 4)]

    def test_bitmap_without_dense_offsets_for_sparse_keys(self):
        # Keys spread 16x wider than the offsets allow still get the
        # standalone membership bitmap (a vertex watch over a vertex
        # space much larger than the pool).
        keys = np.arange(0, 1 << 20, 1 << 10, dtype=np.int64)
        idx = WatchIndex()
        idx.rebuild(keys, np.arange(keys.shape[0], dtype=np.int64))
        assert idx._offsets is None
        assert idx._bitmap is not None
        assert lookup_pairs(idx, [0, 1, 1 << 10, 5000]) == [(0, 0), (1 << 10, 1)]

    @settings(deadline=None, max_examples=60)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 30)), max_size=60
        ),
        queries=st.lists(st.integers(0, 45), max_size=30),
        offset=st.sampled_from([0, 1 << 20, 1 << 45]),
        tail_max=st.sampled_from([2, 8, 1 << 20]),
    )
    def test_lookup_matches_reference_across_forms(
        self, entries, queries, offset, tail_max
    ):
        class Sized(WatchIndex):
            __slots__ = ()
            _TAIL_MAX = tail_max

        idx = Sized()
        shifted = [(k + offset, s) for k, s in entries]
        half = len(shifted) // 2
        if half:
            idx.rebuild(
                np.array([k for k, _ in shifted[:half]], dtype=np.int64),
                np.array([s for _, s in shifted[:half]], dtype=np.int64),
            )
        for k, s in shifted[half:]:
            idx.add(np.array([k], dtype=np.int64), np.array([s], dtype=np.int64))
        shifted_queries = [q + offset for q in queries]
        assert lookup_pairs(idx, shifted_queries) == reference_pairs(
            shifted, shifted_queries
        )


class TestExpandRanges:
    def test_expands_and_tags_ranges(self):
        lo = np.array([0, 3, 3, 7], dtype=np.int64)
        hi = np.array([2, 3, 6, 8], dtype=np.int64)
        pos, qidx = _expand_ranges(lo, hi)
        assert pos.tolist() == [0, 1, 3, 4, 5, 7]
        assert qidx.tolist() == [0, 0, 2, 2, 2, 3]

    def test_all_empty(self):
        pos, qidx = _expand_ranges(
            np.array([4], dtype=np.int64), np.array([4], dtype=np.int64)
        )
        assert pos.shape == qidx.shape == (0,)


class SmallBitmap(WatchIndex):
    """Bitmap bounds scaled down so short sequences cross them."""

    __slots__ = ()
    _TAIL_MAX = 8
    _BITMAP_MIN = 32
    _BITMAP_FACTOR = 8


# Mostly keys near the bitmap's span (growth), some far past its bound
# (fallback).
_keys = st.one_of(st.integers(0, 150), st.integers(0, 150), st.integers(0, 5000))
_entries = st.lists(st.tuples(_keys, st.integers(0, 40)), min_size=1, max_size=6)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _entries),
        st.tuples(st.just("stale"), st.integers(0, 5)),
        st.tuples(st.just("rebuild"), st.integers(0, 60)),
        st.tuples(st.just("lookup"), st.lists(_keys, max_size=20)),
    ),
    max_size=40,
)


@settings(deadline=None, max_examples=200)
@given(initial=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40))), ops=_ops)
def test_bounded_bitmap_against_dict_reference(initial, ops):
    """Random add/note_stale/rebuild/lookup sequences against a dict.

    Keys run past the bitmap's span (forcing doubling growth) and past
    its memory bound (forcing the fallback); every lookup must report
    every held entry for a queried key and nothing for unqueried keys,
    and the bitmap must respect its bound and show up in ``nbytes()``.
    """
    idx = SmallBitmap()
    held: dict[int, set[int]] = {}

    def rebuild(pairs):
        idx.rebuild(
            np.array([k for k, _ in pairs], dtype=np.int64),
            np.array([s for _, s in pairs], dtype=np.int64),
        )
        held.clear()
        for k, s in pairs:
            held.setdefault(k, set()).add(s)

    rebuild(initial)
    for op, arg in ops:
        if op == "add":
            idx.add(
                np.array([k for k, _ in arg], dtype=np.int64),
                np.array([s for _, s in arg], dtype=np.int64),
            )
            for k, s in arg:
                held.setdefault(k, set()).add(s)
        elif op == "stale":
            idx.note_stale(arg)
        elif op == "rebuild":
            # The authoritative live set: a prefix of what is held.
            rebuild(sorted((k, s) for k, ss in held.items() for s in ss)[:arg])
        else:
            query = sorted(set(arg))
            slots, qidx = idx.lookup(np.asarray(query, dtype=np.int64))
            got: dict[int, set[int]] = {}
            for s, q in zip(slots.tolist(), qidx.tolist()):
                got.setdefault(query[q], set()).add(s)
            assert got == {k: held[k] for k in query if k in held}
        bitmap = idx._bitmap
        if bitmap is not None:
            assert idx._bitmap_hi <= idx._bitmap_bound(idx.size)
            assert bitmap.shape[0] == idx._bitmap_hi + 1
            assert not bitmap[idx._bitmap_hi]  # clip sentinel
            assert all(bitmap[k] for k in held)
            assert idx.nbytes() >= bitmap.nbytes + 8 * idx.size


def test_nbytes_accounts_all_tiers():
    idx = TinyTail()
    assert idx.nbytes() == 0
    idx.rebuild(np.arange(100, dtype=np.int64), np.arange(100, dtype=np.int64))
    base_only = idx.nbytes()
    assert base_only > 0
    idx.add(np.arange(20, dtype=np.int64), np.arange(20, dtype=np.int64))
    assert idx.nbytes() > base_only
