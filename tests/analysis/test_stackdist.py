"""Tests for Mattson stack distances, the one-pass LRU miss curve, and the
occurrence links both are read off."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import COLD, lru_miss_curve, stack_distances
from repro.analysis.stackdist import occurrence_links, prev_occurrence
from repro.paging import LRUPolicy, PageCache


def _links_reference(keys):
    """``(prev, nxt)`` by walking the stream with a dict of last positions."""
    n = len(keys)
    prev, nxt = [-1] * n, [n] * n
    last = {}
    for i, key in enumerate(keys):
        j = last.get(key)
        if j is not None:
            prev[i] = j
            nxt[j] = i
        last[key] = i
    return prev, nxt


#: key offsets that steer the composite sort: small keys fit an int32
#: composite, keys near 2**40 need int64, and keys near +-2**62 (whose
#: composite overflows int64) or negative keys are ranked densely first.
COMPOSITE_OFFSETS = (0, 1 << 40, (1 << 62) - 40, -(1 << 62), -20)


class TestOccurrenceLinks:
    @pytest.mark.parametrize("offset", COMPOSITE_OFFSETS)
    @given(keys=st.lists(st.integers(0, 40), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_dict_walk(self, offset, keys):
        keys = [offset + k for k in keys]
        prev, nxt = occurrence_links(np.asarray(keys, dtype=np.int64))
        assert prev.dtype == nxt.dtype == np.int32
        assert (prev.tolist(), nxt.tolist()) == _links_reference(keys)
        assert np.array_equal(prev_occurrence(keys), prev)

    @given(st.lists(st.integers(-3, 12), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_prev_and_nxt_are_mutual_inverses(self, keys):
        prev, nxt = occurrence_links(keys)
        assert np.array_equal(prev_occurrence(keys), prev)
        n = len(keys)
        repeats = np.flatnonzero(prev >= 0)
        followed = np.flatnonzero(nxt < n)
        assert np.array_equal(nxt[prev[repeats]], repeats)
        assert np.array_equal(prev[nxt[followed]], followed)
        assert repeats.size == followed.size == n - len(set(keys))

    def test_empty_and_one_element(self):
        prev, nxt = occurrence_links([])
        assert prev.shape == nxt.shape == (0,)
        assert prev.dtype == nxt.dtype == np.int32
        assert prev_occurrence([]).shape == (0,)
        assert prev_occurrence([]).dtype == np.int32
        for key in (0, 7, -5, (1 << 63) - 1):
            assert [a.tolist() for a in occurrence_links([key])] == [[-1], [1]]
            assert prev_occurrence([key]).tolist() == [-1]


class TestStackDistances:
    def test_cold_misses(self):
        d = stack_distances([1, 2, 3])
        assert list(d) == [COLD, COLD, COLD]

    def test_immediate_reuse(self):
        d = stack_distances([1, 1])
        assert d[1] == 0  # zero distinct others in between

    def test_textbook_example(self):
        d = stack_distances([1, 2, 3, 2, 1])
        assert d[3] == 1  # only page 3 since previous access to 2
        assert d[4] == 2  # pages 2 and 3 since previous access to 1

    def test_repeated_page_not_double_counted(self):
        d = stack_distances([1, 2, 2, 2, 1])
        assert d[4] == 1  # page 2 touched thrice but counts once

    def test_empty(self):
        assert len(stack_distances([])) == 0


def _lru_stack_reference(trace, prefix=()):
    """Distances read off an explicit LRU stack (MRU at the end)."""
    stack = OrderedDict.fromkeys(prefix)
    out = []
    for page in trace:
        if page in stack:
            keys = list(stack)
            out.append(len(keys) - 1 - keys.index(page))
            stack.move_to_end(page)
        else:
            out.append(COLD)
            stack[page] = None
    return out


class TestAgainstLRUStack:
    @given(
        st.lists(st.integers(0, 15), max_size=150),
        st.lists(st.integers(0, 20), max_size=25, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_with_warm_prefix(self, trace, prefix):
        # the prefix is a warm LRU order, oldest first; keys 16-20 are
        # never touched by the trace
        got = stack_distances(trace, prefix=prefix)
        assert got.tolist() == _lru_stack_reference(trace, prefix)

    def test_keys_beyond_the_int64_composite(self):
        # key * n overflows int64 for these keys, and negative keys break
        # the composite order: both are ranked densely first
        rng = np.random.default_rng(3)
        low = rng.integers(0, 50, 3000)
        trace = np.where(rng.random(3000) < 0.5, low, low + (1 << 62))
        trace[::7] = -trace[::7] - 1
        prefix = [int(trace[5]), (1 << 62) + 60, -7]
        expected = _lru_stack_reference(trace.tolist(), prefix)
        assert stack_distances(trace, prefix=prefix).tolist() == expected


class TestLRUMissCurve:
    def test_matches_pagecache_exactly(self):
        rng = np.random.default_rng(0)
        trace = rng.zipf(1.3, 4000) % 80
        capacities = [1, 2, 4, 8, 16, 32, 64]
        curve = lru_miss_curve(trace, capacities)
        for c in capacities:
            cache = PageCache(c, LRUPolicy())
            expected = sum(0 if cache.access(int(p)) else 1 for p in trace)
            assert curve[c] == expected, f"mismatch at capacity {c}"

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 50, 3000)
        curve = lru_miss_curve(trace, range(1, 60))
        values = [curve[c] for c in sorted(curve)]
        assert values == sorted(values, reverse=True)

    def test_big_cache_only_cold_misses(self):
        trace = [1, 2, 3, 1, 2, 3, 1]
        curve = lru_miss_curve(trace, [10])
        assert curve[10] == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            lru_miss_curve([1, 2], [0])

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_property_matches_simulation(self, trace):
        curve = lru_miss_curve(trace, [3])
        cache = PageCache(3, LRUPolicy())
        expected = sum(0 if cache.access(p) else 1 for p in trace)
        assert curve[3] == expected
