"""Mattson stack distances: LRU fault counts for *all* cache sizes at once.

The LRU stack distance (reuse distance) of an access is the number of
distinct pages referenced since the previous access to the same page; an
access faults in an LRU cache of capacity ``c`` iff its distance exceeds
``c``. One pass therefore yields the *entire* miss-ratio curve — the tool
behind every "what if RAM were bigger" question in the paper's cost model,
and a cross-check for :class:`~repro.paging.PageCache` with LRU.

Implementation: everything is read off the previous-occurrence links
``prev`` (:func:`occurrence_links`, shared with the array engine's
:class:`~repro.mmu.array_engine.StreamKernel` and the working-set code).
With ``p = prev[i]``, the distance is the number of ``j`` in ``(p, i)``
whose own previous occurrence lies at or before ``p``; every ``j <= p``
qualifies, so ``d(i) = #{j < i : prev[j] <= p} - (p + 1)``, a prefix-rank
query that a wavelet matrix over ``prev`` answers for every access at
once: O(n log n) time in ``log2 n`` vectorized passes, O(n) space.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stack_distances", "lru_miss_curve", "occurrence_links", "prev_occurrence", "COLD"]

#: Stack distance reported for first-ever (compulsory) accesses.
COLD = -1


def _same_key_pairs(keys) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, a, b)``: the length of *keys* and every pair of consecutive
    positions ``a < b`` holding the same key, from one sort of the
    composite ``key * n + position``, in int32 when it fits.  Keys that
    are negative or too large for an int64 composite are ranked densely
    first, which leaves every pair unchanged."""
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.size
    maxkey = int(keys.max()) + 1 if n else 1
    if n and (maxkey * n > 2**63 or keys.min() < 0):
        keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
        maxkey = int(keys.max()) + 1
    dt = np.int32 if maxkey * n + n < 2**31 else np.int64
    comp = keys.astype(dt) * dt(n) + np.arange(n, dtype=dt)
    comp.sort()
    skey = comp // dt(n)
    spos = (comp - skey * dt(n)).astype(np.int32)
    w = (skey[1:] == skey[:-1]).nonzero()[0]
    return n, spos[w], spos[w + 1]


def _prev_links(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prev = np.full(n, -1, dtype=np.int32)
    prev[b] = a
    return prev


def occurrence_links(keys) -> tuple[np.ndarray, np.ndarray]:
    """``(prev, nxt)``, int32: the last position before ``i`` and the first
    after it that hold ``keys[i]``, or ``-1`` and ``n`` where there is none.

    Each pair ``(a, b)`` of consecutive same-key positions (one sort, see
    :func:`_same_key_pairs`) gives ``prev[b] = a`` and ``nxt[a] = b``.
    """
    n, a, b = _same_key_pairs(keys)
    nxt = np.full(n, n, dtype=np.int32)
    nxt[a] = b
    return _prev_links(n, a, b), nxt


def prev_occurrence(keys) -> np.ndarray:
    """The ``prev`` links of :func:`occurrence_links` alone, from the same
    sort, without building ``nxt``."""
    return _prev_links(*_same_key_pairs(keys))


def _count_smaller_before(v: np.ndarray) -> np.ndarray:
    """``r[i] = #{j < i : v[j] < v[i]}`` for a non-negative int32 array.

    A wavelet matrix, one level per bit from the top: each level counts,
    for every element whose bit is 1, the elements before it in its group
    (same higher bits) whose bit is 0, then stably partitions all elements
    by the bit, zeros first.  A slot holds ``value << 32 | index``, so one
    gather moves both; ``start`` is the slot where its group begins.
    """
    n = v.size
    slots = (v.astype(np.int64) << 32) | np.arange(n)
    rank = np.zeros(n, dtype=np.int32)
    start = np.zeros(n, dtype=np.int32)
    for b in reversed(range(int(v.max(initial=0)).bit_length())):
        one = (slots & (1 << (b + 32))) != 0
        zero = ~one
        incl = zero.cumsum(dtype=np.int32)
        before = incl - zero  # zeros in the slots before each slot
        zs = before[start]
        rank += (before - zs) * one
        start = np.where(one, incl[-1] - zs + start, zs)
        perm = one.argsort(kind="stable")
        slots, rank, start = slots[perm], rank[perm], start[perm]
    out = np.empty(n, dtype=np.int32)
    out[slots & 0xFFFFFFFF] = rank
    return out


def stack_distances(trace, prefix=()) -> np.ndarray:
    """LRU stack distance of every access (``COLD`` = first touch).

    A distance of ``d`` means ``d`` distinct *other* pages were touched
    since the previous access to this page, so the access hits in any LRU
    cache of capacity > d (i.e. capacity >= d+1).

    *prefix* is a warm LRU order, oldest first: its keys count as touched
    before the trace, so a trace access to one of them gets a distance
    instead of ``COLD``.  Only the trace's distances are returned.
    """
    keys = np.asarray(trace, dtype=np.int64)
    R = len(prefix)
    if R:
        keys = np.concatenate((np.asarray(prefix, dtype=np.int64), keys))
    v = prev_occurrence(keys) + np.int32(1)
    d = _count_smaller_before(v) - v
    d[v == 0] = COLD
    return d[R:].astype(np.int64)


def lru_miss_curve(trace, capacities) -> dict[int, int]:
    """LRU fault count for every capacity in *capacities*, in one pass.

    Equivalent to running :class:`~repro.paging.PageCache` with
    :class:`~repro.paging.LRUPolicy` once per capacity, but O(n log n)
    total instead of O(n · |capacities|).
    """
    capacities = sorted(set(int(c) for c in capacities))
    if any(c <= 0 for c in capacities):
        raise ValueError("capacities must be positive")
    dists = stack_distances(trace)
    cold = int((dists == COLD).sum())
    warm = dists[dists != COLD]
    # access with distance d misses iff capacity <= d
    hist = np.bincount(warm, minlength=1)
    cum_hits = np.cumsum(hist)  # cum_hits[c-1] = hits with distance < c
    out = {}
    n_warm = len(warm)
    for c in capacities:
        hits = int(cum_hits[min(c - 1, len(cum_hits) - 1)]) if len(cum_hits) else 0
        out[c] = cold + (n_warm - hits)
    return out
