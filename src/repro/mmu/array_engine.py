"""Struct-of-arrays batch simulation engine, the default (``engine="array"``).

The object engine replays traces access by access through ``PageCache``
objects; this module replays one piece of a trace segment as numpy
array passes and synchronizes the object state once per piece, so
counters, replacement order, and clocks come out bit-identical to the
object engine (CI's engine-parity job enforces this on the golden streams).

:meth:`~repro.mmu.base.MemoryManagementAlgorithm.run` cuts every segment
into equal pieces of at most ``base._PIECE`` (2^14) accesses, so a
call's time and memory grow linearly with its length, and decides per
piece which engine serves it from one table, :data:`_FLOORS`: a piece
shorter than its class's floor stays on the object engine, where a short
call is cheaper.  :func:`try_run` serves exactly one piece, at any length.

The core identity: an LRU cache of capacity ``C`` hits access ``i`` iff
the *stack distance* — the number of distinct keys strictly between the
previous occurrence ``p`` of the same key and ``i`` — is below ``C``.
Stack distances reduce to 2-D dominance counts over the next-occurrence
chain ``nxt``::

    d(i) = D(i) - rank2(p, i)
    rank2(p, v) = #{j <= p : nxt[j] >= v} = (p + 1) - count_less(p, v)

where ``D(i)`` counts distinct keys before ``i``; both chains come out of
one sort (:func:`~repro.analysis.stackdist.occurrence_links`).
:class:`StreamKernel` resolves ``d(i) < C`` for every access with four
O(n) tests, each exact, and one exact stage for the repeats they leave open:

1. ``gap <= C`` is a sure hit (the window cannot hold ``C`` distinct);
2. ``D(i) <= C`` is a sure hit (the window holds at most ``D(i) - 1``
   distinct keys: every key seen before ``i`` but its own), so a stream
   whose footprint fits the cache never gets past this step;
3. first occurrences are sure misses;
4. ``D(i) - D(p) >= C`` is a sure miss (global first occurrences inside
   the window are all distinct there);
5. every other repeat goes to a blocked dominance grid over the points
   ``(j, nxt[j]) = (prev[x], x)``: its prefix-sum checkpoints bound
   ``count_less`` from both sides, and the queries the bounds leave open
   are counted exactly by scanning the two edge blocks around their
   checkpoint, a time block's row of ``nxt`` and a value block's of ``prev``.

Eviction *order* falls out of the same arrays: a position dies iff its
key's next occurrence is a miss (or it ages out of the final top-``C``),
and death positions sorted ascending are exactly the eviction sequence —
so schemes with eviction side effects (write-back flushes, decoupled
allocator frees) replay only their rare events through the object code.

A piece costs O(piece + evictions), not O(resident set): a warm cache
enters a kernel as a window of its LRU order (:func:`_warm_window`), and
the object state leaves it through one incremental step
(:meth:`StreamKernel.order_delta`), exact after every call.

A segment may interleave several address spaces.  With the MM's
``asid_ledgers`` bound, the two fold sites (:func:`_paged_fold`,
:func:`_run_decoupled`) credit each access to ASID
``key // asid_stride`` with a ``bincount`` over the hit masks they fold
into the machine's ledger (:func:`_fold_counts`).

The handlers follow the machines' two folds.  :func:`_paged_fold` serves
the physical-huge family: BasePageMM / PhysicalHugePageMM (pure counter
folds), WritebackHugePageMM (plus vectorized store sampling and
dirty-at-eviction replay) and NestedTranslationMM (plus the 2-D walk as a
derived LRU stream over page-table node keys).  :func:`_run_decoupled`
serves Theorem 4's ``Z``, DecoupledMM and its chunked HybridMM: RAM
misses replay sparsely through the real scheme, and a paging failure
mid-piece bails out with state synchronized at the failing access, so
``run`` finishes the piece on the object engine.  Every cache either
fold touches, Z's TLB over huge pages included, is a ``PageCache`` +
``LRUPolicy`` synced by one routine, :func:`_sync_cache`, which also
replays its miss-attribution ghost from the kernel's miss and death
positions, so an attributed segment stays on this engine.  Handlers are
keyed by exact class, so subclasses (which may redefine ``access``) never
match.
THPStyleMM stays on the object engine: promotion migrates frames through
a real allocator whose fragmentation is inherently sequential.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ..analysis.stackdist import occurrence_links
from ..paging import LRUPolicy, PageCache
from .classical import BasePageMM
from .decoupled import DecoupledMM
from .hugepage import PhysicalHugePageMM
from .hybrid import HybridMM
from .virtualized import NestedTranslationMM
from .writeback import WritebackHugePageMM

__all__ = ["StreamKernel", "supports", "try_run"]

# Tuning knobs (speed and memory only; results are exact at any value).
# The dominance grid uses _BT x _BV blocks, and its exact count runs its
# queries in blocks of at most _GRID_CELLS cells (a bound on the
# temporaries of the edge-block scans).
_BT = 128
_BV = 128
_GRID_CELLS = 1 << 16


class StreamKernel:
    """Exact batch LRU simulation of one integer key stream.

    Parameters
    ----------
    keys:
        Integer array of cache keys, one per access.
    prefix:
        Keys resident before the segment, oldest first (the LRU order of
        a warm cache).  They are modeled as pseudo-accesses before the
        stream and excluded from the counters.  The prefix may be a
        window of the cache (see :func:`_warm_window`): the caller then
        passes capacity ``C - |U|`` to every query, ``U`` being the
        residents left out.
    """

    def __init__(self, keys, prefix=()) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        self.R = R = len(prefix)
        self.n0 = len(keys)
        self.n = n = R + self.n0
        if R:
            allkeys = np.concatenate(
                [np.asarray(list(prefix), dtype=np.int64), keys]
            )
        else:
            allkeys = keys
        self.keys = allkeys
        self.prev, self.nxt = occurrence_links(allkeys)
        # D[i] = #global first occurrences in [0, i]; for a non-first
        # position i this equals the number of distinct keys in [0, i).
        self.D = np.cumsum(self.prev < 0, dtype=np.int32)
        self._pos = np.arange(n, dtype=np.int32)
        # long streams get coarser grid blocks: the checkpoint matrix
        # shrinks 4x while the per-query edge scans stay cheap
        self._bt, self._bv = (_BT, _BV) if n < (1 << 17) else (2 * _BT, 2 * _BV)
        self._ns = None
        self._grid = None
        # per-capacity answers, shared by a piece's handler and ghosts
        self._hit: dict[int, np.ndarray] = {}
        self._miss: dict[int, np.ndarray] = {}
        self._dies: dict[int, np.ndarray] = {}

    # ------------------------------------------------------ block grid

    def _ns_cumsum(self) -> np.ndarray:
        if self._ns is None:
            self._ns = np.cumsum(self.nxt < self.n, dtype=np.int32)
        return self._ns

    def _prepare_grid(self):
        if self._grid is None:
            n = self.n
            prev = self.prev
            bt, bv = self._bt, self._bv
            ntb = (n + bt - 1) // bt
            nvb = (n + bv - 1) // bv
            # the points (j, nxt[j]) are the pairs (prev[x], x) of repeats x
            x = np.flatnonzero(prev >= 0)
            M = np.bincount((prev[x] // bt).astype(np.int64) * nvb + x // bv, minlength=ntb * nvb)
            Acol = (
                M.astype(np.int32).reshape(ntb, nvb).cumsum(axis=0, dtype=np.int32)
            )
            A = Acol.cumsum(axis=1, dtype=np.int32)
            # A[a, b] = #points with j < (a+1)*BT and nxt[j] < (b+1)*BV;
            # Acol keeps the time-only prefix for the bucket-edge bound.
            # per-value-block rows of prev: block b's members are the
            # repeats in [b*BV, (b+1)*BV) (first occurrences and pads n)
            PB = np.full(nvb * bv, n, dtype=np.int32)
            PB[:n] = np.where(prev >= 0, prev, n)
            # per-time-block rows of nxt (pad n: never < any query value)
            NB = np.full(ntb * bt, n, dtype=np.int32)
            NB[:n] = self.nxt
            self._grid = (A, Acol, PB.reshape(nvb, bv), NB.reshape(ntb, bt))
        return self._grid

    def _grid_bounds(self, p: np.ndarray, v: np.ndarray):
        """Bounds on ``count_less(p, v) = #{j <= p : nxt[j] < v}``."""
        A, Acol = self._prepare_grid()[:2]
        tb = p // self._bt
        vbq = v // self._bv
        low = np.zeros(p.size, dtype=np.int32)
        ok = (tb > 0) & (vbq > 0)
        low[ok] = A[tb[ok] - 1, vbq[ok] - 1]
        # slack: non-sentinels in the partial time block [tb*BT, p], plus
        # members of value block vbq in earlier full time blocks
        ns = self._ns_cumsum()
        e_t = ns[p].copy()
        nz = tb > 0
        e_t[nz] -= ns[tb[nz] * self._bt - 1]
        e_v = np.zeros(p.size, dtype=np.int32)
        e_v[nz] = Acol[tb[nz] - 1, vbq[nz]]  # Acol is per-value-block
        return low, low + e_t + e_v

    def _grid_exact(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exact ``count_less`` for the queries the bounds left open, in
        blocks of rows whose edge-block temporaries hold at most
        ``_GRID_CELLS`` cells."""
        A, _Acol, PB, NB = self._prepare_grid()
        bt, bv = self._bt, self._bv
        tb = p // bt
        vbq = v // bv
        t0 = tb * np.int32(bt)
        vcut = v - vbq * np.int32(bv)
        out = np.zeros(p.size, dtype=np.int32)
        ok = (tb > 0) & (vbq > 0)
        out[ok] = A[tb[ok] - 1, vbq[ok] - 1]
        ar_t = np.arange(bt, dtype=np.int32)
        ar_v = np.arange(bv, dtype=np.int32)
        rows = max(_GRID_CELLS // max(bt, bv), 1)
        for lo in range(0, p.size, rows):
            b = slice(lo, lo + rows)
            # partial time block [t0, p]: members with nxt < v (pads excluded)
            out[b] += np.sum(
                (ar_t <= (p[b] - t0[b])[:, None]) & (NB[tb[b]] < v[b, None]),
                axis=1,
                dtype=np.int32,
            )
            # value block vbq: repeats in [vbq*BV, v) whose prev is < t0
            out[b] += np.sum(
                (PB[vbq[b]] < t0[b, None]) & (ar_v < vcut[b, None]),
                axis=1,
                dtype=np.int32,
            )
        return out

    # ------------------------------------------------------------ API

    def hit_mask(self, C: int) -> np.ndarray:
        """Boolean hit mask per position (prefix pseudo-accesses included).

        The four O(n) tests of the module docstring (gap, footprint, first
        occurrence, ``D``-difference) settle most repeats; the rest get
        the dominance grid's bounds on ``d``, and the ones those leave
        open its exact count.  The footprint bound holds at any capacity
        queried, the windowed warm start's ``C - |U|`` included.
        """
        got = self._hit.get(C)
        if got is not None:
            return got
        prev = self.prev
        D = self.D
        gap = self._pos - prev  # prev = -1 gives gap = i + 1
        nonfirst = prev >= 0
        sure = gap <= C
        # D is nondecreasing, so the footprint bound D(i) <= C holds on a
        # prefix of the stream
        sure[: np.searchsorted(D, C, side="right")] = True
        hit = nonfirst & sure
        amb = np.flatnonzero(nonfirst & ~sure).astype(np.int32)
        amb = amb[D[amb] - D[prev[amb]] < C]
        if amb.size:
            p = prev[amb]
            off = D[amb] - (p + 1)  # d = off + count_less(p, i)
            lo, hi = self._grid_bounds(p, amb)
            hit[amb[off + hi < C]] = True
            open_ = (off + lo < C) & (off + hi >= C)
            if open_.any():
                oq = amb[open_]
                d = off[open_] + self._grid_exact(p[open_], oq)
                hit[oq[d < C]] = True
        self._hit[C] = hit
        return hit

    def counts(self, C: int, T: int | None = None) -> tuple[int, int]:
        """``(hits, misses)`` over the real accesses before global position
        ``T`` (default: all of them)."""
        T = self.n if T is None else T
        hits = int(np.count_nonzero(self.hit_mask(C)[self.R : T]))
        return hits, T - self.R - hits

    def deaths(self, C: int) -> np.ndarray:
        """Positions whose residency ends in an eviction, ascending.

        Ascending death positions are the eviction sequence itself:
        ``keys[deaths(C)[e]]`` is the ``e``-th eviction's victim, because
        under LRU victims' last-access positions strictly increase over
        the run.
        """
        if C not in self._dies:
            nxt = self.nxt
            inner = nxt < self.n
            dies = np.zeros(self.n, dtype=bool)
            dies[inner] = ~self.hit_mask(C)[nxt[inner]]
            last = np.flatnonzero(~inner)
            if last.size > C:
                dies[last[:-C]] = True
            self._dies[C] = np.flatnonzero(dies)
        return self._dies[C]

    def miss_positions(self, C: int) -> np.ndarray:
        """Global positions (prefix coordinates included) of real misses."""
        if C not in self._miss:
            self._miss[C] = np.flatnonzero(~self.hit_mask(C)[self.R :]) + self.R
        return self._miss[C]

    def _last_touches(self, C: int, T: int) -> tuple[np.ndarray, np.ndarray]:
        """Each key's last touch before global position ``T``, split into
        ``(departed, resident)`` positions, both ascending: LRU keeps the
        newest ``C``."""
        last = np.flatnonzero(self.nxt[:T] >= T)
        cut = max(0, last.size - C)
        return last[:cut], last[cut:]

    def residents_at(self, C: int, T: int) -> np.ndarray:
        """Resident keys just before global position ``T``, oldest first."""
        return self.keys[self._last_touches(C, T)[1]]

    def order_delta(self, C: int, T: int | None = None):
        """What the accesses before global position ``T`` (default: the
        segment end) do to the warm LRU order, as two key arrays:
        ``departed``, every key seen before ``T`` but not resident there,
        and ``moved``, every key last touched in ``[R, T)`` and resident
        at ``T``, oldest first.

        Deleting the departed keys from the order and then moving each
        moved key to its MRU end yields the order just before ``T``;
        residents that were never in the prefix stay in place.  Both
        arrays are bounded by the kernel's distinct keys, not by the
        cache's resident count or its evictions.
        """
        departed, resident = self._last_touches(C, self.n if T is None else T)
        moved = resident[np.searchsorted(resident, self.R) :]
        return self.keys[departed], self.keys[moved]


# ---------------------------------------------------------------------------
# object-state synchronization helpers
# ---------------------------------------------------------------------------


def _plain_lru(cache) -> bool:
    return type(cache.policy) is LRUPolicy


def _warm_window(order, keys: np.ndarray, C: int) -> tuple[list, int]:
    """The warm-start prefix for a kernel over *keys* from LRU *order*
    (capacity *C*), and the capacity to query that kernel at.

    The prefix is a window: the oldest ``2n`` residents for an
    ``n``-access segment, then the residents the segment touches beyond
    them.  The rest, ``U``, are untouched residents with at least ``2n``
    older ones; a segment evicts at most ``n`` keys, each the oldest
    resident not yet touched, so ``U`` is never evicted and the kernel
    runs at capacity ``C - |U|``.  Every stack window that starts in the
    oldest ``2n`` spans all of ``U``, so its distance drops by exactly
    ``|U|``; one that starts at a touched resident beyond them holds
    fewer than ``2n <= C - |U|`` distinct keys, a hit either way (which
    is why their order in the prefix does not matter).  Hits, victims and
    victim order come out unchanged.
    """
    window = 2 * len(keys)
    if len(order) <= window:
        return list(order), C
    prefix = list(islice(order, window))
    oldest = set(prefix)
    prefix += [
        k for k in dict.fromkeys(keys.tolist()) if k in order and k not in oldest
    ]
    return prefix, C - (len(order) - len(prefix))


def _apply_delta(order, departed: list, moved: list) -> None:
    """Bring an LRU order forward by a kernel's :meth:`~StreamKernel.order_delta`."""
    pop = order.pop
    for key in departed:
        pop(key, None)
    move = order.move_to_end
    for key in moved:
        if key in order:
            move(key)
        else:
            order[key] = None


def _sync_cache(
    cache: PageCache,
    kernel: StreamKernel,
    C: int,
    done: int | None = None,
    decode=np.ndarray.tolist,
) -> tuple[list, list]:
    """Move a PageCache + LRUPolicy through the first *done* accesses of
    the kernel's segment (default: all of them), and replay its
    attribution ghost, if any, over the same accesses.  *decode* maps a
    key array back to the cache's keys.  Returns the order delta applied,
    ``(departed, moved)`` as decoded key lists."""
    T = kernel.n if done is None else kernel.R + done
    hits, misses = kernel.counts(C, T)
    cache.hits += hits
    cache.misses += misses
    cache.evictions += max(0, kernel.R + misses - C)
    cache._clock += hits + misses
    departed, moved = map(decode, kernel.order_delta(C, T))
    _apply_delta(cache.policy._order, departed, moved)
    if cache._ghost is not None:
        _replay_ghost(cache._ghost, kernel, C, T, decode)
    return departed, moved


# ---------------------------------------------------------------------------
# per-algorithm handlers
# ---------------------------------------------------------------------------


def _unit_stream(trace: np.ndarray, unit: int) -> np.ndarray:
    if unit == 1:
        return trace
    if unit & (unit - 1) == 0:
        return trace >> (unit.bit_length() - 1)
    return trace // unit


def _replay_ghost(ghost, kernel: StreamKernel, C: int, T: int, decode) -> None:
    """Feed a miss-attribution ghost the cache's exact miss and eviction
    sequence over the accesses before global position ``T``, derived
    sparsely from the kernel's miss positions and death positions, with
    keys mapped back through *decode*. The shared ``_SiteGhost.replay``
    bulk path keeps the classification bit-identical to the object
    replay's per-access order: the first ``C - R`` misses fill free
    capacity, and every later miss evicts the next entry of the ascending
    death sequence, the order in which ``PageCache.access`` calls its
    ghost."""
    mp = kernel.miss_positions(C)
    mp = mp[: np.searchsorted(mp, T)]
    if mp.size == 0:
        return
    victims = kernel.deaths(C)[: max(0, mp.size - (C - kernel.R))]
    ghost.replay(decode(kernel.keys[mp]), decode(kernel.keys[victims]))


def _fold_counts(mm, trace: np.ndarray, tlb_hit, ram_hit, io_unit: int) -> None:
    """Fold the accesses of *trace* into ``mm.ledger`` and, when bound,
    into ``mm.asid_ledgers``: one access apiece, a TLB hit or miss as the
    *tlb_hit* mask says, and *io_unit* IOs where the *ram_hit* mask is
    clear.  Access ``i`` is credited to ASID ``trace[i] // asid_stride``."""
    n = len(trace)
    misses = n - int(np.count_nonzero(tlb_hit))
    faults = n - int(np.count_nonzero(ram_hit))
    folds = [(mm.ledger, n, misses, faults)]
    credit = mm.asid_ledgers
    if credit is not None:
        asids = trace // mm.asid_stride
        k = len(credit)
        per_miss = np.bincount(asids[~tlb_hit], minlength=k).tolist()
        per_fault = np.bincount(asids[~ram_hit], minlength=k).tolist()
        folds += [
            (credit[asid], c, per_miss[asid], per_fault[asid])
            for asid, c in enumerate(np.bincount(asids, minlength=k).tolist())
            if c
        ]
    for ledger, c, m, f in folds:
        ledger.accesses += c
        ledger.tlb_misses += m
        ledger.tlb_hits += c - m
        ledger.ios += io_unit * f


def _paged_fold(mm, trace: np.ndarray) -> tuple[StreamKernel, int, StreamKernel, int]:
    """Shared TLB+RAM fold for the physical-huge-page family (and the
    nested MM's guest side): folds both caches' counters into the ledger
    (and the per-ASID ledgers) and syncs their object state and any
    attribution ghosts. Returns ``(tlb_kernel, tlb_capacity, ram_kernel,
    ram_capacity)`` — each kernel with the capacity it runs at — so
    handlers can reuse their miss and death sequences."""
    h = mm.translation_alignment()
    hpns = _unit_stream(trace, h)
    tp, tC = _warm_window(mm.tlb.policy._order, hpns, mm.tlb.capacity)
    rp, rC = _warm_window(mm.ram.policy._order, hpns, mm.ram.capacity)
    kern_t = StreamKernel(hpns, tp)
    # equal warm prefixes (every cold piece among them) share one kernel:
    # its hit masks are cached per capacity
    kern_r = kern_t if tp == rp else StreamKernel(hpns, rp)
    _fold_counts(
        mm, trace, kern_t.hit_mask(tC)[kern_t.R :], kern_r.hit_mask(rC)[kern_r.R :], h
    )
    _sync_cache(mm.tlb, kern_t, tC)
    _sync_cache(mm.ram, kern_r, rC)
    return kern_t, tC, kern_r, rC


def _run_hugepage(mm, trace: np.ndarray):
    if not (_plain_lru(mm.tlb) and _plain_lru(mm.ram)):
        return None
    _paged_fold(mm, trace)
    return len(trace)


def _run_writeback(mm, trace: np.ndarray):
    """Write-back: the paged fold plus store sampling and dirty flushes.

    ``Generator.random(n)`` draws the same sequence as ``n`` scalar
    calls, so the Bernoulli store model vectorizes without disturbing RNG
    parity (pinned by the engine-parity tests).  The ``e``-th eviction's
    victim comes from the kernel's death sequence; the victim is dirty
    iff a store hit it during its current residency — since its previous
    eviction, which cleared its dirty bit whether or not it flushed.
    """
    if not (_plain_lru(mm.tlb) and _plain_lru(mm.ram)):
        return None
    _kern_t, _tC, kern, C = _paged_fold(mm, trace)
    wf = mm.write_fraction
    marks = np.zeros(kern.n, dtype=bool)
    if wf:
        marks[kern.R :] = mm._rng.random(len(trace)) < wf
    # pages dirty at piece entry stay dirty until their next eviction:
    # mark their prefix pseudo-access as a store
    dirty_set = mm._dirty
    if dirty_set:
        for idx, key in enumerate(kern.keys[: kern.R].tolist()):
            if key in dirty_set:
                marks[idx] = True
    if not marks.any():
        return len(trace)  # no kernel key is dirty before or after
    # every store and every death, in position order, a store before the
    # death at its own position (a death position is the victim's last
    # access, so its store belongs to the residency the death ends)
    events = np.concatenate((np.flatnonzero(marks) << 1, (kern.deaths(C) << 1) | 1))
    events.sort()
    death = (events & 1).astype(bool)
    keys = kern.keys[events >> 1]
    prev, nxt = occurrence_links(keys)
    # a victim is dirty iff its key's previous event is a store: one since
    # its previous eviction, or since the piece began
    before = prev[death]
    nwb = int(np.count_nonzero((before >= 0) & ~death[before]))
    mm.ledger.extra["writebacks"] += nwb
    mm.ledger.extra["writeback_ios"] += nwb * mm.huge_page_size
    # final dirty set: the keys whose last event is a store (a key evicted
    # after its last store ends on a death).  Every dirty resident the
    # piece touches is in the prefix, and residents outside the window
    # keep their bits.
    dirty_set.difference_update(kern.keys[: kern.R].tolist())
    dirty_set.update(keys[(nxt == events.size) & ~death].tolist())
    return len(trace)


def _run_nested(mm, trace: np.ndarray):
    """Nested translation: guest TLB and RAM are LRU caches on the hpn
    stream; the 2-D walk becomes a derived LRU stream over page-table
    node keys ``(depth, prefix)``, encoded as ``prefix*(g+1) + depth``.
    The walk kernel starts from the whole ℓ-entry host TLB.  Declines,
    before any state moves, when a walk key of the segment or of the host
    TLB would not fit int64."""
    if not (_plain_lru(mm.tlb) and _plain_lru(mm.ram) and _plain_lru(mm.nested_tlb)):
        return None
    g = mm.guest_levels
    nt = mm.nested_tlb
    enc = [p * (g + 1) + d for (d, p) in nt.policy._order]
    # every walk key of the segment fits int64 if its extreme pages' do
    keys = enc + [int(trace.min()) * (g + 1), int(trace.max()) * (g + 1) + g]
    if min(keys) < -(1 << 63) or max(keys) >= 1 << 63:
        return None
    kern_t, tC, _kern_r, _rC = _paged_fold(mm, trace)
    ledger = mm.ledger
    # one walk per guest-TLB miss, in stream order: guest levels 1..g
    # touch (d, vpn >> (top - d*bits)), then the data page is (0, vpn)
    miss_idx = kern_t.miss_positions(tC) - kern_t.R
    if miss_idx.size:
        vm = trace[miss_idx]
        bits = mm.bits_per_level
        top = g * bits
        cols = [(vm >> max(top - d * bits, 0)) * (g + 1) + d for d in range(1, g + 1)]
        cols.append(vm * (g + 1))
        walk = np.stack(cols, axis=1).reshape(-1)
        kern_n = StreamKernel(walk, enc)
        n_misses = kern_n.counts(nt.capacity)[1]
        ledger.extra["host_tlb_misses"] += n_misses
        ledger.extra["walk_touches"] += g * miss_idx.size + mm.host_levels * n_misses

        def decode(enc: np.ndarray) -> list:
            return list(zip((enc % (g + 1)).tolist(), (enc // (g + 1)).tolist()))

        _sync_cache(nt, kern_n, nt.capacity, decode=decode)
    return len(trace)


def _run_decoupled(mm, trace: np.ndarray):
    """Batch path for Theorem 4's machine ``Z``: :class:`DecoupledMM` and
    its Section 8 hybrid, whose RAM keys are the *trace*'s ``chunk``-page
    units (the pages themselves at ``chunk = 1``).

    TLB and RAM counters fold from two kernels; the segment's whole RAM
    miss/eviction stream is applied in one bulk pass
    (``DecouplingScheme.apply_events`` → the vectorized balls-and-bins
    replay kernel) so ``φ``, the allocator, and ``ψ`` stay exact without
    a per-miss Python round-trip.  Returns None to decline, else the
    number of accesses completed: the full length normally, or — after a
    paging failure, whose costs recur per access — the index just past
    the failing access, with all state synchronized there so the caller
    can finish the piece on the object engine. Attribution ghosts replay
    the misses and evictions of those accesses only.
    """
    system = mm.system
    scheme = system.scheme
    if scheme._failed:
        return None  # failed residents charge per access; object engine
    tlb = system.tlb
    ram = system.ram
    if not (_plain_lru(tlb) and _plain_lru(ram)):
        return None
    units = _unit_stream(trace, mm.chunk)
    hpns = _unit_stream(units, system.hmax)
    tp, lC = _warm_window(tlb.policy._order, hpns, tlb.capacity)
    rp, rC = _warm_window(ram.policy._order, units, ram.capacity)
    kern_t = StreamKernel(hpns, tp)
    kern_r = StreamKernel(units, rp)
    miss_pos = kern_r.miss_positions(rC)
    first_evt = rC - kern_r.R  # miss index at which evictions start
    keys = kern_r.keys
    n_miss = int(miss_pos.size)
    inserts = keys[miss_pos].tolist() if n_miss else []
    n_ev = max(0, n_miss - first_evt)
    evicts = keys[kern_r.deaths(rC)[:n_ev]].tolist() if n_ev else []
    failed = scheme.apply_events(inserts, evicts, first_evt)
    if failed is None:
        return None  # allocator has no bulk path; object engine
    done = len(units) if failed < 0 else int(miss_pos[failed]) - kern_r.R + 1
    _fold_counts(
        mm,
        trace[:done],
        kern_t.hit_mask(lC)[kern_t.R : kern_t.R + done],
        kern_r.hit_mask(rC)[kern_r.R : kern_r.R + done],
        system.io_unit,
    )
    if failed >= 0:
        # the failing access (the segment's last) also pays a decoding miss
        ledgers = [mm.ledger]
        if mm.asid_ledgers is not None:
            ledgers.append(mm.asid_ledgers[int(trace[done - 1]) // mm.asid_stride])
        for ledger in ledgers:
            ledger.decoding_misses += 1
            ledger.paging_failures += 1
    # the scheme's T follows the TLB's resident set through the same delta
    departed, moved = _sync_cache(tlb, kern_t, lC, done)
    scheme._tlb_resident.difference_update(departed)
    scheme._tlb_resident.update(moved)
    _sync_cache(ram, kern_r, rC, done)
    return done


_HANDLERS = {
    BasePageMM: _run_hugepage,
    PhysicalHugePageMM: _run_hugepage,
    WritebackHugePageMM: _run_writeback,
    NestedTranslationMM: _run_nested,
    DecoupledMM: _run_decoupled,
    HybridMM: _run_decoupled,
}

#: Floor per handled class, in accesses: ``run()`` sends a piece shorter
#: than it to the object engine, which is faster there (a call's kernels,
#: warm window and sync cost a fixed overhead).  Fitted on warm machines
#: replaying the hotloop preset's second half in calls of 64, 256, 1,024,
#: 4,096 and 25,000 accesses, with each crossover re-checked between its
#: grid points (base-page between 4,096 and 8,192), and on 8-tenant span
#: replays (the hotloop ``@t8`` rows).  Keyed like :data:`_HANDLERS` (a
#: unit test holds the two to the same classes).
_FLOORS = {
    BasePageMM: 4096,
    PhysicalHugePageMM: 2048,
    WritebackHugePageMM: 1024,
    NestedTranslationMM: 128,
    DecoupledMM: 512,
    HybridMM: 256,
}


def supports(mm) -> bool:
    """True if *mm*'s exact type has a batch handler at all (the handler
    may still decline at run time on state it can't batch)."""
    return type(mm) in _HANDLERS


def try_run(mm, piece):
    """Run one piece of a segment through the batch engine, at any length.

    Returns the number of leading accesses served — the whole piece, or,
    after a paging failure, the accesses through the failing one — or
    ``None`` meaning "use the object engine": no handler for *mm*'s exact
    class, a non-LRU policy, scheme state the batch replay can't honor
    (pre-existing paging failures), an allocator without a bulk replay, or
    nested walk keys beyond int64.  Cutting segments into pieces, the
    floor, finishing a piece on the object engine, probe dispatch and
    ``on_batch`` flushes are
    :meth:`~repro.mmu.base.MemoryManagementAlgorithm.run`'s job.
    """
    handler = _HANDLERS.get(type(mm))
    if handler is None:
        return None
    arr = np.asarray(piece)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        arr = np.asarray([int(x) for x in piece], dtype=np.int64)
    return handler(mm, arr.astype(np.int64, copy=False))
