"""Array-engine tests: kernel exactness, deep state parity, failure bailout.

The struct-of-arrays engine (:mod:`repro.mmu.array_engine`) promises
*bit-identical* results to the object engine — not just matching ledgers,
but matching replacement orders, TLB value maps, scheme bookkeeping sets,
and clocks, so that a trace can switch engines mid-stream at any segment
boundary. These tests pin that promise:

* :class:`StreamKernel` against a brute-force LRU oracle (hits, victims
  in order, final residents) across randomized small streams, a
  Hypothesis property near the capacity and on cyclic and strided scans
  past it, and streams whose footprint is exactly the capacity or one
  past it (the footprint bound);
* the dominance grid's bounds and exact count against a brute-force
  count of every query on a kernel with a warm prefix;
* its hit masks against :func:`repro.analysis.stack_distances` on long
  streams (Figure 1a's trace at three huge-page sizes, a 200 k zipf trace,
  a windowed warm start), which reach the dominance grid's bounds and its
  exact count;
* the grid's exact count on a long stream, run in blocks whose traced
  memory stays bounded;
* page numbers near 2**62, past the int64 composite the kernels sort and
  past the nested MM's int64 walk keys, on whole and segmented runs;
* full deep-state parity for every covered algorithm on cold, segmented,
  and warm-reset replays;
* the write-back dirty bit carried across segment boundaries;
* the paging-failure bailout: the array engine detects the failing access
  mid-segment, syncs state up to it, and the object engine resumes with
  ledgers and ``φ`` bookkeeping identical to a pure object run;
* short segments over warm caches, where each kernel starts from a window
  of the resident set and the object state is synced incrementally:
  random cut points and shootdowns, the write-back dirty carry outside
  the window, and paging failures inside a windowed segment;
* one segment of a million accesses, served in pieces no longer than the
  ceiling: counters and state equal the object engine's, and the traced
  memory peak stays bounded;
* engine selection through the registry, ``simulate``, and ``SimTask``.
"""

import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import stack_distances
from repro.bench import figure1_workload, make_physical_mm
from repro.bench.hotloop import FAILURE_MMS, HOTLOOP_CONFIG, key_stream
from repro.mmu import PhysicalHugePageMM, array_engine
from repro.mmu.array_engine import StreamKernel, supports, try_run
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm, mm_factory
from repro.obs import SamplingProbe, TraceRecorder
from repro.sim import simulate
from repro.sim.parallel import SimTask, run_records
from repro.workloads import ZipfWorkload

#: algorithms with a batch handler (everything but THP).
ARRAY_MMS = tuple(n for n in MM_NAMES if n != "thp")

TLB_ENTRIES = 64
RAM_PAGES = 1024
TRACE = np.array(
    key_stream(12_000, 1 << 12, 1 << 7, 90, seed=0), dtype=np.int64
)


def _lru_oracle(keys, prefix, capacity):
    """Reference LRU: per-access hits, victims in order, final residents."""
    od = OrderedDict((k, None) for k in prefix)
    hits, victims = [], []
    for k in keys:
        if k in od:
            od.move_to_end(k)
            hits.append(True)
        else:
            hits.append(False)
            od[k] = None
            if len(od) > capacity:
                victims.append(od.popitem(last=False)[0])
    return hits, victims, list(od)


def _state_sig(mm):
    """Every piece of observable state the engines must agree on."""
    name = type(mm).__name__
    sig = {"ledger": mm.ledger.as_dict()}
    for attr in ("tlb", "ram", "nested_tlb"):
        cache = getattr(mm, attr, None)
        if cache is not None:
            sig[attr] = (
                list(cache.policy._order),
                cache.hits,
                cache.misses,
                cache.evictions,
                cache._clock,
            )
    if hasattr(mm, "_dirty"):
        sig["dirty"] = sorted(mm._dirty)
    system = getattr(mm, "system", None)
    if system is not None:
        tlb, scheme = system.tlb, system.scheme
        sig["tlb"] = (
            list(tlb.policy._order),
            dict(tlb._values),
            tlb.hits,
            tlb.misses,
            tlb.fills,
            tlb._clock,
            tlb._last_stamp,
        )
        sig["ram"] = (
            list(system.ram.policy._order),
            system.ram.hits,
            system.ram.misses,
            system.ram.evictions,
            system.ram._clock,
        )
        sig["scheme"] = (
            sorted(scheme._tlb_resident),
            sorted(scheme._active),
            sorted(scheme._failed),
        )
        sig["psi"] = dict(scheme._psi)
    return sig


def _assert_served_whole(mm, engine_calls):
    """With the floors lifted (the ``engine_calls`` fixture), the array
    engine served every segment of *mm*'s runs in full — when *mm* runs on
    it and its class has a batch handler (thp has none)."""
    if mm.engine == "array" and supports(mm):
        assert engine_calls, "the array engine was never asked"
        assert all(served == n for n, served in engine_calls), engine_calls


# --------------------------------------------------------------- kernel


class TestStreamKernel:
    def test_matches_oracle_on_random_streams(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            universe = int(rng.integers(2, 60))
            cap = int(rng.integers(1, 40))
            seg = rng.integers(0, universe, n).astype(np.int64)
            r = int(rng.integers(0, min(cap, universe) + 1))
            prefix = list(dict.fromkeys(rng.permutation(universe)[:r].tolist()))
            kern = StreamKernel(seg, prefix)
            hits, victims, residents = _lru_oracle(seg.tolist(), prefix, cap)
            assert kern.hit_mask(cap)[kern.R :].tolist() == hits, trial
            assert kern.keys[kern.deaths(cap)].tolist() == victims, trial
            assert kern.residents_at(cap, kern.n).tolist() == residents, trial

    def test_dense_stream_exercises_the_grid(self):
        # small universe + large n leaves thousands of repeats that the
        # O(n) tests cannot settle, forcing the blocked dominance grid's
        # bounds and its exact count — both must stay exact
        rng = np.random.default_rng(3)
        n, universe, cap = 20_000, 120, 64
        seg = rng.integers(0, universe, n).astype(np.int64)
        kern = StreamKernel(seg)
        hits, victims, _ = _lru_oracle(seg.tolist(), (), cap)
        assert kern.hit_mask(cap).tolist() == hits
        assert kern.keys[kern.deaths(cap)].tolist() == victims

    def test_miss_and_death_positions_are_kept_per_capacity(self):
        # a cold piece's TLB and RAM share one kernel, queried at two
        # capacities in turn: each query returns its own capacity's
        # positions, computed once
        rng = np.random.default_rng(7)
        seg = rng.integers(0, 200, 3_000).astype(np.int64)
        kern = StreamKernel(seg)
        for cap in (16, 96, 16):
            hits, victims, _ = _lru_oracle(seg.tolist(), (), cap)
            misses = [i for i, hit in enumerate(hits) if not hit]
            assert kern.miss_positions(cap).tolist() == misses, cap
            assert kern.keys[kern.deaths(cap)].tolist() == victims, cap
            assert kern.deaths(cap) is kern.deaths(cap)
            assert kern.miss_positions(cap) is kern.miss_positions(cap)

    def test_residents_at_reconstructs_mid_stream_state(self):
        rng = np.random.default_rng(5)
        seg = rng.integers(0, 50, 300).astype(np.int64)
        cap = 16
        kern = StreamKernel(seg)
        for cut in (0, 77, 150, 299):
            _, _, residents = _lru_oracle(seg[:cut].tolist(), (), cap)
            assert kern.residents_at(cap, cut).tolist() == residents

    def test_windowed_warm_start_matches_oracle(self):
        # a warm cache holding more than twice the segment: the kernel
        # starts from a window of it, runs at capacity C - |U|, and its
        # order delta brings the full order to the oracle's
        rng = np.random.default_rng(17)
        windowed = 0
        for trial in range(200):
            cap = int(rng.integers(6, 90))
            universe = cap + int(rng.integers(1, 3 * cap))
            resident = int(rng.integers(cap // 2, cap + 1))
            prefix = rng.permutation(universe)[:resident].tolist()
            n = int(rng.integers(1, max(2, resident // 2 + 2)))
            seg = np.where(
                rng.random(n) < 0.6,
                rng.choice(prefix, n),
                rng.integers(0, universe, n),
            ).astype(np.int64)
            order = OrderedDict.fromkeys(prefix)
            window, C = array_engine._warm_window(order, seg, cap)
            kern = StreamKernel(seg, window)
            windowed += kern.R < resident
            hits, victims, residents = _lru_oracle(seg.tolist(), prefix, cap)
            assert kern.hit_mask(C)[kern.R :].tolist() == hits, trial
            assert kern.keys[kern.deaths(C)].tolist() == victims, trial
            departed, moved = (a.tolist() for a in kern.order_delta(C))
            assert set(departed).isdisjoint(residents), trial
            array_engine._apply_delta(order, departed, moved)
            assert list(order) == residents, trial
        assert windowed > 100

    # A repeat at position i is a sure hit once D(i) <= C: its window
    # holds at most D(i) - 1 distinct keys.  These tests pin the bound
    # exact at and just past the footprint C, and pin that a stream
    # whose footprint fits resolves before the dominance grid.

    @staticmethod
    def _spy_later_stages(monkeypatch) -> list:
        """Record every call of the stages after the footprint bound."""
        calls = []
        for stage in ("_grid_bounds", "_prepare_grid"):
            real = getattr(StreamKernel, stage)

            def spy(self, *args, _stage=stage, _real=real):
                calls.append(_stage)
                return _real(self, *args)

            monkeypatch.setattr(StreamKernel, stage, spy)
        return calls

    def test_footprint_at_capacity_skips_the_later_stages(self, monkeypatch):
        rng = np.random.default_rng(23)
        cap = 64
        seg = rng.integers(0, cap, 20_000).astype(np.int64)
        kern = StreamKernel(seg)
        # without the bound, 7,255 repeats would pass the gap and
        # D-difference tests and reach the grid
        prev = kern.prev
        pending = np.flatnonzero((prev >= 0) & (kern._pos - prev > cap))
        pending = pending[kern.D[pending] - kern.D[prev[pending]] < cap]
        assert pending.size > 0
        calls = self._spy_later_stages(monkeypatch)
        hits, victims, residents = _lru_oracle(seg.tolist(), (), cap)
        assert kern.hit_mask(cap).tolist() == hits
        assert kern.keys[kern.deaths(cap)].tolist() == victims
        assert kern.residents_at(cap, kern.n).tolist() == residents
        assert calls == []

    def test_cyclic_scan_one_past_capacity_misses_every_repeat(self):
        # every repeat's stack distance is exactly C
        cap = 64
        seg = np.tile(np.arange(cap + 1, dtype=np.int64), 80)
        kern = StreamKernel(seg)
        hits, victims, residents = _lru_oracle(seg.tolist(), (), cap)
        assert not any(hits)
        assert kern.hit_mask(cap).tolist() == hits
        assert kern.keys[kern.deaths(cap)].tolist() == victims
        assert kern.residents_at(cap, kern.n).tolist() == residents

    def test_hot_keys_and_one_shot_cold_keys_one_past_capacity(self):
        # a uniform hot set plus one-shot cold keys scattered through a
        # short stretch: the hot keys the stretch leaves untouched recur
        # after it at stack distance exactly C
        rng = np.random.default_rng(29)
        cap, cold, n = 64, 24, 6_000
        hot = cap + 1 - cold
        seg = rng.integers(0, hot, n).astype(np.int64)
        stretch = np.arange(n // 2, n // 2 + 2 * cold)
        seg[np.sort(rng.choice(stretch, cold, replace=False))] = hot + np.arange(cold)
        assert np.unique(seg).size == cap + 1
        kern = StreamKernel(seg)
        hits, victims, residents = _lru_oracle(seg.tolist(), (), cap)
        assert hits.count(False) > cap + 1  # some repeats miss
        assert kern.hit_mask(cap).tolist() == hits
        assert kern.keys[kern.deaths(cap)].tolist() == victims
        assert kern.residents_at(cap, kern.n).tolist() == residents

    def test_windowed_warm_start_whose_footprint_fits(self, monkeypatch):
        # 280 of 300 slots full; a 100-access segment touches residents
        # and 20 new keys, so the windowed kernel's footprint fits its
        # capacity C - |U| exactly
        rng = np.random.default_rng(31)
        cap, resident, n = 300, 280, 100
        prefix = rng.permutation(1000)[:resident].tolist()
        fresh = sorted(set(range(1000)) - set(prefix))[:20]
        seg = rng.choice(prefix[:150] + fresh, n).astype(np.int64)
        seg[:20] = fresh
        order = OrderedDict.fromkeys(prefix)
        window, C = array_engine._warm_window(order, seg, cap)
        kern = StreamKernel(seg, window)
        assert kern.R < resident
        assert int(kern.D[-1]) == C
        calls = self._spy_later_stages(monkeypatch)
        hits, victims, residents = _lru_oracle(seg.tolist(), prefix, cap)
        assert kern.hit_mask(C)[kern.R :].tolist() == hits
        assert kern.keys[kern.deaths(C)].tolist() == victims == []
        array_engine._apply_delta(order, *(a.tolist() for a in kern.order_delta(C)))
        assert list(order) == residents
        assert calls == []

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_oracle_near_capacity(self, data):
        # universes within 2 of the capacity, one-shot keys, warm
        # prefixes, and short segments whose kernel is windowed; and scans
        # over C + 1 to 2C keys, cyclic or strided page scans cut into
        # huge pages, whose repeats mostly reach the grid's exact count
        cap = data.draw(st.integers(1, 40), label="cap")
        shape = data.draw(st.sampled_from(("random", "cyclic", "strided")), label="shape")
        if shape == "random":
            universe = max(1, cap + data.draw(st.integers(-2, 2), label="skew"))
            short = data.draw(st.booleans(), label="short")
            seg = data.draw(
                st.lists(
                    st.integers(0, universe - 1),
                    min_size=1 if short else cap + 1,
                    max_size=max(1, cap // 2) if short else 6 * cap,
                ),
                label="seg",
            )
        else:
            universe = data.draw(st.integers(cap + 1, 2 * cap), label="universe")
            length = data.draw(st.integers(1, 8 * universe), label="length")
            unit = stride = 1
            if shape == "strided":
                unit = data.draw(st.integers(1, 4), label="unit")
                stride = data.draw(st.integers(1, 2 * unit), label="stride")
            span = universe * unit
            seg = [k * stride % span // unit for k in range(length)]
        one_shots = data.draw(st.integers(0, 3), label="one_shots")
        for key in range(universe + 4, universe + 4 + one_shots):
            seg.insert(data.draw(st.integers(0, len(seg))), key)
        # residents may include keys the segment never touches
        pool = data.draw(st.permutations(range(universe + 4)), label="pool")
        prefix = pool[: data.draw(st.integers(0, cap), label="resident")]
        order = OrderedDict.fromkeys(prefix)
        keys = np.asarray(seg, dtype=np.int64)
        window, C = array_engine._warm_window(order, keys, cap)
        kern = StreamKernel(keys, window)
        hits, victims, residents = _lru_oracle(seg, prefix, cap)
        assert kern.hit_mask(C)[kern.R :].tolist() == hits
        assert kern.keys[kern.deaths(C)].tolist() == victims
        array_engine._apply_delta(order, *(a.tolist() for a in kern.order_delta(C)))
        assert list(order) == residents


@pytest.mark.parametrize("bt, bv", [(128, 128), (32, 64), (64, 16)])
def test_grid_matches_brute_force_with_a_warm_prefix(bt, bv, monkeypatch):
    # a 400-key warm prefix puts 400 first occurrences, pads in the grid's
    # value-block table, ahead of a 600-access segment that revisits them
    # and adds keys of its own: for every (p, v) the grid can be asked,
    # its bounds bracket and its exact count equals #{j <= p : nxt[j] < v},
    # at the default block sizes and at unequal ones
    monkeypatch.setattr(array_engine, "_BT", bt)
    monkeypatch.setattr(array_engine, "_BV", bv)
    rng = np.random.default_rng(37)
    prefix = rng.permutation(1000)[:400].tolist()
    seg = np.where(
        rng.random(600) < 0.5, rng.choice(prefix, 600), rng.integers(0, 1000, 600)
    )
    kern = StreamKernel(seg, prefix)
    n = kern.n
    assert np.count_nonzero(kern.prev < 0) > n // 2
    less = np.cumsum(kern.nxt[:, None] < np.arange(n), axis=0, dtype=np.int32)
    p, v = (a.astype(np.int32) for a in np.indices((n, n)).reshape(2, -1))
    want = less[p, v]
    lo, hi = kern._grid_bounds(p, v)
    assert np.all(lo <= want) and np.all(want <= hi)
    assert np.array_equal(kern._grid_exact(p, v), want)


# Long streams, checked against the exact stack distances of
# repro.analysis: a key hits at capacity C iff 0 <= d < C.  These reach
# the dominance grid at lengths the LRU oracle above cannot afford.


def _assert_hits_are_short_distances(kern, keys, prefix, capacities):
    d = stack_distances(keys, prefix=prefix)
    for C in capacities:
        expected = (d >= 0) & (d < C)
        assert np.array_equal(kern.hit_mask(C)[kern.R :], expected), C


@pytest.mark.parametrize("h", (1, 8, 128))
def test_fig1a_stream_matches_stack_distances(h):
    workload, ram_pages = figure1_workload("a", 1 << 18, seed=0)
    keys = np.asarray(workload.generate(120_000, seed=0)) // h
    kern = StreamKernel(keys)
    _assert_hits_are_short_distances(kern, keys, (), (512, ram_pages // h))


def test_zipf_stream_matches_stack_distances():
    keys = np.asarray(ZipfWorkload(8192).generate(200_000, seed=0))
    _assert_hits_are_short_distances(StreamKernel(keys), keys, (), (64, 4096))


def test_windowed_warm_start_matches_stack_distances():
    # the LRU order after 100k zipf accesses at C = 4096, then a 1,000-
    # access segment: the kernel starts from a window of the order and
    # runs at C - |U|, hitting exactly where the full order's distances
    # are below C
    trace = np.asarray(ZipfWorkload(8192).generate(101_000, seed=1))
    C = 4096
    order = OrderedDict.fromkeys(
        StreamKernel(trace[:100_000]).residents_at(C, 100_000).tolist()
    )
    seg = trace[100_000:]
    window, C_window = array_engine._warm_window(order, seg, C)
    assert len(window) < len(order) == C
    kern = StreamKernel(seg, window)
    _assert_hits_are_short_distances(kern, seg, window, (C_window,))
    full = stack_distances(seg, prefix=list(order))
    assert np.array_equal(kern.hit_mask(C_window)[kern.R :], (full >= 0) & (full < C))


def test_grid_exact_counts_in_bounded_blocks():
    # one exact count over 30,000 repeats of a 100 k-access zipf stream:
    # the edge-block scans run in blocks, so their temporaries stay
    # bounded however many queries the bounds leave open
    keys = np.asarray(ZipfWorkload(8192).generate(100_000, seed=0))
    kern = StreamKernel(keys)
    kern._prepare_grid()
    rng = np.random.default_rng(0)
    v = np.sort(rng.choice(np.flatnonzero(kern.prev >= 0), 30_000, replace=False))
    v = v.astype(np.int32)
    p = kern.prev[v]
    tracemalloc.start()
    try:
        got = kern._grid_exact(p, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"traced peak {peak / 2**20:.1f} MB"
    for s in rng.choice(v.size, 300, replace=False).tolist():
        assert got[s] == np.count_nonzero(kern.nxt[: p[s] + 1] < v[s]), s


# ------------------------------------------------------- engine parity


@pytest.mark.parametrize("name", ARRAY_MMS)
class TestDeepStateParity:
    def test_cold_run(self, name):
        obj = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="object")
        arr = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
        obj.run(TRACE)
        assert try_run(arr, TRACE) is not None, "array engine declined"
        assert _state_sig(obj) == _state_sig(arr)

    def test_segmented_and_warm_reset(self, name, engine_calls):
        obj = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="object")
        arr = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="array")
        cuts = (0, 3_337, 3_338, 9_101, 12_000)
        for a, b in zip(cuts[:-1], cuts[1:]):
            obj.run(TRACE[a:b])
            arr.run(TRACE[a:b])
            assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        obj.reset_stats()
        arr.reset_stats()
        obj.run(TRACE[:5_000])
        arr.run(TRACE[:5_000])
        assert _state_sig(obj) == _state_sig(arr)
        lengths = [b - a for a, b in zip(cuts[:-1], cuts[1:])] + [5_000]
        assert engine_calls == [(n, n) for n in lengths]

    def test_supports(self, name):
        assert supports(make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0))


@pytest.mark.parametrize("name", ARRAY_MMS)
def test_page_numbers_beyond_the_int64_composite(name):
    # half the accesses go to pages 2**62 + (0-199): key * n overflows the
    # int64 composite the kernels sort to link repeats, and the nested
    # MM's walk keys prefix * (g + 1) + depth overflow int64 itself.  The
    # cut runs alternate 1,024- and 100-access calls, so segments below
    # the nested floor put the object engine's keys in the host TLB
    # between array segments
    rng = np.random.default_rng(0)
    low = rng.integers(0, 200, 8192)
    trace = np.where(rng.random(8192) < 0.5, low, low + (1 << 62))
    cuts = [0]
    while cuts[-1] < len(trace):
        cuts.append(min(len(trace), cuts[-1] + (1024 if len(cuts) % 2 else 100)))
    sigs = []
    for engine in ENGINES:
        whole = make_mm(name, 64, 256, seed=0, engine=engine)
        simulate(whole, trace)
        cut = make_mm(name, 64, 256, seed=0, engine=engine)
        for a, b in zip(cuts[:-1], cuts[1:]):
            cut.run(trace[a:b])
        sigs.append((_state_sig(whole), _state_sig(cut)))
    assert sigs[0][0] == sigs[1][0], "whole trace"
    assert sigs[0][1] == sigs[1][1], "alternating cuts"


class TestWritebackDirtyCarry:
    def test_dirty_state_crosses_segment_boundaries(self):
        # a page dirtied in segment 1 but evicted in segment 2 must still
        # flush — the per-segment store sampling alone cannot see it
        obj = make_mm(
            "physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0, engine="object"
        )
        arr = make_mm(
            "physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0, engine="array"
        )
        for a, b in ((0, 4_000), (4_000, 8_000), (8_000, 12_000)):
            obj.run(TRACE[a:b])
            arr.run(TRACE[a:b])
            assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        assert obj.ledger.extra["writebacks"] > 0


# ------------------------------------------------- paging-failure bailout


class TestPagingFailureBailout:
    """Satellite contract: a paging failure mid-segment hands control back
    to the object engine at the failing access with synchronized state."""

    def _run_pair(self, name, tlb, ram, universe, seed):
        trace = key_stream(4_000, universe, universe // 8, 50, seed=0)
        obj = make_mm(name, tlb, ram, seed=seed, engine="object")
        arr = make_mm(name, tlb, ram, seed=seed, engine="array")
        obj.run(trace)
        arr.run(trace)
        return obj, arr

    def test_decoupled_failure_resumes_bit_identical(self):
        obj, arr = self._run_pair("decoupled", 32, 64, 1024, seed=2)
        assert obj.ledger.paging_failures >= 2, "config no longer fails"
        assert _state_sig(obj) == _state_sig(arr)

    def test_hybrid_failure_resumes_bit_identical(self):
        obj, arr = self._run_pair("hybrid", 32, 128, 512, seed=2)
        assert obj.ledger.paging_failures >= 2, "config no longer fails"
        assert _state_sig(obj) == _state_sig(arr)

    def test_failed_state_keeps_later_segments_identical(self):
        # once the failure set is non-empty the batch handler declines and
        # every later run() falls back to the object replay — the two
        # engines must stay in lockstep across that transition too
        trace = key_stream(4_000, 1024, 128, 50, seed=0)
        obj = make_mm("decoupled", 32, 64, seed=2, engine="object")
        arr = make_mm("decoupled", 32, 64, seed=2, engine="array")
        for a, b in ((0, 2_000), (2_000, 4_000)):
            obj.run(trace[a:b])
            arr.run(trace[a:b])
            assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        assert obj.ledger.paging_failures > 0


# ------------------------------------------------- short-segment window


@pytest.fixture
def window_log(monkeypatch):
    """Record ``(cache capacity, kernel capacity)`` of every warm start."""
    log = []
    real = array_engine._warm_window

    def spy(order, keys, C):
        prefix, kernel_C = real(order, keys, C)
        log.append((C, kernel_C))
        return prefix, kernel_C

    monkeypatch.setattr(array_engine, "_warm_window", spy)
    return log


def _run_unfloored(mm, segment) -> int:
    """``mm.run(segment)`` without the class's floor: the array engine is
    offered the segment at any length, and the object engine finishes
    what it did not serve.  Returns the accesses the array engine served."""
    done = try_run(mm, segment) or 0
    if done < len(segment):
        mm._run_batch(segment[done:])
    return done


def _random_cuts(rng, start, stop, longest):
    """Seeded cut points in ``[start, stop]``: segment lengths in
    ``1..longest``, with a run of 1-access segments up front."""
    cuts = [start]
    while cuts[-1] < stop:
        step = 1 if len(cuts) <= 8 else int(rng.integers(1, longest + 1))
        cuts.append(min(stop, cuts[-1] + step))
    return cuts


@pytest.mark.parametrize("name", ARRAY_MMS)
def test_short_segments_with_shootdowns_keep_deep_state(name, window_log):
    # warm caches hold more than twice every segment, so each call
    # starts from a window of the resident set; shootdowns between
    # segments punch holes in the TLB order the next window reads.
    # run() keeps segments this short off the engine (they are below
    # every floor), so the array side calls try_run directly
    rng = np.random.default_rng(MM_NAMES.index(name))
    obj = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="object")
    arr = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="array")
    obj.run(TRACE[:3_000])
    arr.run(TRACE[:3_000])
    cuts = _random_cuts(rng, 3_000, 8_000, 24)
    for a, b in zip(cuts[:-1], cuts[1:]):
        obj.run(TRACE[a:b])
        assert try_run(arr, TRACE[a:b]) == b - a, f"segment {a}:{b} declined"
        assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        if rng.random() < 0.25:
            lo = int(rng.integers(0, 1 << 12))
            hi = lo + int(rng.integers(1, 1 << 9))
            assert obj.shootdown(lo, hi) == arr.shootdown(lo, hi)
            assert _state_sig(obj) == _state_sig(arr), f"shootdown {lo}:{hi}"
    assert any(kernel_C < C for C, kernel_C in window_log), "window never engaged"


def test_writeback_dirty_bits_outside_the_window_carry_over():
    # residents outside the window are untouched and never evicted, so
    # the segment must leave their dirty bits exactly as it found them
    obj = make_mm(
        "physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0, engine="object"
    )
    arr = make_mm(
        "physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0, engine="array"
    )
    obj.run(TRACE[:3_000])
    arr.run(TRACE[:3_000])
    rng = np.random.default_rng(5)
    cuts = _random_cuts(rng, 3_000, 9_000, 24)
    carried = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        hpns = TRACE[a:b] // arr.huge_page_size
        prefix, _ = array_engine._warm_window(
            arr.ram.policy._order, hpns, arr.ram.capacity
        )
        carried += bool(arr._dirty - set(prefix))
        obj.run(TRACE[a:b])
        assert try_run(arr, TRACE[a:b]) == b - a, f"segment {a}:{b} declined"
        assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
    assert carried > 100, "no dirty resident ever sat outside the window"
    assert obj.ledger.extra["writebacks"] > 0


@pytest.mark.parametrize("name", sorted(FAILURE_MMS))
def test_paging_failure_inside_a_windowed_segment(name):
    # the undersized failure cells, cut into 1..7-access segments: the
    # hybrid RAM holds 15 units, so only segments that short are
    # windowed; the bailout then syncs a windowed state mid-segment.
    # Segments this short are below every floor, so the array side
    # offers them to the engine directly
    geom = FAILURE_MMS[name]
    trace = np.asarray(
        key_stream(4_000, geom["universe"], geom["universe"] // 8, 50, seed=0),
        dtype=np.int64,
    )
    mm_seed = HOTLOOP_CONFIG["fail_mm_seed"]
    obj = make_mm(
        name, geom["tlb_entries"], geom["ram_pages"], seed=mm_seed, engine="object"
    )
    arr = make_mm(
        name, geom["tlb_entries"], geom["ram_pages"], seed=mm_seed, engine="array"
    )
    rng = np.random.default_rng(1)
    windowed_failures = 0
    cuts = _random_cuts(rng, 0, len(trace), 7)
    for a, b in zip(cuts[:-1], cuts[1:]):
        # a clean scheme means the array engine takes the segment, so a
        # new failure in it was detected by the batch kernel's bailout
        batched = not arr.system.scheme._failed
        windowed = len(arr.system.ram.policy._order) > 2 * (b - a)
        failures = arr.ledger.paging_failures
        obj.run(trace[a:b])
        served = _run_unfloored(arr, trace[a:b])
        assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        windowed_failures += (
            batched and windowed and served and arr.ledger.paging_failures > failures
        )
    assert windowed_failures >= 2, "no paging failure inside a windowed segment"


# ------------------------------------------------------- long segments


def test_one_long_segment_runs_in_linear_time_and_bounded_memory(monkeypatch):
    # a million accesses of Figure 1a's trace at h=64 in one run(): the
    # engine serves them in pieces no longer than the ceiling, so no
    # kernel's dominance grid (quadratic in its length) grows with the
    # segment, and the traced peak stays flat
    workload, ram_pages = figure1_workload("a", 1 << 18, seed=0)
    trace = workload.generate(1 << 20, seed=0)
    folds = []
    real_fold = array_engine._paged_fold

    def fold_spy(mm, piece):
        folds.append(len(piece))
        return real_fold(mm, piece)

    monkeypatch.setattr(array_engine, "_paged_fold", fold_spy)
    arr = make_physical_mm(512, ram_pages, 64)()
    assert arr.engine == "array"
    tracemalloc.start()
    try:
        arr.run(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20, f"traced peak {peak / 2**20:.0f} MB"
    _floor, ceiling = array_engine._LIMITS[PhysicalHugePageMM]
    assert sum(folds) == len(trace) and max(folds) <= ceiling
    obj = make_physical_mm(512, ram_pages, 64)()
    obj.engine = "object"
    obj.run(trace)
    assert _state_sig(arr) == _state_sig(obj)


# --------------------------------------------------- selection plumbing


class TestEngineSelection:
    def test_registry_validates_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_mm("base-page", 64, 1024, engine="simd")
        with pytest.raises(ValueError, match="unknown engine"):
            mm_factory("base-page", 64, 1024, engine="simd")

    def test_registry_sets_engine(self):
        assert make_mm("base-page", 64, 1024).engine == "array"
        assert mm_factory("base-page", 64, 1024)().engine == "array"
        assert make_mm("base-page", 64, 1024, engine="object").engine == "object"
        assert mm_factory("base-page", 64, 1024, engine="object")().engine == "object"
        assert set(ENGINES) == {"object", "array"}

    def test_thp_falls_back_to_object(self):
        obj = make_mm("thp", TLB_ENTRIES, RAM_PAGES, engine="object")
        arr = make_mm("thp", TLB_ENTRIES, RAM_PAGES, engine="array")
        obj.run(TRACE[:4_000])
        arr.run(TRACE[:4_000])
        assert obj.ledger.as_dict() == arr.ledger.as_dict()

    def test_simulate_engine_override(self, engine_calls):
        obj = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="object")
        arr = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="object")
        lo = simulate(obj, TRACE, warmup=2_000)
        la = simulate(arr, TRACE, warmup=2_000, engine="array")
        assert obj.engine == "object"
        assert arr.engine == "array"
        assert lo.as_dict() == la.as_dict()
        assert engine_calls == [(2_000, 2_000), (len(TRACE) - 2_000,) * 2]

    def test_simtask_engine(self):
        tasks = [
            SimTask(
                key=0,
                mm_factory=mm_factory("decoupled", 64, 1024, seed=0, engine="object"),
            ),
            SimTask(
                key=1,
                mm_factory=mm_factory("decoupled", 64, 1024, seed=0, engine="object"),
                engine="array",
            ),
        ]
        records = run_records(tasks, trace=TRACE, jobs=1)
        assert records[0].ledger.as_dict() == records[1].ledger.as_dict()


# -------------------------------------------------------- probe contract


class TestProbeContract:
    def test_per_access_probe_forces_object_path(self):
        # TraceRecorder needs every access event; the array engine must
        # decline and the ledgers must still match the probed object run
        probed = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="object")
        arr = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="array")
        lp = simulate(probed, TRACE[:3_000], probe=TraceRecorder(capacity=16))
        la = simulate(arr, TRACE[:3_000], probe=TraceRecorder(capacity=16))
        assert lp.as_dict() == la.as_dict()

    def test_batch_safe_probe_gets_one_flush(self, engine_calls):
        flushes = []

        class _Tap(SamplingProbe):
            def on_batch(self, t0, vpns, ledger, before):
                flushes.append((t0, len(vpns), ledger.snapshot(), before))

        mm = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="array")
        mm.probe = _Tap(1.0, seed=0)
        mm.run(TRACE[:3_000])
        assert engine_calls == [(3_000, 3_000)]
        assert len(flushes) == 1
        t0, n_vpns, after, before = flushes[0]
        assert (t0, n_vpns) == (0, 3_000)
        assert after != before
