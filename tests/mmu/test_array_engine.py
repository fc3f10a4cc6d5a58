"""Array-engine tests: kernel exactness, deep state parity, failure bailout.

The struct-of-arrays engine (:mod:`repro.mmu.array_engine`) promises
*bit-identical* results to the object engine — not just matching ledgers,
but matching replacement orders, TLB value maps, scheme bookkeeping sets,
and clocks, so that a trace can switch engines mid-stream at any segment
boundary. These tests pin that promise:

* :class:`StreamKernel` against a brute-force LRU oracle (hits, victims
  in order, final residents) across randomized small streams;
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
* engine selection through the registry, ``simulate``, and ``SimTask``.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.bench.hotloop import FAILURE_MMS, HOTLOOP_CONFIG, key_stream
from repro.mmu import array_engine
from repro.mmu.array_engine import StreamKernel, supports, try_run
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm, mm_factory
from repro.obs import SamplingProbe, TraceRecorder
from repro.sim import simulate
from repro.sim.parallel import SimTask, run_records

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

    def test_dense_stream_exercises_ladder_and_grid(self):
        # small universe + large n leaves thousands of ambiguous queries,
        # forcing the sliding-window ladder, the direct scan, and the
        # blocked dominance grid — every pruning tier must stay exact
        rng = np.random.default_rng(3)
        n, universe, cap = 20_000, 120, 64
        seg = rng.integers(0, universe, n).astype(np.int64)
        kern = StreamKernel(seg)
        hits, victims, _ = _lru_oracle(seg.tolist(), (), cap)
        assert kern.hit_mask(cap).tolist() == hits
        assert kern.keys[kern.deaths(cap)].tolist() == victims

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


# ------------------------------------------------------- engine parity


@pytest.mark.parametrize("name", ARRAY_MMS)
class TestDeepStateParity:
    def test_cold_run(self, name):
        obj = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
        arr = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
        obj.run(TRACE)
        assert try_run(arr, TRACE) is not None, "array engine declined"
        assert _state_sig(obj) == _state_sig(arr)

    def test_segmented_and_warm_reset(self, name):
        obj = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
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

    def test_supports(self, name):
        assert supports(make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0))


class TestWritebackDirtyCarry:
    def test_dirty_state_crosses_segment_boundaries(self):
        # a page dirtied in segment 1 but evicted in segment 2 must still
        # flush — the per-segment store sampling alone cannot see it
        obj = make_mm("physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0)
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
        obj = make_mm(name, tlb, ram, seed=seed)
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
        obj = make_mm("decoupled", 32, 64, seed=2)
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
    # segments punch holes in the TLB order the next window reads
    rng = np.random.default_rng(MM_NAMES.index(name))
    obj = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
    arr = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="array")
    obj.run(TRACE[:3_000])
    arr.run(TRACE[:3_000])
    cuts = _random_cuts(rng, 3_000, 8_000, 24)
    for a, b in zip(cuts[:-1], cuts[1:]):
        obj.run(TRACE[a:b])
        arr.run(TRACE[a:b])
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
    obj = make_mm("physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0)
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
        arr.run(TRACE[a:b])
        assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
    assert carried > 100, "no dirty resident ever sat outside the window"
    assert obj.ledger.extra["writebacks"] > 0


@pytest.mark.parametrize("name", sorted(FAILURE_MMS))
def test_paging_failure_inside_a_windowed_segment(name):
    # the undersized failure cells, cut into 1..7-access segments: the
    # hybrid RAM holds 15 units, so only segments that short are
    # windowed; the bailout then syncs a windowed state mid-segment
    geom = FAILURE_MMS[name]
    trace = np.asarray(
        key_stream(4_000, geom["universe"], geom["universe"] // 8, 50, seed=0),
        dtype=np.int64,
    )
    mm_seed = HOTLOOP_CONFIG["fail_mm_seed"]
    obj = make_mm(name, geom["tlb_entries"], geom["ram_pages"], seed=mm_seed)
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
        arr.run(trace[a:b])
        assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        windowed_failures += (
            batched and windowed and arr.ledger.paging_failures > failures
        )
    assert windowed_failures >= 2, "no paging failure inside a windowed segment"


# --------------------------------------------------- selection plumbing


class TestEngineSelection:
    def test_registry_validates_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_mm("base-page", 64, 1024, engine="simd")
        with pytest.raises(ValueError, match="unknown engine"):
            mm_factory("base-page", 64, 1024, engine="simd")

    def test_registry_sets_engine(self):
        assert make_mm("base-page", 64, 1024).engine == "object"
        assert make_mm("base-page", 64, 1024, engine="array").engine == "array"
        assert mm_factory("base-page", 64, 1024, engine="array")().engine == "array"
        assert set(ENGINES) == {"object", "array"}

    def test_thp_falls_back_to_object(self):
        obj = make_mm("thp", TLB_ENTRIES, RAM_PAGES)
        arr = make_mm("thp", TLB_ENTRIES, RAM_PAGES, engine="array")
        obj.run(TRACE[:4_000])
        arr.run(TRACE[:4_000])
        assert obj.ledger.as_dict() == arr.ledger.as_dict()

    def test_simulate_engine_override(self):
        obj = make_mm("base-page", TLB_ENTRIES, RAM_PAGES)
        arr = make_mm("base-page", TLB_ENTRIES, RAM_PAGES)
        lo = simulate(obj, TRACE, warmup=2_000)
        la = simulate(arr, TRACE, warmup=2_000, engine="array")
        assert arr.engine == "array"
        assert lo.as_dict() == la.as_dict()

    def test_simtask_engine(self):
        tasks = [
            SimTask(key=0, mm_factory=mm_factory("decoupled", 64, 1024, seed=0)),
            SimTask(
                key=1,
                mm_factory=mm_factory("decoupled", 64, 1024, seed=0),
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
        probed = make_mm("base-page", TLB_ENTRIES, RAM_PAGES)
        arr = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="array")
        lp = simulate(probed, TRACE[:3_000], probe=TraceRecorder(capacity=16))
        la = simulate(arr, TRACE[:3_000], probe=TraceRecorder(capacity=16))
        assert lp.as_dict() == la.as_dict()

    def test_batch_safe_probe_gets_one_flush(self):
        flushes = []

        class _Tap(SamplingProbe):
            def on_batch(self, t0, vpns, ledger, before):
                flushes.append((t0, len(vpns), ledger.snapshot(), before))

        mm = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="array")
        mm.probe = _Tap(1.0, seed=0)
        mm.run(TRACE[:3_000])
        assert len(flushes) == 1
        t0, n_vpns, after, before = flushes[0]
        assert (t0, n_vpns) == (0, 3_000)
        assert after != before
