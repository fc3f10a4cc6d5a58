"""Cross-component fuzzing: whole-system invariants under random traffic.

These tests drive the full stacks (decoupled system, THP, nested MM) with
hypothesis-generated traces and assert the structural invariants that the
unit tests check only pointwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DecoupledSystem,
    DecouplingScheme,
    IcebergAllocator,
    TLBValueCodec,
    huge_page_trace,
    paging_faults,
)
from repro.mmu import THPStyleMM
from repro.paging import LRUPolicy


def build_system(frames=128, tlb_entries=6, ram_capacity=96, seed=0):
    allocator = IcebergAllocator(frames, 16, lam=4.0, seed=seed)
    codec = TLBValueCodec.for_allocator(64, allocator)
    return DecoupledSystem(
        tlb_entries, ram_capacity, LRUPolicy(), LRUPolicy(),
        DecouplingScheme(allocator, codec),
    )


traces = st.lists(st.integers(0, 400), min_size=1, max_size=400)


class TestDecoupledSystemFuzz:
    @given(traces)
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, trace):
        z = build_system()
        z.run(trace)
        z.check_invariants()

    @given(traces, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_caches(self, trace, seed):
        """Theorem 4's construction, checked as an executable identity:
        without paging failures, Z's TLB misses equal LRU-on-r(p) faults
        and Z's IOs equal LRU-on-p faults at (1-δ)P."""
        z = build_system(seed=seed)
        z.run(trace)
        if z.ledger.paging_failures:
            return  # identity holds only modulo the failure term
        hp = huge_page_trace(trace, z.hmax)
        assert z.ledger.tlb_misses == paging_faults(hp, z.tlb.capacity, LRUPolicy())
        assert z.ledger.ios == paging_faults(trace, z.ram.capacity, LRUPolicy())

    @given(traces)
    @settings(max_examples=30, deadline=None)
    def test_every_resident_page_decodes(self, trace):
        """Eq. (4) across the whole resident set after arbitrary traffic."""
        z = build_system()
        z.run(trace)
        scheme = z.scheme
        for vpn in scheme.active_set:
            hpn = vpn // z.hmax
            decoded = scheme.f(vpn, scheme.psi(hpn))
            if scheme.is_failed(vpn):
                assert decoded == -1
            else:
                assert decoded == scheme.frame_of(vpn)

    @given(traces)
    @settings(max_examples=30, deadline=None)
    def test_cost_conservation(self, trace):
        """Every access is accounted exactly once in hits+misses."""
        z = build_system()
        z.run(trace)
        assert z.ledger.tlb_hits + z.ledger.tlb_misses == len(trace)
        assert z.ledger.accesses == len(trace)


class TestTHPFuzz:
    @given(traces, st.sampled_from([2, 4, 8]), st.sampled_from([0.25, 0.75, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, trace, h, util):
        mm = THPStyleMM(8, 64, huge_page_size=h, promote_utilization=util)
        mm.run(trace)
        mm.check_invariants()

    @given(traces)
    @settings(max_examples=20, deadline=None)
    def test_frames_never_leak_under_heavy_churn(self, trace):
        mm = THPStyleMM(4, 32, huge_page_size=4, promote_utilization=0.5)
        mm.run(trace)
        mm.run(trace[::-1])
        mm.check_invariants()
        assert 0 <= mm.memory.free_frames <= 32


class TestDeterminism:
    def test_decoupled_system_is_deterministic(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 500, 2000).tolist()
        a = build_system(seed=7)
        b = build_system(seed=7)
        a.run(trace)
        b.run(trace)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert sorted(a.scheme.active_set) == sorted(b.scheme.active_set)

    def test_different_hash_seeds_differ_internally_not_in_cost(self):
        """Hash seeds move pages to different frames but — absent failures —
        never change the cost profile (costs depend only on X and Y)."""
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 500, 2000).tolist()
        a = build_system(seed=1)
        b = build_system(seed=2)
        a.run(trace)
        b.run(trace)
        if a.ledger.paging_failures == 0 and b.ledger.paging_failures == 0:
            assert a.ledger.ios == b.ledger.ios
            assert a.ledger.tlb_misses == b.ledger.tlb_misses
