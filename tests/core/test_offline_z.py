"""Theorem 4 with offline ingredients: Z built from Belady's OPT.

The theorem allows arbitrary X and Y, online or offline; with OPT as both,
Z realizes the *optimal* eq. (3) right-hand side. These tests run the full
construction with offline policies and check dominance over online Z.
"""

import numpy as np
import pytest

from repro.core import (
    ATCostModel,
    DecoupledSystem,
    DecouplingScheme,
    IcebergAllocator,
    TLBValueCodec,
    huge_page_trace,
    optimal_faults,
)
from repro.paging import BeladyOPT, LRUPolicy


def build(trace, frames=256, tlb_entries=8, ram_capacity=160, offline=True, seed=0):
    # 16 buckets of 16 frames at 62% occupancy (δ = 0.375): enough slack
    # that the zipf fixture churns failure-free, so the OPT-count
    # identities hold exactly.
    allocator = IcebergAllocator(frames, 16, lam=10.0, seed=seed)
    codec = TLBValueCodec.for_allocator(64, allocator)
    scheme = DecouplingScheme(allocator, codec)
    if offline:
        hp = huge_page_trace(trace, codec.hmax).tolist()
        tlb_policy = BeladyOPT(hp)
        ram_policy = BeladyOPT([int(p) for p in trace])
    else:
        tlb_policy, ram_policy = LRUPolicy(), LRUPolicy()
    return DecoupledSystem(tlb_entries, ram_capacity, tlb_policy, ram_policy, scheme)


@pytest.fixture
def trace():
    rng = np.random.default_rng(0)
    return (rng.zipf(1.2, 8000) % 700).tolist()


class TestOfflineZ:
    def test_runs_and_keeps_invariants(self, trace):
        z = build(trace)
        z.run(trace)
        z.check_invariants()

    def test_offline_components_match_opt_counts(self, trace):
        z = build(trace)
        z.run(trace)
        if z.ledger.paging_failures:
            pytest.skip("failure term obscures the identity at this size")
        hp = huge_page_trace(trace, z.hmax).tolist()
        assert z.ledger.tlb_misses == optimal_faults(hp, z.tlb.capacity)
        assert z.ledger.ios == optimal_faults(trace, z.ram.capacity)

    def test_offline_dominates_online(self, trace):
        online = build(trace, offline=False)
        offline = build(trace, offline=True)
        online.run(trace)
        offline.run(trace)
        model = ATCostModel(epsilon=0.01)
        slack = 0.01 * (online.ledger.paging_failures + offline.ledger.paging_failures + 1)
        assert model.cost(offline.ledger) <= model.cost(online.ledger) + slack

    def test_offline_tlb_online_ram_mix(self, trace):
        """The theorem permits mixing: offline X with online Y."""
        allocator = IcebergAllocator(256, 32, lam=4.0, seed=1)
        codec = TLBValueCodec.for_allocator(64, allocator)
        hp = huge_page_trace(trace, codec.hmax).tolist()
        z = DecoupledSystem(
            8, 192, BeladyOPT(hp), LRUPolicy(), DecouplingScheme(allocator, codec)
        )
        z.run(trace)
        z.check_invariants()
        online = build(trace, offline=False, seed=1)
        online.run(trace)
        assert z.ledger.tlb_misses <= online.ledger.tlb_misses
