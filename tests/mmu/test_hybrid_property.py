"""Property tests for HybridMM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mmu import DecoupledMM, HybridMM


class TestHybridProperties:
    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_invariants_and_io_quantization(self, trace):
        mm = HybridMM(8, 1 << 10, chunk=4, seed=0)
        mm.run(trace)
        mm.system.check_invariants()
        # every RAM fault moves a whole chunk
        assert mm.ledger.ios % 4 == 0

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_chunk1_equals_decoupled(self, trace):
        """chunk=1 must be behaviourally identical to DecoupledMM on the
        same geometry and seed."""
        h = HybridMM(8, 1 << 10, chunk=1, seed=3)
        z = DecoupledMM(8, 1 << 10, seed=3)
        if h.params != z.params:
            pytest.skip("parameter derivations diverged")
        h.run(trace)
        z.run(trace)
        assert h.ledger.as_dict() == z.ledger.as_dict()
