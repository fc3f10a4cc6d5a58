"""Tests for the huge-page decoupling scheme: the eq. (4) guarantee, the
failure-set semantics, and constant-time ψ bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NOT_PRESENT,
    DecouplingScheme,
    IcebergAllocator,
    OneChoiceAllocator,
    TLBValueCodec,
)


def make_scheme(allocator=None, hmax=None):
    if allocator is None:
        allocator = IcebergAllocator(64, 8, lam=4.0, seed=0)
    codec = TLBValueCodec.for_allocator(64, allocator, hmax=hmax)
    return DecouplingScheme(allocator, codec)


class TestConstruction:
    def test_codec_must_cover_associativity(self):
        allocator = IcebergAllocator(64, 8, lam=4.0, seed=0)  # assoc 24
        tiny = TLBValueCodec(w=64, hmax=8, field_bits=3)  # max code 6
        with pytest.raises(ValueError, match="cannot address"):
            DecouplingScheme(allocator, tiny)

    def test_hmax_comes_from_codec(self):
        scheme = make_scheme(hmax=4)
        assert scheme.hmax == 4


class TestRamEvents:
    def test_insert_and_decode(self):
        scheme = make_scheme()
        frame = scheme.ram_insert(10)
        assert frame is not None
        assert scheme.frame_of(10) == frame
        hpn = 10 // scheme.hmax
        assert scheme.f(10, scheme.psi(hpn)) == frame

    def test_double_insert_raises(self):
        scheme = make_scheme()
        scheme.ram_insert(1)
        with pytest.raises(ValueError):
            scheme.ram_insert(1)

    def test_evict_clears_psi(self):
        scheme = make_scheme()
        scheme.ram_insert(10)
        scheme.ram_evict(10)
        hpn = 10 // scheme.hmax
        assert scheme.f(10, scheme.psi(hpn)) == NOT_PRESENT
        assert 10 not in scheme.active_set

    def test_evict_absent_raises(self):
        scheme = make_scheme()
        with pytest.raises(KeyError):
            scheme.ram_evict(10)

    def test_eq4_guarantee(self):
        """Eq. (4): present pages decode to φ(v); absent pages to -1."""
        scheme = make_scheme()
        placed = {}
        for v in range(30):
            f = scheme.ram_insert(v)
            if f is not None:
                placed[v] = f
        for hpn in {v // scheme.hmax for v in range(30)}:
            value = scheme.psi(hpn)
            for idx in range(scheme.hmax):
                v = hpn * scheme.hmax + idx
                decoded = scheme.f(v, value)
                if v in placed:
                    assert decoded == placed[v]
                else:
                    assert decoded == NOT_PRESENT


class TestFailures:
    def make_tight(self):
        # 2 buckets x 2 frames, one hash: failures arrive quickly
        return make_scheme(OneChoiceAllocator(4, 2, seed=0))

    def test_failed_page_in_active_and_failure_sets(self):
        scheme = self.make_tight()
        failed = None
        for v in range(20):
            if scheme.ram_insert(v) is None:
                failed = v
                break
        assert failed is not None
        assert scheme.is_failed(failed)
        assert failed in scheme.active_set
        assert failed in scheme.failure_set
        assert scheme.frame_of(failed) is None

    def test_failed_page_decodes_to_not_present(self):
        scheme = self.make_tight()
        failed = next(v for v in range(20) if scheme.ram_insert(v) is None)
        hpn = failed // scheme.hmax
        assert scheme.f(failed, scheme.psi(hpn)) == NOT_PRESENT

    def test_failure_ends_on_eviction(self):
        scheme = self.make_tight()
        failed = next(v for v in range(20) if scheme.ram_insert(v) is None)
        scheme.ram_evict(failed)
        assert not scheme.is_failed(failed)
        assert failed not in scheme.active_set

    def test_f_subset_of_a_invariant(self):
        scheme = self.make_tight()
        for v in range(20):
            scheme.ram_insert(v)
        scheme.check_invariants()


class TestTlbEvents:
    def test_insert_returns_current_psi(self):
        scheme = make_scheme()
        scheme.ram_insert(0)
        hpn = 0
        value = scheme.tlb_insert(hpn)
        assert value == scheme.psi(hpn)
        assert hpn in scheme.tlb_set

    def test_double_insert_raises(self):
        scheme = make_scheme()
        scheme.tlb_insert(0)
        with pytest.raises(ValueError):
            scheme.tlb_insert(0)

    def test_evict(self):
        scheme = make_scheme()
        scheme.tlb_insert(0)
        scheme.tlb_evict(0)
        assert 0 not in scheme.tlb_set
        with pytest.raises(KeyError):
            scheme.tlb_evict(0)

    def test_decode_requires_tlb_residency(self):
        scheme = make_scheme()
        scheme.ram_insert(0)
        with pytest.raises(LookupError):
            scheme.decode(0)
        scheme.tlb_insert(0)
        assert scheme.decode(0) == scheme.frame_of(0)


class TestDecouplingProperty:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=250))
    @settings(max_examples=40)
    def test_invariants_under_arbitrary_policy(self, ops):
        """Any oblivious RAM-replacement behaviour keeps eq. (4) + inject."""
        scheme = make_scheme(IcebergAllocator(32, 4, lam=4.0, seed=9))
        active = set()
        for insert, v in ops:
            if insert and v not in active:
                scheme.ram_insert(v)
                active.add(v)
            elif not insert and v in active:
                scheme.ram_evict(v)
                active.remove(v)
        assert scheme.active_set == frozenset(active)
        scheme.check_invariants()


class TestApplyEvents:
    """`apply_events` must leave ψ/A/F exactly where the per-event
    `ram_evict`/`ram_insert` sequence would, in one folded pass."""

    def _streams(self, seed):
        import random

        rng = random.Random(seed)
        gen = make_scheme(IcebergAllocator(64, 8, lam=4.0, seed=seed))
        warm = []
        for vpn in range(48):
            if gen.ram_insert(vpn) is not None:
                warm.append(vpn)
            else:
                gen.ram_evict(vpn)  # keep the generator failure-free
        inserts, evicts = [], []
        first_evt = rng.choice([0, 3])
        vpn = 1000
        for k in range(50):
            if k >= first_evt:
                victim = rng.choice(sorted(gen._active))
                gen.ram_evict(victim)
                evicts.append(victim)
            inserts.append(vpn)
            if gen.ram_insert(vpn) is None:
                vpn += 1
                break
            vpn += 1
        return warm, inserts, evicts, first_evt

    @staticmethod
    def _state(scheme):
        return (
            dict(scheme._psi),
            set(scheme._active),
            set(scheme._failed),
            dict(scheme.allocator._frame_of),
        )

    def test_matches_per_event_sequence(self):
        for seed in range(6):
            warm, inserts, evicts, first_evt = self._streams(seed)
            ref = make_scheme(IcebergAllocator(64, 8, lam=4.0, seed=seed))
            bat = make_scheme(IcebergAllocator(64, 8, lam=4.0, seed=seed))
            for s in (ref, bat):
                for vpn in warm:
                    s.ram_insert(vpn)
            ref_failed = -1
            j = 0
            for k, vpn in enumerate(inserts):
                if k >= first_evt:
                    ref.ram_evict(evicts[j])
                    j += 1
                if ref.ram_insert(vpn) is None:
                    ref_failed = k
                    break
            failed = bat.apply_events(inserts, evicts, first_evt)
            assert failed == ref_failed
            assert self._state(bat) == self._state(ref)
            bat.check_invariants()

    def test_declines_with_pre_existing_failures(self):
        scheme = make_scheme()
        scheme._failed.add(7)
        scheme._active.add(7)
        assert scheme.apply_events([1], [], 1) is None

    def test_declines_without_bulk_allocator(self):
        from repro.core import FullyAssociativeAllocator

        alloc = FullyAssociativeAllocator(64)
        codec = TLBValueCodec.for_allocator(64, alloc, hmax=4)
        scheme = DecouplingScheme(alloc, codec)
        assert scheme.apply_events([1], [], 1) is None
