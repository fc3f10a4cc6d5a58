"""MultiTenantSim semantics: attribution, shootdowns, arrivals, warmup."""

import numpy as np
import pytest

from repro.check import InvariantViolation
from repro.mmu import BasePageMM, DecoupledMM, PhysicalHugePageMM
from repro.mmu.registry import make_mm
from repro.tenancy import MultiTenantSim, Tenant
from repro.workloads import UniformWorkload, ZipfWorkload

from ..mmu.test_array_engine import _assert_served_whole


def _tenants(k, accesses=600, va_pages=256, arrival_step=0):
    return [
        Tenant(
            f"t{i}",
            workload=ZipfWorkload(va_pages, s=1.0),
            accesses=accesses,
            arrival=i * arrival_step,
            seed=i,
        )
        for i in range(k)
    ]


class TestTenant:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            Tenant("t", workload=UniformWorkload(8), trace=[1, 2], accesses=2)
        with pytest.raises(ValueError, match="exactly one"):
            Tenant("t")

    def test_workload_requires_accesses(self):
        with pytest.raises(ValueError, match="accesses"):
            Tenant("t", workload=UniformWorkload(8))

    def test_trace_bounds_accesses(self):
        with pytest.raises(ValueError, match="exceeds trace length"):
            Tenant("t", trace=[0, 1, 2], accesses=5)

    def test_negative_pages_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Tenant("t", trace=[0, -1, 2])

    def test_take_and_exhaustion(self):
        t = Tenant("t", trace=[5, 6, 7, 8, 9])
        assert t.va_pages == 10
        assert list(t.take(2)) == [5, 6]
        assert t.remaining == 3
        assert list(t.take(99)) == [7, 8, 9]
        assert t.done
        t.reset()
        assert t.remaining == 5 and t.ledger.accesses == 0

    def test_deterministic_stream(self):
        a = Tenant("a", workload=ZipfWorkload(64, s=1.0), accesses=100, seed=3)
        b = Tenant("b", workload=ZipfWorkload(64, s=1.0), accesses=100, seed=3)
        assert np.array_equal(a.trace, b.trace)


class TestAttribution:
    def test_counter_sums_match_global(self):
        mm = make_mm("decoupled", 32, 2048, seed=0)
        result = MultiTenantSim(mm, _tenants(4), quantum=41).run()
        result.verify_counter_sums()
        assert sum(r.ledger.accesses for r in result.records) == 4 * 600

    def test_aggregate_snapshot_equals_global_counters(self):
        mm = make_mm("base-page", 32, 2048, seed=0)
        result = MultiTenantSim(mm, _tenants(3), quantum=50).run()
        agg = result.aggregate_snapshot()
        for key in ("accesses", "ios", "tlb_misses", "tlb_hits"):
            assert agg.counters[key] == getattr(result.ledger, key)
        assert agg.meta["runs"] == 3

    def test_turn_accounting(self):
        mm = BasePageMM(32, 1024)
        result = MultiTenantSim(mm, _tenants(2, accesses=100), quantum=30).run()
        # 100 accesses at quantum 30 = 4 turns each, strictly alternating
        assert [r.turns for r in result.records] == [4, 4]
        assert result.turns == 8
        assert result.switches == 7


class TestShootdowns:
    def test_exit_shootdown_clears_the_slice(self):
        mm = PhysicalHugePageMM(64, 2048, huge_page_size=16)
        sim = MultiTenantSim(mm, _tenants(2, accesses=400), quantum=37)
        result = sim.run()
        assert len(result.shootdowns) == 2
        assert all(e.reason == "exit" for e in result.shootdowns)
        assert result.shootdown_drops > 0
        # nothing survives for either dead slice
        spans = sim.mm.inspector().translation_spans()
        assert spans == []

    def test_shootdown_is_ledger_free(self):
        mm = BasePageMM(32, 1024)
        sim = MultiTenantSim(mm, _tenants(2, accesses=300), quantum=50)
        result = sim.run()
        before = result.ledger.snapshot()
        # a manual (φ-change style) shootdown of a live-slice range
        sim.shootdown_tenant(0)
        assert result.ledger.snapshot() == before
        assert sim._shootdowns[-1].reason == "phi-change"

    def test_shootdown_on_exit_false_leaves_entries(self):
        mm = BasePageMM(64, 2048)
        sim = MultiTenantSim(
            mm, _tenants(2, accesses=400), quantum=37, shootdown_on_exit=False
        )
        result = sim.run()
        assert result.shootdowns == []
        assert list(sim.mm.inspector().translation_spans())

    def test_stale_entries_fail_coverage_validation(self):
        # with exit shootdowns disabled the driver makes no coverage
        # guarantee, so the run completes — but an explicit audit with the
        # dead ASIDs excluded must flag the surviving entries as stale
        mm = BasePageMM(64, 2048)
        sim = MultiTenantSim(
            mm,
            _tenants(2, accesses=400),
            quantum=37,
            shootdown_on_exit=False,
            validate=True,
        )
        sim.run()
        with pytest.raises(InvariantViolation, match="stale translation"):
            sim.mm.oracle.check_asid_coverage(sim.stride, set())

    def test_decoupled_shootdown_keeps_scheme_consistent(self):
        mm = DecoupledMM(32, 2048, seed=0)
        sim = MultiTenantSim(mm, _tenants(3, accesses=400), quantum=29)
        sim.run()
        # T-set/TLB sync survives the exit shootdowns
        mm.system.check_invariants()


class TestPhiRemap:
    def test_remap_fires_at_the_cadence(self):
        mm = BasePageMM(32, 1024)
        sim = MultiTenantSim(
            mm, _tenants(2, accesses=300), quantum=50, remap_every=2
        )
        result = sim.run()
        remaps = [e for e in result.shootdowns if e.reason == "phi-change"]
        exits = [e for e in result.shootdowns if e.reason == "exit"]
        # 300 accesses at quantum 50 = 6 turns each; a remap every 2nd
        # turn, except a tenant's final turn (the exit shootdown owns it)
        assert len(remaps) == 4
        assert len(exits) == 2
        assert sum(e.dropped for e in remaps) > 0

    def test_remap_is_ledger_free_and_fully_attributed(self):
        for algorithm in ("base-page", "physical-huge", "decoupled", "hybrid"):
            plain = make_mm(algorithm, 32, 2048, seed=0)
            base = MultiTenantSim(plain, _tenants(3), quantum=41).run()
            remapped_mm = make_mm(algorithm, 32, 2048, seed=0)
            remapped = MultiTenantSim(
                remapped_mm, _tenants(3), quantum=41, remap_every=3
            ).run()
            remapped.verify_counter_sums()
            # the flush itself is free and touches only the TLB: the access
            # count and the paging layer (ios) are unchanged, and its price
            # shows up purely as a different TLB hit/miss split
            assert remapped.ledger.accesses == base.ledger.accesses
            assert remapped.ledger.ios == base.ledger.ios
            assert any(
                e.reason == "phi-change" for e in remapped.shootdowns
            )

    def test_remap_validates_under_the_asid_oracle(self):
        mm = make_mm("decoupled", 32, 2048, seed=0)
        result = MultiTenantSim(
            mm, _tenants(3, accesses=400), quantum=29,
            remap_every=2, validate=True,
        ).run()
        assert any(e.reason == "phi-change" for e in result.shootdowns)

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_remap_audit_allows_exited_slices_without_exit_shootdowns(self, engine):
        # tenant 0 exits after two turns and keeps its entries; a later
        # remap of another tenant must not report them as stale. (A
        # validated machine replays every access under the oracle, so the
        # audit sees the same replay whichever engine the machine has.)
        mm = make_mm("base-page", 16, 64, seed=0, engine=engine)
        tenants = [
            Tenant(f"t{i}", trace=np.random.default_rng(0).integers(0, 64, n))
            for i, n in enumerate((32, 400, 400))
        ]
        result = MultiTenantSim(
            mm, tenants, quantum=16, remap_every=2,
            shootdown_on_exit=False, validate=True,
        ).run()
        assert all(e.reason == "phi-change" for e in result.shootdowns)
        assert result.shootdowns[0].clock > result.records[0].finished

    def test_remap_engine_parity(self, engine_calls):
        # phi-change shootdowns between quanta must leave both engines
        # bit-identical — the array engine resumes from the flushed TLB.
        # The spans are shorter than the floors, which engine_calls lifts
        for algorithm in ("decoupled", "hybrid"):
            ledgers = {}
            for engine in ("object", "array"):
                mm = make_mm(algorithm, 32, 2048, seed=0)
                result = MultiTenantSim(
                    mm, _tenants(3, accesses=500), quantum=37,
                    remap_every=2, engine=engine,
                ).run()
                ledgers[engine] = (
                    result.ledger.as_dict(),
                    [r.ledger.snapshot() for r in result.records],
                    len(result.shootdowns),
                )
            assert ledgers["object"] == ledgers["array"]
            _assert_served_whole(mm, engine_calls)
            engine_calls.clear()

    def test_remap_every_validation(self):
        with pytest.raises(ValueError, match="remap_every"):
            MultiTenantSim(
                BasePageMM(8, 64), _tenants(1, accesses=10), remap_every=0
            )


class TestArrivalsAndWarmup:
    def test_late_arrival_fast_forwards_the_clock(self):
        tenants = [
            Tenant("early", trace=np.arange(100) % 50),
            Tenant("late", trace=np.arange(100) % 50, arrival=5000),
        ]
        mm = BasePageMM(32, 1024)
        result = MultiTenantSim(mm, tenants, quantum=64).run()
        assert result.records[1].finished >= 5000
        assert result.ledger.accesses == 200  # idle time issues nothing

    def test_warmup_resets_global_and_tenant_counters(self):
        mm = BasePageMM(32, 1024)
        result = MultiTenantSim(
            mm, _tenants(2, accesses=500), quantum=64, warmup=400
        ).run()
        assert result.ledger.accesses == 600  # 1000 total - 400 warm
        result.verify_counter_sums()

    def test_warmup_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            MultiTenantSim(
                BasePageMM(8, 64), _tenants(1, accesses=100), warmup=101
            )

    def test_rerun_is_rejected(self):
        sim = MultiTenantSim(BasePageMM(8, 64), _tenants(1, accesses=50))
        sim.run()
        with pytest.raises(RuntimeError, match="already consumed"):
            sim.run()

    def test_empty_tenants_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            MultiTenantSim(BasePageMM(8, 64), [])


class TestAsidContractErrors:
    def test_isolation_violation_is_caught(self):
        # tenant claims va_pages=64 but its trace strays past the stride
        mm = BasePageMM(32, 1024)
        wide = Tenant("narrow", trace=[1, 2, 3], accesses=3)
        liar = Tenant("liar", trace=[0, 1, 200], accesses=3)
        liar._trace = np.array([0, 1, 200], dtype=np.int64)
        # narrow slice: bind via the narrow tenant only
        sim = MultiTenantSim(mm, [wide], quantum=8, validate=True)
        with pytest.raises(InvariantViolation, match="phi-isolation"):
            sim.mm.oracle.check_asid_isolation(sim.stride, 1, liar.trace)

    def test_rebind_to_different_stride_rejected(self):
        mm = BasePageMM(8, 64)
        mm.bind_asid_space(16)
        with pytest.raises(ValueError, match="already bound"):
            mm.bind_asid_space(64)
