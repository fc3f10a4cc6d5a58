"""Engine parity on the committed golden streams.

CI's engine-parity job runs this module under both numpy 1.26 and 2.x.
For every committed golden cell (registry algorithm × workload) it
replays the identical trace on the object and array engines and fails on
any counter divergence; the array-engine ledger is additionally pinned
against the committed per-access rows, aggregated to ledger totals (the
array engine emits no events, so totals are the strongest golden check
it can face).

The multi-tenant goldens (``tests/tenancy/goldens.py``) extend the same
pinning to ASID-striped runs: the object engine must reproduce the
committed stream row for row, and the array engine must accept every
span segment of these schedules, land on exactly the golden totals, and
end in the object engine's deep state.
"""

import pytest

from repro.check import (
    StreamTap,
    diff_engine_ledgers,
    first_divergence,
    golden_totals,
    load_golden,
    record_stream,
)
from repro.mmu import array_engine
from repro.mmu.registry import make_mm
from repro.obs import NULL_PROBE

from ..mmu.test_array_engine import _state_sig
from ..tenancy.goldens import build_sim
from ..tenancy.goldens import golden_cases as mt_golden_cases
from .goldens import (
    RAM_PAGES,
    SEED,
    TLB_ENTRIES,
    WARMUP,
    build_failure_mm,
    build_failure_trace,
    build_trace,
    failure_cases,
    golden_cases,
)

CASES = list(golden_cases())
CASE_IDS = [f"{algorithm}-{workload}" for algorithm, workload, _ in CASES]


@pytest.mark.parametrize(("algorithm", "workload", "path"), CASES, ids=CASE_IDS)
class TestEngineParity:
    def test_engines_agree_on_full_ledger(self, algorithm, workload, path):
        def factory():
            return make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED)

        report = diff_engine_ledgers(
            factory, build_trace(workload), warmup=WARMUP
        )
        assert report.identical, (
            f"{algorithm}/{workload}: {report.describe()}"
        )

    def test_array_ledger_matches_golden_totals(self, algorithm, workload, path):
        _, rows = load_golden(path)
        totals = golden_totals(rows)
        mm = make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED, engine="array")
        trace = build_trace(workload)
        mm.run(trace[:WARMUP])
        evictions0 = mm._eviction_count()
        mm.reset_stats()
        ledger = mm.run(trace[WARMUP:])
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert mm._eviction_count() - evictions0 == totals["evictions"]


MT_CASES = list(mt_golden_cases())
MT_IDS = [f"{algorithm}-t{k}" for algorithm, k, _ in MT_CASES]


@pytest.mark.parametrize(("algorithm", "k", "path"), MT_CASES, ids=MT_IDS)
class TestMultiTenantEngineParity:
    def test_object_engine_matches_golden_stream(self, algorithm, k, path):
        _, golden_rows = load_golden(path)
        sim = build_sim(algorithm, k, engine="object")
        tap = StreamTap()
        sim.mm.probe = tap
        try:
            result = sim.run()
        finally:
            sim.mm.probe = NULL_PROBE
        div = first_divergence(tap.as_tuples(), golden_rows)
        assert div is None, f"{algorithm}/t{k}: {div.describe()}"
        # the per-access replay credits every tenant exactly the golden
        # rows of its own slice
        result.verify_counter_sums()
        for record in result.records:
            totals = golden_totals(
                [row for row in golden_rows if row[1] // result.stride == record.asid]
            )
            ledger = record.ledger
            assert totals["accesses"] > 0, record.name
            assert ledger.accesses == totals["accesses"], record.name
            assert ledger.tlb_misses == totals["tlb_misses"], record.name
            assert ledger.ios == totals["ios"], record.name
            assert ledger.decoding_misses == totals["decoding_misses"], record.name

    def test_array_engine_falls_back_to_golden_totals(
        self, algorithm, k, path, monkeypatch
    ):
        # no probe here: an attached tap would itself force the object
        # path. Every span segment must be accepted — a handler that
        # silently declines warm multi-tenant segments fails here, even
        # though the object fallback would still land on the totals.
        _, golden_rows = load_golden(path)
        totals = golden_totals(golden_rows)
        results = []
        real_try_run = array_engine.try_run

        def counting_try_run(mm, trace):
            results.append(real_try_run(mm, trace))
            return results[-1]

        monkeypatch.setattr(array_engine, "try_run", counting_try_run)
        sim = build_sim(algorithm, k, engine="array")
        result = sim.run()
        assert results, "the array engine was never asked"
        assert all(r is not None for r in results), (
            f"{sum(r is None for r in results)} of {len(results)} segments declined"
        )
        ledger = result.ledger
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert sim.mm._eviction_count() == totals["evictions"]
        result.verify_counter_sums()

    def test_engines_agree_on_tenant_ledgers(self, algorithm, k, path):
        sim_obj = build_sim(algorithm, k, engine="object")
        sim_arr = build_sim(algorithm, k, engine="array")
        res_obj = sim_obj.run()
        res_arr = sim_arr.run()
        assert _state_sig(sim_obj.mm) == _state_sig(sim_arr.mm)
        assert res_obj.ledger.as_dict() == res_arr.ledger.as_dict()
        assert res_obj.switches == res_arr.switches
        assert [e.dropped for e in res_obj.shootdowns] == [
            e.dropped for e in res_arr.shootdowns
        ]
        for a, b in zip(res_obj.records, res_arr.records):
            assert a.ledger.snapshot() == b.ledger.snapshot(), a.name


FAIL_CASES = list(failure_cases())
FAIL_IDS = [algorithm for algorithm, _ in FAIL_CASES]


@pytest.mark.parametrize(("algorithm", "path"), FAIL_CASES, ids=FAIL_IDS)
class TestPagingFailureParity:
    """Differential paging-failure accounting.

    These cells are undersized on purpose so the stream fails mid-run
    (at least twice — pinned at regen time). The array engine must bail
    out of its batch kernel at the exact failing access with a ledger
    bit-identical to the object engine's, whether the failing segment is
    cold or resumes warm state, and the full-run stream must stay on the
    committed golden.
    """

    def test_object_engine_matches_golden_stream(self, algorithm, path):
        header, golden_rows = load_golden(path)
        mm = build_failure_mm(algorithm)
        rows = record_stream(mm, build_failure_trace(algorithm))
        div = first_divergence(rows, golden_rows)
        assert div is None, f"{algorithm}: {div.describe()}"
        assert mm.ledger.as_dict() == header["ledger"]
        assert header["ledger"]["paging_failures"] >= 2

    def test_cold_segment_bails_at_the_failing_access(self, algorithm, path):
        # truncate the trace right after the first failure: the array
        # engine's bailout ledger at that access must equal the object
        # engine's, field for field (accesses/tlb_hits/ios/... all of it)
        header, _ = load_golden(path)
        first_fail = header["failures"][0]
        trace = build_failure_trace(algorithm)[: first_fail + 1]
        obj = build_failure_mm(algorithm, engine="object")
        arr = build_failure_mm(algorithm, engine="array")
        obj.run(trace)
        arr.run(trace)
        assert obj.ledger.paging_failures == 1
        assert obj.ledger.as_dict() == arr.ledger.as_dict()

    def test_warm_resumed_segment_bails_identically(self, algorithm, path):
        # warm both engines up to the pre-failure split, reset counters,
        # then resume into the failure: the measurement-phase ledgers
        # must agree at the exact failing access despite the warm state
        header, _ = load_golden(path)
        first_fail = header["failures"][0]
        warm = header["warm_split"]
        assert 0 < warm < first_fail
        trace = build_failure_trace(algorithm)
        ledgers = {}
        for engine in ("object", "array"):
            mm = build_failure_mm(algorithm, engine=engine)
            mm.run(trace[:warm])
            assert mm.ledger.paging_failures == 0
            mm.reset_stats()
            mm.run(trace[warm : first_fail + 1])
            ledgers[engine] = mm.ledger.as_dict()
        assert ledgers["object"]["paging_failures"] == 1
        assert ledgers["object"] == ledgers["array"]

    def test_array_ledger_matches_golden_totals(self, algorithm, path):
        header, rows = load_golden(path)
        totals = golden_totals(rows)
        mm = build_failure_mm(algorithm, engine="array")
        ledger = mm.run(build_failure_trace(algorithm))
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert ledger.as_dict() == header["ledger"]
