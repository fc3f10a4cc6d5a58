"""Miss-attribution pins: conservation, non-perturbation, engine contract.

The attribution layer's whole value is that it is *exact*: on any stream,
every TLB/page miss gets exactly one cause, so the per-cause counts sum
bit-identically to the ledger totals, and attaching the probe never
changes a single simulated counter. These tests pin that over every
registry algorithm × several stream shapes, on both engines, plus the
array-engine contract: every class with a batch handler replays
provenance vectorized, so an attributed segment stays on the array
engine, paging-failure bailouts included.
"""

import numpy as np
import pytest

from repro.bench.hotloop import FAILURE_MMS, HOTLOOP_CONFIG, key_stream
from repro.mmu import array_engine
from repro.mmu.base import MemoryManagementAlgorithm
from repro.mmu.registry import MM_NAMES, make_mm
from repro.obs import (
    ATTRIB_PREFIX,
    CAUSES,
    INTERF_PREFIX,
    AttributionProbe,
    ObsSnapshot,
)

TLB_ENTRIES = 64
RAM_PAGES = 1024
SEED = 0

#: stream shapes: skewed reuse (evictions + refaults), near-uniform
#: (heavy capacity churn), and a cyclic scan (worst case for LRU).
STREAMS = {
    "skewed": lambda: key_stream(4000, 1 << 12, 1 << 8, 90, seed=SEED),
    "uniform": lambda: key_stream(4000, 1 << 12, 1 << 8, 10, seed=SEED),
    "scan": lambda: [i % (1 << 10) for i in range(4000)],
}


def _observed(algorithm, engine="object"):
    mm = make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED, engine=engine)
    return mm, AttributionProbe().observe(mm)


@pytest.mark.parametrize("algorithm", MM_NAMES)
@pytest.mark.parametrize("stream", sorted(STREAMS))
class TestConservation:
    def test_every_tlb_miss_has_exactly_one_cause(self, algorithm, stream):
        mm, probe = _observed(algorithm)
        mm.run(STREAMS[stream]())
        assert probe.family_total("tlb") == mm.ledger.tlb_misses
        assert sum(probe.cause_totals("tlb").values()) == mm.ledger.tlb_misses

    def test_ram_family_matches_structure_misses(self, algorithm, stream):
        mm, probe = _observed(algorithm)
        mm.run(STREAMS[stream]())
        sites = dict(
            (family, struct)
            for family, struct, _page_of in (
                mm.attribution_sites()
            )
        )
        if "ram" not in sites:
            pytest.skip(f"{algorithm} exposes no ram site")
        assert probe.family_total("ram") == sites["ram"].misses

    def test_probe_never_perturbs_the_ledger(self, algorithm, stream):
        trace = STREAMS[stream]()
        plain = make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED)
        plain.run(trace)
        mm, _probe = _observed(algorithm)
        mm.run(trace)
        assert mm.ledger.as_dict() == plain.ledger.as_dict()


@pytest.mark.parametrize("algorithm", MM_NAMES)
class TestEngineContract:
    def test_engines_classify_bit_identically(self, algorithm, engine_calls):
        # engine_calls lifts the floors: the stream is shorter than
        # base-page's, which would keep its array side on the object engine
        trace = np.asarray(STREAMS["skewed"](), dtype=np.int64)
        obj, p_obj = _observed(algorithm, engine="object")
        obj.run(trace)
        arr, p_arr = _observed(algorithm, engine="array")
        arr.run(trace)
        assert obj.ledger.as_dict() == arr.ledger.as_dict()
        assert p_obj.counts == p_arr.counts
        assert p_obj.matrix == p_arr.matrix
        if array_engine.supports(arr):
            assert engine_calls == [(len(trace), len(trace))]

    def test_array_engine_provenance_gate(self, algorithm):
        """Attribution gates nothing: every class with a batch handler
        serves the whole attributed trace on the array engine, and only a
        class without one (thp) declines."""
        trace = np.asarray(STREAMS["skewed"](), dtype=np.int64)
        mm, probe = _observed(algorithm, engine="array")
        served = array_engine.try_run(mm, trace)
        if array_engine.supports(mm):
            assert served == len(trace)
            assert probe.family_total("tlb") == mm.ledger.tlb_misses > 0
        else:
            assert served is None


@pytest.mark.parametrize("step", [None, 700, 3_000], ids=["whole", "700", "3000"])
@pytest.mark.parametrize("algorithm", sorted(FAILURE_MMS))
def test_paging_failures_keep_attribution_on_the_array_engine(
    algorithm, step, engine_calls
):
    """A paging failure bails the array engine out mid-segment; the ghosts
    must have seen exactly the misses and evictions before the bailout, so
    the object engine finishes the classification where the kernels
    stopped."""
    geom = FAILURE_MMS[algorithm]
    trace = np.asarray(
        key_stream(4_000, geom["universe"], geom["universe"] // 8, 50, seed=SEED),
        dtype=np.int64,
    )
    step = step or len(trace)
    runs = {}
    for engine in ("object", "array"):
        mm = make_mm(
            algorithm, geom["tlb_entries"], geom["ram_pages"],
            seed=HOTLOOP_CONFIG["fail_mm_seed"], engine=engine,
        )
        probe = AttributionProbe().observe(mm)
        for lo in range(0, len(trace), step):
            mm.run(trace[lo : lo + step])
        runs[engine] = (mm.ledger.as_dict(), probe.counts, probe.matrix)
    ledger = runs["object"][0]
    assert ledger["paging_failures"] > 0
    assert runs["array"] == runs["object"]
    # the engine served every call whole up to the one holding the first
    # failure, and that one up to its failing access
    bailout = next(k for k, (n, served) in enumerate(engine_calls) if served != n)
    n, served = engine_calls[bailout]
    assert served is not None and 0 < served < n


class TestCauses:
    def test_shootdown_classifies_refault_misses(self):
        mm, probe = _observed("base-page")
        mm.run(STREAMS["skewed"]())
        dropped = mm.shootdown(0, 1 << 8)
        assert dropped > 0
        mm.run(STREAMS["skewed"]())
        totals = probe.cause_totals("tlb")
        assert totals["shootdown"] > 0
        assert probe.family_total("tlb") == mm.ledger.tlb_misses

    def test_thp_promotion_flush_classified(self):
        mm, probe = _observed("thp")
        mm.run(STREAMS["skewed"]())
        assert probe.cause_totals("tlb")["promotion_flush"] > 0
        assert probe.family_total("tlb") == mm.ledger.tlb_misses

    def test_reset_zeroes_counts_but_keeps_ghost_tags(self):
        mm, probe = _observed("base-page")
        trace = STREAMS["uniform"]()
        mm.run(trace)
        assert probe.counts
        probe.reset()
        assert probe.counts == {} and probe.matrix == {}
        mm.run(trace)  # warm caches + surviving tags: refaults classify
        totals = probe.cause_totals("tlb")
        assert totals["capacity_self"] > 0
        assert probe.family_total("tlb") > 0

    def test_on_phase_measure_resets(self):
        probe = AttributionProbe()
        probe.counts[(0, "tlb", "cold")] = 3
        probe.on_phase(0, "warmup")
        assert probe.counts
        probe.on_phase(0, "measure")
        assert probe.counts == {}

    def test_single_tenant_attributes_to_asid_zero(self):
        mm, probe = _observed("base-page")
        mm.run(STREAMS["skewed"]())
        assert {asid for asid, _f, _c in probe.counts} == {0}


class TestApi:
    def test_observe_rejects_siteless_algorithm(self):
        class Bare(MemoryManagementAlgorithm):
            def access(self, vpn):  # pragma: no cover - never driven
                pass

        with pytest.raises(ValueError, match="no .*attribution sites"):
            AttributionProbe().observe(Bare())

    def test_observe_unwraps_validating_mm(self):
        from repro.check import ValidatingMM

        inner = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, seed=SEED)
        mm = ValidatingMM(inner)
        probe = AttributionProbe().observe(mm)
        assert inner.tlb._ghost is not None and inner.ram._ghost is not None
        mm.run(STREAMS["skewed"]())
        assert probe.family_total("tlb") == mm.ledger.tlb_misses
        probe.detach()
        assert inner.tlb._ghost is None and inner.ram._ghost is None

    def test_probe_is_batch_safe(self):
        probe = AttributionProbe()
        assert probe.batch_safe and probe.batch_interval is None

    def test_attrib_counters_fold_into_snapshots_associatively(self):
        mm, probe = _observed("base-page")
        mm.run(STREAMS["skewed"]())
        snap = ObsSnapshot.from_run(mm.ledger, probe=probe)
        attrib_keys = [
            k for k in snap.counters if k.startswith(ATTRIB_PREFIX)
        ]
        assert attrib_keys
        assert all(
            k.split(":")[2] in CAUSES for k in attrib_keys
        )
        assert sum(
            v for k, v in snap.counters.items()
            if k.startswith(f"{ATTRIB_PREFIX}tlb:")
        ) == mm.ledger.tlb_misses
        merged = snap.merge(snap)
        for k in attrib_keys:
            assert merged.counters[k] == 2 * snap.counters[k]

    def test_tenant_counters_partition_the_totals(self):
        mm, probe = _observed("base-page")
        probe.asid_stride = 1 << 9  # pretend two tenants by key striding
        mm.run([i % (1 << 10) for i in range(3000)])
        per_tenant = [probe.tenant_counters(a) for a in (0, 1)]
        total: dict = {}
        for counters in per_tenant:
            for k, v in counters.items():
                if k.startswith(INTERF_PREFIX):
                    continue
                total[k] = total.get(k, 0) + v
        assert total == {
            k: v for k, v in probe.attrib_counters().items()
            if k.startswith(ATTRIB_PREFIX)
        }
