"""Tests for the batch-safe sampling probe (repro.obs.sampling).

Three contracts, in rising order of importance:

* the probe collects from its ``on_batch`` flushes alone, and flushes of
  any length (one access each, ragged cuts, one for the whole stream)
  collect bit-identical state, so detail mode and flush cadence change
  depth, never the numbers;
* the scale-up estimators are unbiased against the exact counters of the
  committed golden streams (``tests/data/golden``);
* a batch-safe probe leaves the ``mmu`` fast paths enabled — attaching a
  default ``SamplingProbe`` must not fall back to the per-access replay.
"""

import random

import numpy as np
import pytest

from repro.bench.hotloop import FAILURE_MMS, HOTLOOP_CONFIG, key_stream
from repro.check import load_golden
from repro.mmu import MemoryManagementAlgorithm, PhysicalHugePageMM
from repro.mmu.registry import make_mm
from repro.obs import SamplingProbe
from repro.obs.hist import LogHistogram
from repro.obs.sampling import COUNTER_FIELDS, _splitmix64_many, splitmix64
from repro.sim import simulate
from tests.check.goldens import golden_cases

GOLDEN_VPNS = {}
for _algorithm, _workload, _path in golden_cases():
    if _algorithm == "base-page":  # one algorithm: the vpn column is shared
        _, rows = load_golden(_path)
        GOLDEN_VPNS[_workload] = [vpn for _t, vpn, *_rest in rows]


class _Ledger:
    """Stands in for a CostLedger: ``on_batch`` reads only ``snapshot()``."""

    def __init__(self, accesses: int) -> None:
        self.accesses = accesses

    def snapshot(self):
        return (self.accesses, 0, 0, 0, 0, 0)


def _feed(probe, vpns, t0=0, sizes=None):
    """Flush *vpns* into *probe* from access index *t0*, in flushes of
    *sizes* accesses (default: one flush), each a ledger delta of one
    access per VPN."""
    lo = 0
    for n in sizes or [len(vpns)]:
        probe.on_batch(t0 + lo, vpns[lo : lo + n], _Ledger(lo + n), (lo, 0, 0, 0, 0, 0))
        lo += n
    assert lo == len(vpns)
    return probe


def _state(probe):
    return (
        probe.counters,
        probe.sampled_accesses,
        probe.tracked_accesses,
        probe._last_seen,
        probe.hists,
    )


class TestSplitmix:
    def test_vectorized_matches_scalar(self):
        xs = np.random.default_rng(0).integers(
            0, 1 << 63, 4096, dtype=np.uint64
        )
        many = _splitmix64_many(xs)
        assert [splitmix64(int(x)) for x in xs[:256].tolist()] == many[
            :256
        ].tolist()

    def test_threshold_covers_rate_one(self):
        assert SamplingProbe(1.0)._threshold == (1 << 64) - 1


class TestScalarBatchParity:
    """One flush per access, ragged flushes and one flush for the whole
    stream agree bit-for-bit, and equal a direct per-access walk."""

    @pytest.mark.parametrize("workload", sorted(GOLDEN_VPNS))
    @pytest.mark.parametrize("t0", [0, 7])
    def test_identical_state(self, workload, t0):
        vpns = GOLDEN_VPNS[workload]
        whole = _feed(SamplingProbe(1 / 16, seed=3), vpns, t0)
        rng = random.Random(t0)
        ragged = []
        while sum(ragged) < len(vpns):
            ragged.append(min(rng.randint(1, 97), len(vpns) - sum(ragged)))
        for sizes in ([1] * len(vpns), ragged):
            cut = _feed(SamplingProbe(1 / 16, seed=3), vpns, t0, sizes)
            assert _state(cut) == _state(whole)

        # the direct walk: stride samples, hashed tracking, and each
        # tracked page's reuse distance to its last sighting
        salt, threshold = whole._salt, whole._threshold
        last_seen, reuse, tracked = {}, LogHistogram(), 0
        for i, vpn in enumerate(vpns):
            if splitmix64(vpn ^ salt) < threshold:
                tracked += 1
                if vpn in last_seen:
                    reuse.record(t0 + i - last_seen[vpn])
                last_seen[vpn] = t0 + i
        sampled = sum(1 for i in range(len(vpns)) if (t0 + i) % whole.stride == 0)
        assert whole.sampled_accesses == sampled
        assert whole.tracked_accesses == tracked
        assert whole._last_seen == last_seen
        assert whole.hists["reuse_distance"] == reuse
        assert reuse.n  # the golden streams do revisit tracked pages
        assert whole.counters["accesses"] == len(vpns)


class TestUnbiasedness:
    """Scale-ups vs the exact counts of the golden streams."""

    @pytest.mark.parametrize("workload", sorted(GOLDEN_VPNS))
    def test_stride_estimator_is_exact_up_to_one_stride(self, workload):
        vpns = GOLDEN_VPNS[workload]
        probe = _feed(SamplingProbe(1 / 16, seed=0), vpns)
        estimate = probe.estimates()["accesses_from_stride"]
        assert abs(estimate - len(vpns)) < probe.stride

    @pytest.mark.parametrize("workload", sorted(GOLDEN_VPNS))
    def test_hash_estimators_within_sampling_error(self, workload):
        vpns = GOLDEN_VPNS[workload]
        probe = _feed(SamplingProbe(1 / 8, seed=0), vpns)
        est = probe.estimates()

        # each access is tracked with probability ~rate, so the estimator
        # error is ~sqrt(tracked)/rate; allow 5 sigma to keep this a fixed
        # (seeded, non-flaky) assertion rather than a statistical one
        tolerance = 5 * np.sqrt(probe.tracked_accesses) / probe.rate
        assert abs(est["accesses_from_hash"] - len(vpns)) < tolerance

        distinct = len(set(vpns))
        tolerance = 5 * np.sqrt(len(probe._last_seen)) / probe.rate
        assert abs(est["distinct_pages_from_hash"] - distinct) < tolerance


class TestProbeModes:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            SamplingProbe(0.0)
        with pytest.raises(ValueError, match="rate"):
            SamplingProbe(1.5)

    def test_detail_mode_gives_up_batch_safety(self):
        assert SamplingProbe(1 / 64).batch_safe is True
        detail = SamplingProbe(1 / 64, detail=True)
        assert detail.batch_safe is False
        assert set(detail.hists) == {
            "reuse_distance", "tlb_miss_gap", "io_batch", "eviction_batch"
        }

    def test_measure_phase_resets_collection(self):
        probe = _feed(SamplingProbe(1.0, seed=0), [42])
        assert probe.tracked_accesses == 1
        probe.on_phase(10, "measure")
        assert probe.tracked_accesses == 0
        assert probe._last_seen == {}

    def test_as_dict_is_json_ready(self):
        import json

        probe = _feed(SamplingProbe(1 / 4, seed=1), GOLDEN_VPNS["uniform"][:200])
        payload = json.loads(json.dumps(probe.as_dict()))
        assert payload["stride"] == 4
        assert payload["counters"]["accesses"] == 200

    @pytest.mark.parametrize("detail", [False, True])
    def test_counters_equal_the_ledger(self, detail):
        # the undersized decoupled machine of the hotloop's failure rows,
        # so paging failures and decoding misses occur; the per-access
        # detail path counts them exactly too
        geom, cfg = FAILURE_MMS["decoupled"], HOTLOOP_CONFIG
        mm = make_mm(
            "decoupled", geom["tlb_entries"], geom["ram_pages"], seed=cfg["fail_mm_seed"]
        )
        # (stream seed 2 puts two failures after the warm-up)
        trace = key_stream(
            4000, geom["universe"], cfg["hot_universe"], cfg["fail_hot_percent"], seed=2
        )
        probe = SamplingProbe(1 / 8, seed=0, detail=detail)
        ledger = simulate(mm, trace, warmup=500, probe=probe)
        assert ledger.paging_failures > 0 and ledger.tlb_hits > 0
        assert probe.counters == {k: getattr(ledger, k) for k in COUNTER_FIELDS}
        assert probe.sampled_accesses == -(-ledger.accesses // probe.stride)


class TestFastPathStaysEnabled:
    """The acceptance gate: a batch-safe probe must not force the
    per-access replay (``MemoryManagementAlgorithm._run_probed`` or the
    base per-access ``_run_batch`` loop)."""

    def _poisoned_mm(self, monkeypatch):
        def boom(self, trace):
            raise AssertionError("fell back to the per-access base replay")

        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_probed", boom)
        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_batch", boom)
        return PhysicalHugePageMM(64, 1024, huge_page_size=16)

    def test_batch_safe_probe_rides_the_fast_path(self, monkeypatch):
        mm = self._poisoned_mm(monkeypatch)
        mm.probe = SamplingProbe(1 / 8, seed=0)
        trace = np.random.default_rng(0).integers(0, 4096, 2000)
        ledger = mm.run(trace)  # must NOT reach the poisoned base replays
        assert ledger.accesses == 2000
        assert mm.probe.counters["accesses"] == 2000
        assert mm.probe.counters["ios"] == ledger.ios
        assert mm.probe.counters["tlb_misses"] == ledger.tlb_misses

    def test_detail_probe_falls_back(self, monkeypatch):
        mm = self._poisoned_mm(monkeypatch)
        mm.probe = SamplingProbe(1 / 8, seed=0, detail=True)
        with pytest.raises(AssertionError, match="per-access base replay"):
            mm.run(np.arange(100))

    def test_probed_ledger_identical_to_unprobed(self):
        trace = np.random.default_rng(1).integers(0, 4096, 3000)
        plain = PhysicalHugePageMM(64, 1024, huge_page_size=16)
        plain.run(trace)
        probed = PhysicalHugePageMM(64, 1024, huge_page_size=16)
        probed.probe = SamplingProbe(1 / 8, seed=0)
        probed.run(trace)
        assert plain.ledger.as_dict() == probed.ledger.as_dict()
