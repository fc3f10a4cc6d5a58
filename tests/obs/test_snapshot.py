"""Tests for the mergeable observability snapshot (repro.obs.snapshot).

Pin the merge algebra (associativity, the meta-conflict guard) and the
from_run lift: exact ledger counters, probe histograms and tallies,
allocator bucket loads, tagged metrics rows.
"""

import json

import numpy as np
import pytest

from repro.core import CostLedger
from repro.mmu import DecoupledMM, PhysicalHugePageMM
from repro.obs import IntervalMetrics, LogHistogram, ObsSnapshot, SamplingProbe
from repro.sim import simulate


def _trace(n=3000, pages=1 << 12, seed=0):
    return np.random.default_rng(seed).integers(0, pages, n)


def _snap(seed=0, label=None, metrics_every=None):
    mm = PhysicalHugePageMM(64, 1024, huge_page_size=16)
    probe = SamplingProbe(1 / 8, seed=3)
    metrics = IntervalMetrics(every=metrics_every) if metrics_every else None
    ledger = simulate(
        mm, _trace(seed=seed), warmup=500, probe=probe, metrics=metrics
    )
    return ObsSnapshot.from_run(
        ledger, probe=probe, metrics=metrics, mm=mm, label=label
    )


class TestFromRun:
    def test_counters_are_the_exact_ledger(self):
        mm = PhysicalHugePageMM(64, 1024, huge_page_size=16)
        probe = SamplingProbe(1 / 8, seed=3)
        ledger = simulate(mm, _trace(), warmup=500, probe=probe)
        snap = ObsSnapshot.from_run(ledger, probe=probe)
        for key in ("accesses", "ios", "tlb_misses", "tlb_hits"):
            assert snap.counters[key] == getattr(ledger, key)
        assert snap.counters["sampled_accesses"] == probe.sampled_accesses
        assert snap.counters["tracked_pages"] == len(probe._last_seen)
        assert snap.meta["runs"] == 1
        assert snap.meta["rate"] == probe.rate

    def test_histograms_are_defensive_copies(self):
        probe = SamplingProbe(1.0, seed=0)
        ledger = CostLedger()
        probe.on_batch(0, [i % 8 for i in range(64)], ledger, ledger.snapshot())
        snap = ObsSnapshot.from_run(_FakeLedger(), probe=probe)
        before = snap.hists["reuse_distance"].n
        # mutate the probe after snapshotting
        probe.on_batch(64, [0], ledger, ledger.snapshot())
        assert snap.hists["reuse_distance"].n == before

    def test_decoupled_mm_contributes_bucket_loads(self):
        mm = DecoupledMM(64, 1024, seed=0)
        ledger = mm.run(_trace(1000))
        snap = ObsSnapshot.from_run(ledger, mm=mm)
        assert "bucket_load" in snap.hists
        assert snap.hists["bucket_load"].n > 0

    def test_metrics_rows_are_tagged_with_the_label(self):
        snap = _snap(label="cell-7", metrics_every=500)
        assert snap.rows
        assert all(row["task"] == "cell-7" for row in snap.rows)


class _FakeLedger:
    def as_dict(self):
        return {"accesses": 64, "ios": 0}


class TestMerge:
    def test_merge_is_associative(self):
        a, b, c = _snap(seed=0), _snap(seed=1), _snap(seed=2)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_sums_counters_and_histograms(self):
        a, b = _snap(seed=0), _snap(seed=1)
        merged = a.merge(b)
        assert merged.counters["ios"] == a.counters["ios"] + b.counters["ios"]
        assert merged.meta["runs"] == 2
        assert (
            merged.hists["reuse_distance"].n
            == a.hists["reuse_distance"].n + b.hists["reuse_distance"].n
        )

    def test_meta_conflict_is_rejected(self):
        a = ObsSnapshot(meta={"runs": 1, "rate": 0.125})
        b = ObsSnapshot(meta={"runs": 1, "rate": 0.25})
        with pytest.raises(ValueError, match="meta\\['rate'\\]"):
            a.merge(b)

    def test_one_sided_meta_survives(self):
        a = ObsSnapshot(meta={"runs": 1, "rate": 0.125})
        b = ObsSnapshot(meta={"runs": 1})
        assert a.merge(b).meta["rate"] == 0.125

    def test_merge_all_skips_none_and_handles_empty(self):
        assert ObsSnapshot.merge_all([]) == ObsSnapshot()
        a, b = _snap(seed=0), _snap(seed=1)
        assert ObsSnapshot.merge_all([a, None, b]) == a.merge(b)

    def test_rows_concatenate_in_order(self):
        a = ObsSnapshot(rows=[{"w": 0}])
        b = ObsSnapshot(rows=[{"w": 1}])
        assert a.merge(b).rows == [{"w": 0}, {"w": 1}]


class TestEstimates:
    def test_scale_ups_use_recorded_meta(self):
        snap = ObsSnapshot(
            counters={"sampled_accesses": 10, "tracked_accesses": 24,
                      "tracked_pages": 4},
            meta={"runs": 1, "stride": 8, "rate": 0.125},
        )
        est = snap.estimates()
        assert est["accesses_from_stride"] == 80.0
        assert est["accesses_from_hash"] == 192.0
        assert est["tracked_pages_scaled"] == 32.0

    def test_no_probe_meta_no_estimates(self):
        assert ObsSnapshot(counters={"ios": 5}).estimates() == {}


class TestSerialization:
    def test_round_trip(self):
        snap = _snap(seed=0, label="x", metrics_every=700)
        clone = ObsSnapshot.from_dict(json.loads(json.dumps(snap.as_dict())))
        assert clone == snap

    def test_kind_is_validated(self):
        with pytest.raises(ValueError, match="obs_snapshot"):
            ObsSnapshot.from_dict({"kind": "bench_sweep"})

    def test_to_json_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "snap.json"
        path = _snap().to_json(out)
        assert path.is_file()
        assert json.loads(path.read_text())["kind"] == "obs_snapshot"

    def test_pickle_round_trip(self):
        import pickle

        snap = _snap(seed=0, metrics_every=600)
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestHistogramEquality:
    def test_snapshot_equality_covers_hists(self):
        a = ObsSnapshot(hists={"h": _hist([1, 2])})
        b = ObsSnapshot(hists={"h": _hist([1, 2])})
        c = ObsSnapshot(hists={"h": _hist([1, 3])})
        assert a == b and a != c


def _hist(values):
    h = LogHistogram()
    h.record_many(values)
    return h
