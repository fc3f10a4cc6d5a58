"""Online-vs-offline parity for the streaming analysis probes.

Pins the fidelity contract from ``repro/obs/online.py``'s docstring: over
the golden-cell traces (``tests/check/goldens.py``), the streaming probes
at ``rate=1`` record *exactly* what the offline ``analysis/`` tools
compute — regardless of how the stream is chopped into batches — and the
probes are batch-safe, so the ``mmu`` vectorized fast paths stay enabled
under them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stackdist import COLD, stack_distances
from repro.analysis.workingset import working_set_sizes
from repro.mmu.base import MemoryManagementAlgorithm
from repro.obs import (
    LogHistogram,
    MultiProbe,
    ObsSnapshot,
    OnlineStackDistance,
    OnlineWorkingSet,
)
from repro.obs.online import _hash_threshold
from tests.check.goldens import WORKLOADS, build_mm, build_trace

#: fast-path algorithms whose vectorized run() must survive these probes.
FAST_MMS = ("physical-huge", "decoupled", "hybrid", "thp")

#: uneven on purpose: exercises the carry buffer across batch boundaries.
BATCH = 113


def _feed(probe, trace, batch=BATCH):
    for i in range(0, len(trace), batch):
        probe.on_batch(i, np.asarray(trace[i : i + batch]), None, None)


def _offline_ws_hist(trace, tau):
    hist = LogHistogram()
    for size in working_set_sizes(trace, tau):
        hist.record(int(size))
    return hist


def _offline_sd(trace):
    hist = LogHistogram()
    cold = 0
    for d in stack_distances(trace):
        if d == COLD:
            cold += 1
        else:
            hist.record(int(d))
    return hist, cold


class TestWorkingSetParity:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("tau", (37, 512))
    def test_exact_over_golden_traces(self, workload, tau):
        trace = build_trace(workload)
        probe = OnlineWorkingSet(tau)
        _feed(probe, trace)
        assert probe.hists["working_set"].as_dict() == _offline_ws_hist(
            trace, tau
        ).as_dict()
        assert probe.windows == len(trace)
        assert probe.tracked_accesses == len(trace)

    def test_batching_is_invisible(self):
        trace = build_trace("zipf")
        one = OnlineWorkingSet(64)
        one.on_batch(0, np.asarray(trace), None, None)
        many = OnlineWorkingSet(64)
        _feed(many, trace, batch=7)
        assert one.hists["working_set"].as_dict() == many.hists[
            "working_set"
        ].as_dict()

    def test_sample_every_picks_the_offline_subsequence(self):
        trace = build_trace("uniform")
        every = 13
        probe = OnlineWorkingSet(100, sample_every=every)
        _feed(probe, trace)
        offline = working_set_sizes(trace, 100)
        expected = LogHistogram()
        for t in range(every - 1, len(trace), every):
            expected.record(int(offline[t]))
        assert probe.hists["working_set"].as_dict() == expected.as_dict()

    def test_sampled_mode_matches_masked_reference(self):
        trace = build_trace("zipf")
        probe = OnlineWorkingSet(200, sample_every=7, rate=0.25, seed=3)
        _feed(probe, trace, batch=997)
        # reference: the same hashed-VPN mask applied to full windows
        arr = np.asarray(trace, dtype=np.int64)
        from repro.obs.sampling import _splitmix64_many

        keys = arr.astype(np.uint64) ^ np.uint64(probe._salt)
        mask = _splitmix64_many(keys) < np.uint64(probe._threshold)
        expected = LogHistogram()
        for t in range(6, len(trace), 7):
            lo = max(0, t - 200 + 1)
            win = arr[lo : t + 1][mask[lo : t + 1]]
            expected.record(int(np.unique(win).size) * 4)
        assert probe.hists["working_set"].as_dict() == expected.as_dict()
        assert probe.tracked_accesses == int(mask.sum())

    def test_measure_phase_resets(self):
        trace = build_trace("zipf")
        warm = OnlineWorkingSet(64)
        _feed(warm, trace[:500])
        warm.on_phase(500, "measure")
        _feed(warm, trace[500:])
        fresh = OnlineWorkingSet(64)
        _feed(fresh, trace[500:])
        assert warm.hists["working_set"].as_dict() == fresh.hists[
            "working_set"
        ].as_dict()

    def test_as_dict_is_json_shaped(self):
        probe = OnlineWorkingSet(32, sample_every=4, rate=0.5, seed=9)
        _feed(probe, build_trace("uniform")[:400])
        d = probe.as_dict()
        assert d["tau"] == 32 and d["sample_every"] == 4
        assert d["windows"] == probe.windows
        assert "working_set" in d["hists"]

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineWorkingSet(0)
        with pytest.raises(ValueError):
            OnlineWorkingSet(8, sample_every=0)
        with pytest.raises(ValueError):
            OnlineWorkingSet(8, rate=0.0)
        with pytest.raises(ValueError):
            OnlineWorkingSet(8, rate=1.5)


class TestStackDistanceParity:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_exact_over_golden_traces(self, workload):
        trace = build_trace(workload)
        probe = OnlineStackDistance()
        _feed(probe, trace)
        expected, cold = _offline_sd(trace)
        assert probe.hists["stack_distance"].as_dict() == expected.as_dict()
        assert probe.cold_accesses == cold
        assert probe.tracked_accesses == len(trace)

    @pytest.mark.parametrize(
        "batch", (1, 31, 113, None), ids=("1", "31", "113", "whole")
    )
    def test_batch_size_preserves_distances(self, batch):
        # small batches send most reuses back into the live-page prefix and
        # the untouched-newer count; the whole trace needs neither
        trace = build_trace("uniform")
        probe = OnlineStackDistance()
        _feed(probe, trace, batch=batch or len(trace))
        expected, cold = _offline_sd(trace)
        assert probe.hists["stack_distance"].as_dict() == expected.as_dict()
        assert probe.cold_accesses == cold
        assert len(probe._last_seen) == len(set(trace.tolist()))

    def test_sampled_mode_is_the_shards_estimator(self):
        trace = build_trace("zipf")
        rate, seed = 0.25, 5
        probe = OnlineStackDistance(rate=rate, seed=seed)
        _feed(probe, trace, batch=331)
        # reference: offline distances over the tracked-page substream
        arr = np.asarray(trace, dtype=np.int64)
        from repro.obs.sampling import _splitmix64_many

        keys = arr.astype(np.uint64) ^ np.uint64(probe._salt)
        sub = arr[_splitmix64_many(keys) < np.uint64(probe._threshold)]
        expected = LogHistogram()
        cold = 0
        for d in stack_distances(sub):
            if d == COLD:
                cold += 1
            else:
                expected.record(int(round(d / rate)))
        assert probe.hists["stack_distance"].as_dict() == expected.as_dict()
        assert probe.cold_accesses == cold
        assert probe.tracked_accesses == len(sub)
        est = probe.estimates()
        assert est["cold_accesses_scaled"] == cold / rate
        assert est["distinct_pages_from_hash"] == len(set(sub.tolist())) / rate

    def test_measure_phase_resets(self):
        trace = build_trace("markov")
        warm = OnlineStackDistance()
        _feed(warm, trace[:700])
        warm.on_phase(700, "measure")
        _feed(warm, trace[700:])
        fresh = OnlineStackDistance()
        _feed(fresh, trace[700:])
        assert warm.hists["stack_distance"].as_dict() == fresh.hists[
            "stack_distance"
        ].as_dict()
        assert warm.cold_accesses == fresh.cold_accesses

    def test_as_dict_and_snapshot_duck_typing(self):
        probe = OnlineStackDistance(rate=0.5, seed=2)
        mm = build_mm("thp")
        mm.probe = probe
        ledger = mm.run(build_trace("zipf")[:600])
        d = probe.as_dict()
        assert d["tracked_pages"] == len(probe._last_seen)
        snap = ObsSnapshot.from_run(ledger, probe=probe)
        assert snap.counters["tracked_pages"] == len(probe._last_seen)
        assert snap.counters["tracked_accesses"] == probe.tracked_accesses
        assert "stack_distance" in snap.hists
        assert snap.meta["rate"] == 0.5

    def test_hash_threshold_contract(self):
        assert _hash_threshold(1.0) is None
        assert _hash_threshold(0.5) == 1 << 63
        with pytest.raises(ValueError):
            _hash_threshold(0.0)
        with pytest.raises(ValueError):
            _hash_threshold(1.0000001)


@pytest.mark.parametrize("rate", (1.0, 0.25))
@pytest.mark.parametrize(
    "make",
    (
        lambda rate: OnlineStackDistance(rate=rate, seed=4),
        lambda rate: OnlineWorkingSet(50, sample_every=3, rate=rate, seed=4),
    ),
    ids=("stack-distance", "working-set"),
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ragged_batches_equal_one_whole_batch(make, rate, data):
    trace = np.asarray(build_trace("markov"))[: data.draw(st.integers(1, 600))]
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(trace)), max_size=12, unique=True))
    )
    whole = make(rate)
    whole.on_batch(0, trace, None, None)
    ragged = make(rate)
    for a, b in zip([0] + cuts, cuts + [len(trace)]):
        ragged.on_batch(a, trace[a:b], None, None)
    # as_dict holds every histogram and counter of either probe
    assert ragged.as_dict() == whole.as_dict()


class TestFastPathStaysEnabled:
    """Batch-safe online probes must never force the per-access replay."""

    @pytest.fixture
    def forbid_slow_paths(self, monkeypatch):
        def boom(self, trace):  # pragma: no cover - failure path
            raise AssertionError("probe forced the per-access replay")

        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_probed", boom)
        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_batch", boom)

    @pytest.mark.parametrize("name", FAST_MMS)
    def test_counters_identical_and_fast_path_kept(
        self, name, forbid_slow_paths
    ):
        trace = build_trace("zipf")
        plain = build_mm(name)
        expected = plain.run(trace)

        probed = build_mm(name)
        probed.probe = MultiProbe(
            [OnlineWorkingSet(128, sample_every=16), OnlineStackDistance()]
        )
        ledger = probed.run(trace)
        assert ledger.snapshot() == expected.snapshot()

    @pytest.mark.parametrize("name", FAST_MMS)
    def test_online_hists_match_direct_feed(self, name):
        trace = build_trace("zipf")
        direct = OnlineStackDistance()
        direct.on_batch(0, np.asarray(trace), None, None)

        probed = build_mm(name)
        attached = OnlineStackDistance()
        probed.probe = attached
        probed.run(trace)
        assert attached.hists["stack_distance"].as_dict() == direct.hists[
            "stack_distance"
        ].as_dict()
