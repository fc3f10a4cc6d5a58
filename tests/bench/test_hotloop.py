"""Tests for the per-component hot-loop microbenchmark (repro bench --hotloop)."""

import pytest

from repro.bench import hotloop
from repro.bench.hotloop import (
    FAILURE_MMS,
    HOTLOOP_CONFIG,
    SAMPLED_MMS,
    bench_hotloop,
    key_stream,
)
from repro.mmu import MM_NAMES
from repro.paging import POLICIES

#: registry algorithms with an array-engine handler (everything but THP).
ARRAY_MMS = tuple(n for n in MM_NAMES if n != "thp")

#: CI-sized shrink of the preset: same shape, two orders less work.
_SMALL = dict(
    HOTLOOP_CONFIG,
    ops=2_000,
    mm_accesses=1_000,
    tlb_entries=64,
    cache_pages=64,
    mm_tlb_entries=32,
    mm_ram_pages=256,
)


@pytest.fixture
def small_config(monkeypatch):
    monkeypatch.setattr(hotloop, "HOTLOOP_CONFIG", _SMALL)
    return _SMALL


class TestKeyStream:
    def test_deterministic(self):
        a = key_stream(500, 1 << 12, 1 << 8, 90, seed=7)
        b = key_stream(500, 1 << 12, 1 << 8, 90, seed=7)
        assert a == b

    def test_seed_changes_stream(self):
        assert key_stream(500, 1 << 12, 1 << 8, 90, seed=0) != key_stream(
            500, 1 << 12, 1 << 8, 90, seed=1
        )

    def test_range_and_skew(self):
        keys = key_stream(5_000, 1 << 12, 1 << 8, 90, seed=0)
        assert all(0 <= k < (1 << 12) for k in keys)
        hot = sum(1 for k in keys if k < (1 << 8))
        # ~90% land in the hot subset (plus uniform spillover)
        assert hot / len(keys) > 0.85

    def test_known_prefix_pinned(self):
        """The LCG stream is part of the payload contract: changing it makes
        every committed baseline's counters incomparable."""
        assert key_stream(4, 1 << 12, 1 << 8, 90, seed=0) == [111, 134, 2785, 85]


class TestBenchHotloop:
    def test_payload_covers_every_component(self, small_config):
        rows, payload = bench_hotloop()
        names = [r["component"] for r in rows]
        assert names[0] == "tlb"
        assert [n for n in names if n.startswith("cache:")] == [
            f"cache:{p}" for p in sorted(POLICIES)
        ]
        quantum = f"@q{small_config['quantum']}"
        tenants = f"@t{small_config['tenants']}"
        assert [n for n in names if n.startswith("mm:")] == [
            f"mm:{m}" for m in MM_NAMES
        ] + [f"mm:{m}+fail" for m in sorted(FAILURE_MMS)] + [
            f"mm:{m}{quantum}" for m in ARRAY_MMS
        ] + [f"mm:{m}{tenants}" for m in MM_NAMES]
        assert sorted(n for n in names if n.startswith("mm@object:")) == sorted(
            [f"mm@object:{m}" for m in SAMPLED_MMS]
            + [f"mm@object:{m}+fail" for m in FAILURE_MMS]
            + [f"mm@object:{m}{quantum}" for m in ARRAY_MMS]
            + [f"mm@object:{m}{tenants}" for m in MM_NAMES]
        )
        assert sorted(n for n in names if n.startswith("mm+sampled:")) == [
            f"mm+sampled:{m}" for m in sorted(SAMPLED_MMS)
        ]
        assert sorted(n for n in names if n.startswith("mm+online:")) == [
            f"mm+online:{m}" for m in sorted(SAMPLED_MMS)
        ]
        assert sorted(n for n in names if n.startswith("mm+attrib:")) == [
            f"mm+attrib:{m}" for m in sorted(SAMPLED_MMS)
        ]
        assert payload["kind"] == "bench_hotloop"
        assert payload["format"] == 1
        assert payload["config"] == small_config
        assert payload["geomean_ops_per_s"] > 0
        assert payload["rows"] == rows

    def test_counters_are_reproducible(self, small_config):
        rows_a, _ = bench_hotloop()
        rows_b, _ = bench_hotloop()
        for a, b in zip(rows_a, rows_b):
            assert a["component"] == b["component"]
            assert a["counters"] == b["counters"]

    def test_probed_rows_match_unprobed_counters(self, small_config):
        """Neither the sampling probe nor the online analyses may perturb
        the simulation — the check_bench probed gate relies on this."""
        rows, _ = bench_hotloop()
        by = {r["component"]: r for r in rows}
        for prefix in ("mm+sampled:", "mm+online:", "mm+attrib:"):
            probed = [n for n in by if n.startswith(prefix)]
            assert sorted(probed) == [
                f"{prefix}{m}" for m in sorted(SAMPLED_MMS)
            ]
            for name in probed:
                twin = by[name.replace(prefix, "mm:", 1)]
                assert by[name]["counters"] == twin["counters"], name

    def test_engine_twins_match_counters(self, small_config):
        """The ``mm:`` rows run on the configured engine (array) and the
        ``mm@object:`` twins re-run on the object engine; both must
        simulate identically — the check_bench engine gate relies on it."""
        assert small_config["mm_engine"] == "array"
        rows, _ = bench_hotloop()
        by = {r["component"]: r for r in rows}
        for name in sorted(SAMPLED_MMS):
            assert (
                by[f"mm@object:{name}"]["counters"]
                == by[f"mm:{name}"]["counters"]
            ), name

    def test_failure_rows_fail_and_agree_across_engines(self, small_config):
        """The ``+fail`` cells must keep failing (else they stop covering
        the array engine's bailout path) and both engines must account the
        failures identically — the check_bench failure gate pins both."""
        rows, _ = bench_hotloop()
        by = {r["component"]: r for r in rows}
        for name in sorted(FAILURE_MMS):
            plain = by[f"mm:{name}+fail"]["counters"]
            twin = by[f"mm@object:{name}+fail"]["counters"]
            assert plain["paging_failures"] > 0, name
            assert plain["decoding_misses"] > 0, name
            assert plain == twin, name

    def test_quantum_rows_time_the_warm_half_on_both_engines(self, small_config):
        """The ``@q<quantum>`` rows replay the second half of the trace in
        ``quantum``-access calls after a warm-up; the engines must agree
        there too, and the rows count only the timed accesses."""
        rows, _ = bench_hotloop()
        by = {r["component"]: r for r in rows}
        timed = small_config["mm_accesses"] - small_config["mm_accesses"] // 2
        for name in ARRAY_MMS:
            plain = by[f"mm:{name}@q{small_config['quantum']}"]
            twin = by[f"mm@object:{name}@q{small_config['quantum']}"]
            assert plain["ops"] == twin["ops"] == timed, name
            assert plain["counters"]["accesses"] == timed, name
            assert plain["counters"] == twin["counters"], name

    def test_tenant_rows_run_the_whole_trace_on_both_engines(self, small_config):
        """The ``@t<tenants>`` rows replay the preset trace as equal
        tenant streams through a multi-tenant sim; the engines must agree
        and every access is counted (no warm-up)."""
        rows, _ = bench_hotloop()
        by = {r["component"]: r for r in rows}
        k = small_config["tenants"]
        total = small_config["mm_accesses"] // k * k
        for name in MM_NAMES:
            plain = by[f"mm:{name}@t{k}"]
            twin = by[f"mm@object:{name}@t{k}"]
            assert plain["ops"] == twin["ops"] == total, name
            assert plain["counters"]["accesses"] == total, name
            assert plain["counters"] == twin["counters"], name

    def test_seed_override_recorded_in_config(self, small_config):
        _, payload = bench_hotloop(seed=3)
        assert payload["config"]["seed"] == 3

    def test_rows_carry_timings(self, small_config):
        rows, _ = bench_hotloop()
        for r in rows:
            assert r["ops"] > 0
            assert r["elapsed_s"] >= 0
            assert r["ops_per_s"] >= 0
