"""Tests for the CI perf-regression gate (tools/check_bench.py).

The gate is a stdlib-only script outside the package, so it is loaded by
file path rather than imported from ``repro``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _TOOL)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _payload(tput=100_000.0, numpy_version="2.0.0"):
    return {
        "format": 1,
        "kind": "bench_sweep",
        "machine": {"numpy": numpy_version, "cpu_count": 4},
        "config": {"sizes": [1, 8], "seed": 0, "accesses": 1000},
        "accesses_per_s": tput,
        "rows": [
            {
                "algorithm": "physical",
                "h": 1,
                "accesses": 1000,
                "ios": 40,
                "tlb_misses": 200,
                "tlb_hits": 800,
                "decoding_misses": 0,
                "paging_failures": 0,
            },
            {
                "algorithm": "physical",
                "h": 8,
                "accesses": 1000,
                "ios": 25,
                "tlb_misses": 90,
                "tlb_hits": 910,
                "decoding_misses": 0,
                "paging_failures": 0,
            },
        ],
    }


class TestCompare:
    def test_identical_payloads_pass(self):
        code, messages = check_bench.compare(_payload(), _payload())
        assert code == check_bench.OK
        assert any("counters identical" in m for m in messages)

    def test_faster_run_passes(self):
        code, _ = check_bench.compare(_payload(100_000), _payload(250_000))
        assert code == check_bench.OK

    def test_throughput_regression_fails(self):
        code, messages = check_bench.compare(
            _payload(100_000), _payload(60_000), tolerance=0.25
        )
        assert code == check_bench.REGRESSION
        assert any(m.startswith("FAIL throughput") for m in messages)

    def test_small_dip_within_tolerance_passes(self):
        code, _ = check_bench.compare(
            _payload(100_000), _payload(80_000), tolerance=0.25
        )
        assert code == check_bench.OK

    def test_counter_drift_is_a_mismatch(self):
        new = _payload()
        new["rows"][1]["ios"] += 1
        code, messages = check_bench.compare(_payload(), new)
        assert code == check_bench.MISMATCH
        assert any("ios changed" in m for m in messages)

    def test_missing_cell_is_a_mismatch(self):
        new = _payload()
        del new["rows"][1]
        code, _ = check_bench.compare(_payload(), new)
        assert code == check_bench.MISMATCH

    def test_config_change_is_a_mismatch(self):
        new = _payload()
        new["config"]["seed"] = 1
        code, messages = check_bench.compare(_payload(), new)
        assert code == check_bench.MISMATCH
        assert any("configs differ" in m and "seed" in m for m in messages)

    def test_numpy_skew_skips_counters_in_auto_mode(self):
        new = _payload(numpy_version="2.4.0")
        new["rows"][0]["ios"] += 5  # would be a mismatch on same numpy
        code, messages = check_bench.compare(_payload(), new, counters="auto")
        assert code == check_bench.OK
        assert any("skipping counter comparison" in m for m in messages)

    def test_counters_always_overrides_numpy_skew(self):
        new = _payload(numpy_version="2.4.0")
        new["rows"][0]["ios"] += 5
        code, _ = check_bench.compare(_payload(), new, counters="always")
        assert code == check_bench.MISMATCH

    def test_counters_never_disables_the_check(self):
        new = _payload()
        new["rows"][0]["ios"] += 5
        code, _ = check_bench.compare(_payload(), new, counters="never")
        assert code == check_bench.OK

    def test_zero_baseline_throughput_skips_the_gate(self):
        code, messages = check_bench.compare(_payload(0.0), _payload(50.0))
        assert code == check_bench.OK
        assert any("skipping the gate" in m for m in messages)

    def test_regression_does_not_mask_mismatch(self):
        new = _payload(10_000.0)  # huge slowdown *and* counter drift
        new["rows"][0]["tlb_misses"] += 1
        code, _ = check_bench.compare(_payload(), new)
        assert code == check_bench.MISMATCH  # correctness outranks speed

    def test_compare_does_not_mutate_inputs(self):
        base, new = _payload(), _payload(60_000)
        base_copy, new_copy = copy.deepcopy(base), copy.deepcopy(new)
        check_bench.compare(base, new)
        assert base == base_copy and new == new_copy


def _hotloop_payload(geomean=500_000.0):
    return {
        "format": 1,
        "kind": "bench_hotloop",
        "machine": {"numpy": "2.0.0", "cpu_count": 4},
        "config": {"ops": 1000, "seed": 0},
        "geomean_ops_per_s": geomean,
        "rows": [
            {
                "component": "tlb",
                "ops": 1000,
                "ops_per_s": 900_000.0,
                "counters": {"hits": 700, "misses": 300, "fills": 300},
            },
            {
                "component": "cache:lru",
                "ops": 1000,
                "ops_per_s": 400_000.0,
                "counters": {"hits": 650, "misses": 350, "evictions": 340},
            },
        ],
    }


class TestCompareHotloop:
    def test_identical_payloads_pass(self):
        code, messages = check_bench.compare(_hotloop_payload(), _hotloop_payload())
        assert code == check_bench.OK
        assert any("counters identical" in m for m in messages)

    def test_geomean_regression_fails(self):
        code, messages = check_bench.compare(
            _hotloop_payload(500_000), _hotloop_payload(300_000), tolerance=0.25
        )
        assert code == check_bench.REGRESSION
        assert any(m.startswith("FAIL throughput") for m in messages)

    def test_dip_within_tolerance_passes(self):
        code, _ = check_bench.compare(
            _hotloop_payload(500_000), _hotloop_payload(400_000), tolerance=0.25
        )
        assert code == check_bench.OK

    def test_counter_drift_is_a_mismatch_despite_numpy_skew(self):
        # hotloop streams are numpy-free: auto mode never skips counters
        new = _hotloop_payload()
        new["machine"]["numpy"] = "2.4.0"
        new["rows"][1]["counters"]["hits"] += 1
        code, messages = check_bench.compare(
            _hotloop_payload(), new, counters="auto"
        )
        assert code == check_bench.MISMATCH
        assert any("cache:lru" in m and "counters changed" in m for m in messages)

    def test_counters_never_disables_the_check(self):
        new = _hotloop_payload()
        new["rows"][1]["counters"]["hits"] += 1
        code, _ = check_bench.compare(_hotloop_payload(), new, counters="never")
        assert code == check_bench.OK

    def test_missing_component_is_a_mismatch(self):
        new = _hotloop_payload()
        del new["rows"][1]
        code, _ = check_bench.compare(_hotloop_payload(), new)
        assert code == check_bench.MISMATCH

    def test_config_change_is_a_mismatch(self):
        new = _hotloop_payload()
        new["config"]["ops"] = 2000
        code, messages = check_bench.compare(_hotloop_payload(), new)
        assert code == check_bench.MISMATCH
        assert any("configs differ" in m and "ops" in m for m in messages)

    def test_kind_mix_is_a_mismatch(self):
        code, messages = check_bench.compare(_payload(), _hotloop_payload())
        assert code == check_bench.MISMATCH
        assert any("payload kinds differ" in m for m in messages)

    def test_load_payload_accepts_hotloop_kind(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(_hotloop_payload()))
        assert check_bench.load_payload(str(path))["kind"] == "bench_hotloop"


def _probed_payload(ratio=0.95, counter_drift=0, online_ratio=None):
    """A hotloop payload with one plain fast-path MM plus probed twins:
    always an ``mm+sampled:`` row, and an ``mm+online:`` row when
    *online_ratio* is given."""
    payload = _hotloop_payload()
    counters = {"accesses": 1000, "ios": 40, "tlb_hits": 800, "tlb_misses": 200}
    payload["rows"] += [
        {
            "component": "mm:thp",
            "ops": 1000,
            "ops_per_s": 600_000.0,
            "counters": dict(counters),
        },
        {
            "component": "mm+sampled:thp",
            "ops": 1000,
            "ops_per_s": 600_000.0 * ratio,
            "counters": {**counters, "ios": counters["ios"] + counter_drift},
        },
    ]
    if online_ratio is not None:
        payload["rows"].append({
            "component": "mm+online:thp",
            "ops": 1000,
            "ops_per_s": 600_000.0 * online_ratio,
            "counters": dict(counters),
        })
    return payload


class TestProbedGate:
    """The within-payload probed-vs-mm gate (new run only)."""

    def test_cheap_probe_passes(self):
        code, messages = check_bench.compare(
            _probed_payload(ratio=0.95), _probed_payload(ratio=0.95)
        )
        assert code == check_bench.OK
        assert any("mm+sampled throughput" in m for m in messages)

    def test_expensive_probe_is_a_regression(self):
        code, messages = check_bench.compare(
            _probed_payload(ratio=0.95), _probed_payload(ratio=0.80)
        )
        assert code == check_bench.REGRESSION
        assert any(
            m.startswith("FAIL mm+sampled throughput") for m in messages
        )

    def test_online_rows_gated_independently(self):
        # a cheap sampling probe must not mask an expensive online probe
        code, messages = check_bench.compare(
            _probed_payload(ratio=0.95, online_ratio=0.95),
            _probed_payload(ratio=0.95, online_ratio=0.80),
        )
        assert code == check_bench.REGRESSION
        assert any("ok: mm+sampled throughput" in m for m in messages)
        assert any(
            m.startswith("FAIL mm+online throughput") for m in messages
        )

    def test_cheap_online_probe_passes(self):
        code, messages = check_bench.compare(
            _probed_payload(ratio=0.95, online_ratio=0.95),
            _probed_payload(ratio=0.95, online_ratio=0.95),
        )
        assert code == check_bench.OK
        assert any("mm+online throughput" in m for m in messages)

    def test_probe_tolerance_loosens_the_floor(self):
        code, _ = check_bench.compare(
            _probed_payload(ratio=0.95),
            _probed_payload(ratio=0.80),
            probe_tolerance=0.25,
        )
        assert code == check_bench.OK

    def test_perturbing_probe_is_a_mismatch(self):
        # the baseline's own sampled rows are NOT gated — only the new run's
        code, messages = check_bench.compare(
            _probed_payload(counter_drift=1), _probed_payload(counter_drift=1)
        )
        assert code == check_bench.MISMATCH
        assert any("never perturb" in m for m in messages)

    def test_gate_skipped_without_sampled_rows(self):
        code, messages = check_bench.compare(
            _hotloop_payload(), _hotloop_payload()
        )
        assert code == check_bench.OK
        assert not any("of unprobed" in m for m in messages)

    def test_probe_tolerance_cli_flag(self, tmp_path):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_probed_payload(ratio=0.95)))
        slow.write_text(json.dumps(_probed_payload(ratio=0.80)))
        args = [str(base), str(slow)]
        assert check_bench.main(args) == check_bench.REGRESSION
        assert (
            check_bench.main(args + ["--probe-tolerance", "0.3"])
            == check_bench.OK
        )


class TestMain:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_codes_via_cli(self, tmp_path):
        base = self._write(tmp_path / "base.json", _payload())
        good = self._write(tmp_path / "good.json", _payload(99_000))
        slow = self._write(tmp_path / "slow.json", _payload(10_000))
        assert check_bench.main([base, good]) == check_bench.OK
        assert check_bench.main([base, slow]) == check_bench.REGRESSION
        assert (
            check_bench.main([base, slow, "--tolerance", "0.95"]) == check_bench.OK
        )

    def test_malformed_payload_is_a_mismatch(self, tmp_path):
        base = self._write(tmp_path / "base.json", _payload())
        bad = self._write(tmp_path / "bad.json", {"kind": "something-else"})
        assert check_bench.main([base, bad]) == check_bench.MISMATCH
        assert check_bench.main([base, str(tmp_path / "absent.json")]) == (
            check_bench.MISMATCH
        )

    def test_load_payload_validates_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "bench_sweep", "format": 99}))
        with pytest.raises(ValueError, match="format-1"):
            check_bench.load_payload(str(path))


class TestAppendHistory:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passing_gate_appends_a_record(self, tmp_path):
        base = self._write(tmp_path / "base.json", _hotloop_payload())
        good = self._write(tmp_path / "good.json", _hotloop_payload())
        history = tmp_path / "history"
        code = check_bench.main(
            [base, good, "--append-history", str(history)]
        )
        assert code == check_bench.OK
        lines = (history / "history.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "bench_history"
        assert record["payload_kind"] == "bench_hotloop"
        assert record["geomean"] == 500_000.0
        assert [r["component"] for r in record["rows"]] == ["tlb", "cache:lru"]
        assert record["ts"] and record["commit"]

    def test_failing_gate_never_appends(self, tmp_path):
        base = self._write(tmp_path / "base.json", _hotloop_payload(500_000))
        slow = self._write(tmp_path / "slow.json", _hotloop_payload(300_000))
        history = tmp_path / "history"
        code = check_bench.main(
            [base, slow, "--append-history", str(history)]
        )
        assert code == check_bench.REGRESSION
        assert not (history / "history.jsonl").exists()

    def test_records_accumulate_as_jsonl(self, tmp_path):
        sweep = self._write(tmp_path / "s.json", _payload(120_000))
        hot = self._write(tmp_path / "h.json", _hotloop_payload())
        check_bench.append_history(json.loads(Path(sweep).read_text()),
                                   str(tmp_path / "history"))
        check_bench.append_history(json.loads(Path(hot).read_text()),
                                   str(tmp_path / "history"))
        records = [
            json.loads(line)
            for line in (tmp_path / "history" / "history.jsonl")
            .read_text().splitlines()
        ]
        assert [r["payload_kind"] for r in records] == [
            "bench_sweep", "bench_hotloop"
        ]
        assert records[0]["geomean"] == 120_000.0
        assert records[0]["rows"] == []  # sweep records carry no row detail


def _failure_payload(paging_failures=3, drift=0):
    """A hotloop payload with one paging-failure engine-twin pair."""
    payload = _hotloop_payload()
    counters = {
        "accesses": 4000,
        "ios": 900,
        "tlb_hits": 2500,
        "tlb_misses": 1500,
        "decoding_misses": 40,
        "paging_failures": paging_failures,
    }
    payload["rows"] += [
        {
            "component": "mm:decoupled+fail",
            "ops": 4000,
            "ops_per_s": 500_000.0,
            "counters": dict(counters),
        },
        {
            "component": "mm@object:decoupled+fail",
            "ops": 4000,
            "ops_per_s": 150_000.0,
            "counters": {**counters, "ios": counters["ios"] + drift},
        },
    ]
    return payload


class TestFailureRowGate:
    """The engine-twin gate over the ``+fail`` paging-failure rows."""

    def test_failing_rows_pass(self):
        code, messages = check_bench.compare(
            _failure_payload(), _failure_payload()
        )
        assert code == check_bench.OK
        assert any("engine twin" in m for m in messages)

    def test_engine_divergence_is_a_mismatch(self):
        new = _failure_payload(drift=5)
        code, messages = check_bench.compare(copy.deepcopy(new), new)
        assert code == check_bench.MISMATCH
        assert any("array-engine twin" in m for m in messages)

    def test_zero_paging_failures_is_a_mismatch(self):
        # a failure row that stopped failing no longer tests the bailout
        # path — the gate must refuse it even though the twins agree
        new = _failure_payload(paging_failures=0)
        code, messages = check_bench.compare(copy.deepcopy(new), new)
        assert code == check_bench.MISMATCH
        assert any("no paging_failures" in m for m in messages)


def _engine_pair_payload(ratio=1.0, **ratios):
    """A hotloop payload of engine-twin pairs whose array row runs at the
    given ratio of its object twin's throughput: ``mm:base-page@q64`` at
    *ratio*, and one more pair per keyword (``hybrid_q64=0.8`` adds
    ``mm:hybrid@q64`` at 0.8; ``decoupled=2.0`` ``mm:decoupled``)."""
    payload = _hotloop_payload()
    counters = {"accesses": 1000, "ios": 40, "tlb_hits": 800, "tlb_misses": 200}
    ratios = {"base-page@q64": ratio} | {
        key.replace("_q", "@q").replace("_t", "@t").replace("_", "-"): value
        for key, value in ratios.items()
    }
    for name, value in ratios.items():
        payload["rows"] += [
            {
                "component": f"mm:{name}",
                "ops": 1000,
                "ops_per_s": 300_000.0 * value,
                "counters": dict(counters),
            },
            {
                "component": f"mm@object:{name}",
                "ops": 1000,
                "ops_per_s": 300_000.0,
                "counters": dict(counters),
            },
        ]
    return payload


class TestEngineRatioGate:
    """The within-payload array-vs-object throughput gate (new run only),
    a geomean per row family."""

    def test_array_row_at_parity_passes(self):
        code, messages = check_bench.compare(
            _engine_pair_payload(0.9), _engine_pair_payload(0.9)
        )
        assert code == check_bench.OK
        assert (
            "ok: array engine @q throughput: 90.0% of object across 1 twin(s), "
            "slowest mm:base-page@q64 at 90% (floor 75%)"
        ) in messages

    def test_slow_array_family_is_a_regression(self):
        # the baseline's own pairs are not gated — only the new run's
        code, messages = check_bench.compare(
            _engine_pair_payload(0.26, hybrid_q64=0.26),
            _engine_pair_payload(0.7, hybrid_q64=0.8),
        )
        assert code == check_bench.REGRESSION
        assert any(
            m.startswith(
                "FAIL array engine @q throughput: 74.8% of object across "
                "2 twin(s), slowest mm:base-page@q64 at 70%"
            )
            for m in messages
        )

    def test_one_slow_row_is_absorbed_by_its_family(self):
        # per-row noise: a row below the floor passes when its family's
        # geomean clears it
        code, messages = check_bench.compare(
            _engine_pair_payload(hybrid_q64=1.0),
            _engine_pair_payload(0.7, hybrid_q64=0.9),
        )
        assert code == check_bench.OK
        assert any(m.startswith("ok: array engine @q throughput: 79.4%") for m in messages)

    def test_families_are_gated_apart(self):
        # fast whole-trace rows cannot carry a slow short-call family
        new = _engine_pair_payload(0.5, decoupled=4.0, hybrid_t8=0.6)
        code, messages = check_bench.compare(
            _engine_pair_payload(decoupled=1.0, hybrid_t8=1.0), new
        )
        assert code == check_bench.REGRESSION
        verdicts = sorted(m.split(" throughput")[0] for m in messages if "array engine" in m)
        assert verdicts == [
            "FAIL array engine @q",
            "FAIL array engine @t",
            "ok: array engine whole-trace",
        ]

    def test_row_families(self):
        family = check_bench._engine_family
        assert family("mm:physical-huge") == "whole-trace"
        assert family("mm:decoupled+fail") == "+fail"
        assert family("mm:physical-huge+wb@q64") == "@q"
        assert family("mm:thp@t8") == "@t"

    def test_floor_is_inclusive(self):
        code, _ = check_bench.compare(
            _engine_pair_payload(), _engine_pair_payload(0.75)
        )
        assert code == check_bench.OK

    def test_engine_tolerance_cli_flag(self, tmp_path):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_engine_pair_payload()))
        slow.write_text(json.dumps(_engine_pair_payload(0.5)))
        args = [str(base), str(slow)]
        assert check_bench.main(args) == check_bench.REGRESSION
        assert check_bench.main(args + ["--engine-tolerance", "0.6"]) == check_bench.OK

    def test_counter_divergence_outranks_the_ratio(self):
        new = _engine_pair_payload(0.5)
        new["rows"][-1]["counters"]["ios"] += 1
        code, messages = check_bench.compare(_engine_pair_payload(), new)
        assert code == check_bench.MISMATCH
        assert any(m.startswith("FAIL mm@object:base-page@q64:") for m in messages)


def _with_spread(payload, median=0.9, iqr=0.05):
    """*payload* with every row's spread stored, as fractions of its
    best-of ``ops_per_s``."""
    payload = copy.deepcopy(payload)
    for row in payload["rows"]:
        row["ops_per_s_median"] = row["ops_per_s"] * median
        row["ops_per_s_iqr"] = row["ops_per_s"] * iqr
    return payload


class TestSpreadLines:
    """Each gated family's row pairs are printed with their spread; the
    spread is reported only, so payloads without it compare as before."""

    def test_engine_family_rows_print_with_their_spread(self):
        new = _with_spread(_engine_pair_payload(0.9, hybrid_q64=1.0))
        code, messages = check_bench.compare(_engine_pair_payload(hybrid_q64=1.0), new)
        assert code == check_bench.OK
        verdict = next(i for i, m in enumerate(messages) if m.startswith("ok: array engine @q"))
        assert messages[verdict + 1 : verdict + 3] == [
            "  mm:base-page@q64 270.0 (median 243.0, IQR 13.5) vs "
            "mm@object:base-page@q64 300.0 (median 270.0, IQR 15.0) kops/s",
            "  mm:hybrid@q64 300.0 (median 270.0, IQR 15.0) vs "
            "mm@object:hybrid@q64 300.0 (median 270.0, IQR 15.0) kops/s",
        ]

    def test_probe_family_rows_print_with_their_spread(self):
        new = _with_spread(_probed_payload(ratio=0.95))
        code, messages = check_bench.compare(_probed_payload(ratio=0.95), new)
        assert code == check_bench.OK
        assert (
            "  mm+sampled:thp 570.0 (median 513.0, IQR 28.5) vs "
            "mm:thp 600.0 (median 540.0, IQR 30.0) kops/s"
        ) in messages

    def test_baseline_without_the_spread_still_compares(self, tmp_path):
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        payload = _engine_pair_payload(0.9)
        payload["rows"] += _probed_payload()["rows"][2:]
        base.write_text(json.dumps(payload))
        fresh.write_text(json.dumps(_with_spread(payload)))
        assert check_bench.main([str(base), str(fresh)]) == check_bench.OK
        # and a payload without it prints the best-of rates alone
        code, messages = check_bench.compare(payload, payload)
        assert code == check_bench.OK
        assert "  mm:base-page@q64 270.0 vs mm@object:base-page@q64 300.0 kops/s" in messages
