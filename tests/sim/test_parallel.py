"""Tests for the parallel experiment runner (repro.sim.parallel).

The determinism contract: ``jobs=4`` must produce RunRecord series
identical to ``jobs=1`` (same seeds -> same IOs / TLB misses), with only
the wall-clock stamps (``elapsed_s`` / ``accesses_per_s``) allowed to
differ — exactly the fields ``diff_records`` ignores by default.

The crash helpers must live at module level (never closures) so they
pickle across the process boundary.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro.bench import diff_records, make_base_mm
from repro.mmu import BasePageMM
from repro.obs import (
    HeartbeatConfig,
    NullProbe,
    ObsSnapshot,
    SamplingProbe,
    TraceRecorder,
    aggregate,
    read_spool,
)
from repro.sim import (
    SimTask,
    TaskResult,
    resolve_jobs,
    run_records,
    run_tasks,
    spawn_seeds,
    sweep_huge_page_sizes,
)
from repro.sim import parallel
from repro.sim.parallel import _default_chunksize


def _payload(records):
    """Shape a record list like a saved result file, for diff_records."""
    return {"rows": [r.as_row() for r in records]}


def _no_wall(rows):
    """Metrics rows minus the monotonic ``wall`` stamp — the only field
    allowed to differ between a serial and a parallel replay."""
    return [{k: v for k, v in row.items() if k != "wall"} for row in rows]


class CrashOnce:
    """MM factory that hard-kills its worker the first time it is called.

    A marker file (not in-memory state: worker processes are disposable)
    distinguishes the first call from the retry.
    """

    def __init__(self, marker, tlb=8, ram=64):
        self.marker = str(marker)
        self.tlb = tlb
        self.ram = ram

    def __call__(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("crashed")
            os._exit(1)  # hard crash: no exception, no cleanup
        return BasePageMM(self.tlb, self.ram)


class CrashAlways:
    """MM factory that kills its worker on every call."""

    def __call__(self):
        os._exit(1)


class RaiseOnce:
    """MM factory that raises (a plain exception) the first time."""

    def __init__(self, marker, tlb=8, ram=64):
        self.marker = str(marker)
        self.tlb = tlb
        self.ram = ram

    def __call__(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("raised")
            raise RuntimeError("transient failure")
        return BasePageMM(self.tlb, self.ram)


class RaiseAlways:
    """MM factory that raises on every call."""

    def __call__(self):
        raise RuntimeError("always broken")


def _trace(n=4000, pages=1 << 12, seed=0):
    return np.random.default_rng(seed).integers(0, pages, n)


def _grid(n=6, tlb=16, ram=512):
    return [
        SimTask(mm_factory=make_base_mm(tlb, ram), key=i, params={"h": i}, warmup=100)
        for i in range(n)
    ]


class TestDeterminism:
    def test_sweep_parallel_matches_serial(self):
        trace = _trace(6000, 1 << 13, seed=2)
        kwargs = dict(tlb_entries=32, ram_pages=1 << 11, sizes=[1, 8, 64], warmup=1000)
        serial = sweep_huge_page_sizes(trace, jobs=1, **kwargs)
        parallel = sweep_huge_page_sizes(trace, jobs=4, **kwargs)
        assert diff_records(_payload(serial), _payload(parallel)) == []
        # and the timing stamps exist on both paths
        for rec in serial + parallel:
            assert rec.params["elapsed_s"] > 0
            assert rec.params["accesses_per_s"] > 0

    def test_run_tasks_order_and_keys(self):
        # 20 cells at jobs=2 go out in default chunks of several cells each
        assert _default_chunksize(20, 2) > 1
        results = run_tasks(_grid(20), trace=_trace(1000), jobs=2)
        assert [r.key for r in results] == list(range(20))
        assert all(isinstance(r, TaskResult) and r.ok for r in results)
        assert all(r.attempts == 1 for r in results)

    def test_run_records_matches_serial_grid(self):
        trace = _trace(5000)
        serial = run_records(_grid(6), trace=trace, jobs=1)
        pooled = run_records(_grid(6), trace=trace, jobs=3)
        assert diff_records(_payload(serial), _payload(pooled)) == []

    def test_duplicate_keys_rejected(self):
        tasks = [SimTask(mm_factory=make_base_mm(8, 64), key=7) for _ in range(2)]
        with pytest.raises(ValueError, match="unique"):
            run_tasks(tasks, trace=_trace(100))

    def test_metrics_run_parallel_without_fallback(self, caplog):
        # per-task collectors are built in the workers, so interval metrics
        # no longer force jobs=1
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            records = run_records(
                _grid(2), trace=_trace(1000), jobs=4, metrics_every=200
            )
        assert "serial-only" not in caplog.text
        assert all(rec.metrics is not None for rec in records)
        assert all(rec.metrics.windows for rec in records)

    def test_metrics_parallel_rows_match_serial(self):
        trace = _trace(2000)
        serial = run_records(_grid(3), trace=trace, jobs=1, metrics_every=300)
        pooled = run_records(_grid(3), trace=trace, jobs=3, metrics_every=300)
        assert [_no_wall(r.metrics.rows()) for r in serial] == [
            _no_wall(r.metrics.rows()) for r in pooled
        ]
        # every row carries a wall stamp, and stamps are monotone per task
        for r in serial + pooled:
            walls = [row["wall"] for row in r.metrics.rows()]
            assert walls == sorted(walls)

    def test_enabled_shared_probe_forces_serial(self, caplog):
        probe = TraceRecorder(capacity=64)
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            results = run_tasks(_grid(2), trace=_trace(500), jobs=4, probe=probe)
        assert "serial-only" in caplog.text
        assert all(r.ok for r in results)
        assert probe.total_events > 0

    def test_disabled_probe_does_not_force_serial(self, caplog):
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            results = run_tasks(
                _grid(2), trace=_trace(500), jobs=2, probe=NullProbe()
            )
        assert "serial-only" not in caplog.text
        assert all(r.ok for r in results)

    def test_snapshot_merge_bit_identical_across_jobs(self):
        # the PR 2 parity grid, instrumented: per-task SamplingProbes are
        # built in the workers and the merged snapshot must not depend on
        # how the tasks were sharded
        trace = _trace(6000, 1 << 13, seed=2)
        kwargs = dict(
            tlb_entries=32, ram_pages=1 << 11, sizes=[1, 8, 64], warmup=1000,
            snapshot=partial(SamplingProbe, 1 / 16, seed=3), metrics_every=500,
        )
        serial = sweep_huge_page_sizes(trace, jobs=1, **kwargs)
        pooled = sweep_huge_page_sizes(trace, jobs=4, **kwargs)
        merged_serial = ObsSnapshot.merge_all(r.snapshot for r in serial)
        merged_pooled = ObsSnapshot.merge_all(r.snapshot for r in pooled)
        assert merged_serial.counters == merged_pooled.counters
        assert merged_serial.hists == merged_pooled.hists
        assert merged_serial.meta == merged_pooled.meta
        assert _no_wall(merged_serial.rows) == _no_wall(merged_pooled.rows)
        assert merged_serial.meta["runs"] == len(serial) == 3
        # snapshot counters are the exact per-run ledgers, summed
        assert merged_serial.counters["ios"] == sum(r.ios for r in serial)
        assert merged_serial.hists["reuse_distance"].n > 0
        # and the simulated results themselves are still untouched
        assert diff_records(_payload(serial), _payload(pooled)) == []

    def test_snapshot_true_collects_counters_only(self):
        records = run_records(
            _grid(2), trace=_trace(1000), jobs=2, snapshot=True
        )
        merged = ObsSnapshot.merge_all(r.snapshot for r in records)
        assert merged.meta["runs"] == 2
        assert merged.counters["accesses"] == sum(
            r.ledger.accesses for r in records
        )
        assert merged.hists == {}

    def test_snapshot_and_probe_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_tasks(
                _grid(1),
                trace=_trace(100),
                probe=TraceRecorder(),
                snapshot=True,
            )


class TestSeeds:
    def test_spawn_seeds_reproducible_and_distinct(self):
        a = spawn_seeds(123, 8)
        assert a == spawn_seeds(123, 8)
        assert len(set(a)) == 8
        assert a != spawn_seeds(124, 8)

    def test_spawn_seeds_edge_cases(self):
        assert spawn_seeds(0, 0) == []
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestFaultTolerance:
    def test_worker_crash_is_retried_and_recovers(self, tmp_path):
        tasks = [
            SimTask(mm_factory=CrashOnce(tmp_path / "crash"), key=0, warmup=10),
            SimTask(mm_factory=make_base_mm(8, 64), key=1, warmup=10),
        ]
        results = run_tasks(tasks, trace=_trace(500), jobs=2)
        assert [r.key for r in results] == [0, 1]
        assert results[0].ok and results[0].attempts == 2
        assert results[1].ok  # the innocent neighbour survives

    def test_permanent_crash_fails_only_its_cell(self):
        tasks = [
            SimTask(mm_factory=CrashAlways(), key=0, warmup=10),
            SimTask(mm_factory=make_base_mm(8, 64), key=1, warmup=10),
        ]
        results = run_tasks(tasks, trace=_trace(500), jobs=2)
        assert not results[0].ok
        assert "crash" in results[0].error
        assert results[0].attempts == 2  # initial + one retry
        assert results[1].ok
        # run_records drops the dead cell, keeps the rest
        records = run_records(tasks, trace=_trace(500), jobs=2)
        assert len(records) == 1

    def test_exception_is_retried_in_serial_and_pooled(self, tmp_path):
        for jobs, marker in ((1, "serial"), (2, "pooled")):
            task = SimTask(
                mm_factory=RaiseOnce(tmp_path / marker), key=0, warmup=10
            )
            (result,) = run_tasks([task], trace=_trace(500), jobs=jobs)
            assert result.ok and result.attempts == 2

    def test_exhausted_retries_surface_the_error(self):
        def boom():
            raise RuntimeError("always broken")

        (result,) = run_tasks(
            [SimTask(mm_factory=boom, key=0)], trace=_trace(100), jobs=1, retries=1
        )
        assert not result.ok
        assert "always broken" in result.error
        assert result.attempts == 2

    def test_retry_round_isolates_only_the_failed_cells(self, tmp_path, monkeypatch):
        # the first round runs all three cells in chunks; only the two
        # that failed go on to the single-worker retry round, together
        seen = []
        isolated_round = parallel._isolated_round

        def spy(pending, *args, **kwargs):
            seen.append({t.key for t in pending})
            return isolated_round(pending, *args, **kwargs)

        monkeypatch.setattr(parallel, "_isolated_round", spy)
        tasks = [
            SimTask(mm_factory=RaiseOnce(tmp_path / "a"), key=0, warmup=10),
            SimTask(mm_factory=RaiseOnce(tmp_path / "b"), key=1, warmup=10),
            SimTask(mm_factory=make_base_mm(8, 64), key=2, warmup=10),
        ]
        results = run_tasks(tasks, trace=_trace(500), jobs=2)
        assert seen == [{0, 1}]
        assert all(r.ok for r in results)
        assert [r.attempts for r in results] == [2, 2, 1]


class TestPerTaskTraces:
    def test_task_trace_overrides_shared(self):
        hot = np.zeros(400, dtype=np.int64)  # one page: almost no IOs
        cold = np.arange(400, dtype=np.int64)  # all distinct: all IOs
        tasks = [
            SimTask(mm_factory=make_base_mm(8, 1 << 10), key=0, trace=hot),
            SimTask(mm_factory=make_base_mm(8, 1 << 10), key=1, trace=cold),
        ]
        for jobs in (1, 2):
            recs = run_records(tasks, jobs=jobs)
            assert recs[0].ios == 1
            assert recs[1].ios == 400

    def test_missing_trace_is_an_error_not_a_crash(self):
        (result,) = run_tasks(
            [SimTask(mm_factory=make_base_mm(8, 64), key=0)], jobs=1, retries=0
        )
        assert not result.ok
        assert "no trace" in result.error

    def test_stamp_adds_params(self):
        task = SimTask(
            mm_factory=make_base_mm(8, 64),
            key=0,
            params={"h": 1},
            stamp=_stamp_name,
        )
        for jobs in (1, 2):
            (rec,) = run_records([task], trace=_trace(300), jobs=jobs)
            assert rec.params["h"] == 1
            assert rec.params["mm_name"] == "base-page"


def _stamp_name(mm):
    return {"mm_name": mm.name}


class TestPicklability:
    def test_partial_factories_pickle(self):
        import pickle

        for factory in (
            make_base_mm(8, 64),
            partial(BasePageMM, 8, 64),
            CrashAlways(),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert callable(clone)


class TestHeartbeatTelemetry:
    """The live-spool contract: heartbeats observe without perturbing, the
    spool aggregates to the same totals regardless of sharding, and the
    fault-tolerance path leaves structured retry records behind."""

    def _heartbeat(self, tmp_path, name, interval=512):
        return HeartbeatConfig(
            spool=str(tmp_path / f"{name}.jsonl"), interval=interval
        )

    def test_pooled_spool_aggregates_like_serial(self, tmp_path):
        trace = _trace(4000)
        serial_hb = self._heartbeat(tmp_path, "serial")
        pooled_hb = self._heartbeat(tmp_path, "pooled")
        serial = run_records(_grid(6), trace=trace, jobs=1, heartbeat=serial_hb)
        pooled = run_records(
            _grid(6), trace=trace, jobs=4, heartbeat=pooled_hb
        )
        # telemetry never perturbs the simulation
        assert diff_records(_payload(serial), _payload(pooled)) == []
        a = aggregate(read_spool(serial_hb.spool))
        b = aggregate(read_spool(pooled_hb.spool))
        # same tasks, same final counters, everything done — bit-identical
        # totals whether one process wrote the spool or five did
        assert [t["task"] for t in a["tasks"]] == [t["task"] for t in b["tasks"]]
        assert all(t["state"] == "done" for t in a["tasks"] + b["tasks"])
        assert a["totals"]["counters"] == b["totals"]["counters"]
        assert a["totals"]["counters"]["accesses"] == 6 * len(trace)
        assert sum(t["done"] for t in b["tasks"]) == 6 * len(trace)

    def test_merged_spool_is_well_ordered(self, tmp_path):
        trace = _trace(4000)
        hb = self._heartbeat(tmp_path, "order", interval=400)
        run_records(_grid(6), trace=trace, jobs=4, heartbeat=hb)
        records = read_spool(hb.spool)
        # writers interleave, but every record line survived intact ...
        assert all(r["kind"] in ("task_start", "phase", "heartbeat",
                                "task_end") for r in records)
        # ... wall stamps are monotone per worker (one clock per process)
        walls: dict[str, float] = {}
        for r in records:
            assert r["wall"] >= walls.get(r["worker"], 0.0)
            walls[r["worker"]] = r["wall"]
        # ... and each task's lifecycle reads start -> rising progress -> end
        for key in range(6):
            cell = [r for r in records if r.get("task") == key]
            assert cell[0]["kind"] == "task_start"
            assert cell[-1]["kind"] == "task_end"
            dones = [r["done"] for r in cell if r["kind"] == "heartbeat"]
            assert dones == sorted(dones)
            assert cell[-1]["accesses"] == len(trace)

    def test_heartbeat_composes_with_snapshot_probes(self, tmp_path):
        trace = _trace(2000)
        hb = self._heartbeat(tmp_path, "compose")
        records = run_records(
            _grid(2), trace=trace, jobs=2, heartbeat=hb,
            snapshot=partial(SamplingProbe, 1 / 16, seed=3),
        )
        assert all(r.snapshot is not None for r in records)
        merged = ObsSnapshot.merge_all(r.snapshot for r in records)
        assert merged.hists["reuse_distance"].n > 0
        beats = [r for r in read_spool(hb.spool) if r["kind"] == "heartbeat"]
        assert beats  # both observers ran in the same replay

    def test_retry_leaves_structured_record(self, tmp_path):
        hb = self._heartbeat(tmp_path, "retry")
        task = SimTask(
            mm_factory=RaiseOnce(tmp_path / "marker"), key=5, warmup=10
        )
        (result,) = run_tasks([task], trace=_trace(500), jobs=1, heartbeat=hb)
        assert result.ok and result.attempts == 2
        retries = [r for r in read_spool(hb.spool) if r["kind"] == "task_retry"]
        assert len(retries) == 1
        assert retries[0]["task"] == 5
        assert retries[0]["attempt"] == 1
        assert "transient failure" in retries[0]["error"]
        assert retries[0]["worker"] == "parent"
        # the aggregate surfaces it too
        assert aggregate(read_spool(hb.spool))["retries"] == retries

    def test_serial_retry_runs_after_the_round(self, tmp_path):
        hb = self._heartbeat(tmp_path, "serial-retry")
        tasks = [
            SimTask(mm_factory=RaiseOnce(tmp_path / "marker"), key=0, warmup=10),
            SimTask(mm_factory=make_base_mm(8, 64), key=1, warmup=10),
        ]
        results = run_tasks(tasks, trace=_trace(500), jobs=1, heartbeat=hb)
        assert [r.attempts for r in results] == [2, 1]
        order = [
            (r["kind"], r["task"])
            for r in read_spool(hb.spool)
            if r["kind"] in ("task_end", "task_retry")
        ]
        assert order == [("task_end", 1), ("task_retry", 0), ("task_end", 0)]

    @pytest.mark.parametrize(
        "factory, jobs",
        [(RaiseAlways(), 1), (RaiseAlways(), 2), (CrashAlways(), 2)],
        ids=["raise-serial", "raise-pooled", "crash-pooled"],
    )
    def test_failed_cell_ends_failed_on_the_spool(self, tmp_path, factory, jobs):
        hb = self._heartbeat(tmp_path, "failed")
        tasks = [
            SimTask(mm_factory=factory, key=0, warmup=10),
            SimTask(mm_factory=make_base_mm(8, 64), key=1, warmup=10),
        ]
        results = run_tasks(tasks, trace=_trace(500), jobs=jobs, heartbeat=hb)
        assert not results[0].ok and results[0].attempts == 2
        records = read_spool(hb.spool)
        (end,) = [r for r in records if r["kind"] == "task_end" and r["task"] == 0]
        assert end["error"] == results[0].error
        assert end["worker"] == "parent"
        states = {t["task"]: t["state"] for t in aggregate(records)["tasks"]}
        assert states == {"0": "failed", "1": "done"}
