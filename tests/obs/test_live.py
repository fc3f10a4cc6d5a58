"""Tests for the live telemetry bus (repro.obs.live).

The spool contract: every record is one atomic JSONL line carrying
``kind``/``worker``/``seq``/``wall``; readers tolerate torn or foreign
lines; :func:`aggregate` reduces any record mix into the ``repro top``
summary; and the heartbeat probe streams progress without perturbing the
simulation or leaving the vectorized fast paths.
"""

import json

import pytest

from repro.mmu.base import MemoryManagementAlgorithm
from repro.obs import (
    HeartbeatConfig,
    HeartbeatProbe,
    StallWatcher,
    TelemetryBus,
    aggregate,
    read_spool,
    render_top,
)
from tests.check.goldens import build_mm, build_trace


class TestTelemetryBus:
    def test_emit_appends_one_json_line(self, tmp_path):
        spool = tmp_path / "t.jsonl"
        with TelemetryBus(spool, worker="w0") as bus:
            rec = bus.emit("phase", task="3", label="measure", t=100)
        lines = spool.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed == rec
        assert parsed["kind"] == "phase"
        assert parsed["worker"] == "w0"
        assert parsed["seq"] == 1
        assert isinstance(parsed["wall"], float)

    def test_seq_increments_per_bus(self, tmp_path):
        spool = tmp_path / "t.jsonl"
        with TelemetryBus(spool, worker="a") as bus:
            assert [bus.emit("phase")["seq"] for _ in range(3)] == [1, 2, 3]

    def test_worker_defaults_to_pid(self, tmp_path):
        import os

        bus = TelemetryBus(tmp_path / "t.jsonl")
        assert bus.worker == str(os.getpid())

    def test_two_buses_share_one_spool(self, tmp_path):
        spool = tmp_path / "t.jsonl"
        with TelemetryBus(spool, worker="a") as a, TelemetryBus(
            spool, worker="b"
        ) as b:
            a.emit("heartbeat", task="1", done=10)
            b.emit("heartbeat", task="2", done=20)
            a.emit("task_end", task="1")
        records = read_spool(spool)
        assert [r["worker"] for r in records] == ["a", "b", "a"]

    def test_lazy_open_creates_parent_dirs(self, tmp_path):
        spool = tmp_path / "deep" / "nested" / "t.jsonl"
        bus = TelemetryBus(spool, worker="x")
        assert not spool.parent.exists()  # nothing until the first emit
        bus.emit("phase")
        bus.close()
        assert spool.exists()


class TestReadSpool:
    def test_missing_file_is_empty(self, tmp_path):
        assert read_spool(tmp_path / "absent.jsonl") == []

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        spool = tmp_path / "t.jsonl"
        good = {"kind": "heartbeat", "worker": "a", "seq": 1, "wall": 1.0}
        spool.write_text(
            json.dumps(good) + "\n"
            + '{"kind": "heartbeat", "tru'  # torn tail mid-write
            + "\n\n"
            + '"a bare json string"\n'  # valid json, not a record
            + "[1, 2, 3]\n"  # ditto
            + '{"no_kind": true}\n'  # dict without a kind
        )
        assert read_spool(spool) == [good]


class TestRotation:
    """The spool is one file: no bus rotates it, and the reader reads that
    file alone, so a ``.1`` generation left beside it is never stitched in
    and its records cannot appear twice."""

    def test_duplicate_records_across_generations_dedupe(self, tmp_path):
        spool = tmp_path / "t.jsonl"
        rec = {"kind": "heartbeat", "worker": "w", "seq": 1, "wall": 1.0}
        (tmp_path / "t.jsonl.1").write_text(json.dumps(rec) + "\n")
        spool.write_text(json.dumps(rec) + "\n")
        assert read_spool(spool) == [rec]

    def test_unbounded_bus_never_rotates(self, tmp_path):
        spool = tmp_path / "t.jsonl"
        with TelemetryBus(spool, worker="w") as bus:
            for i in range(40):
                bus.emit("heartbeat", task="0", done=i)
        assert not (tmp_path / "t.jsonl.1").exists()
        assert len(read_spool(spool)) == 40


def _hb(task, done, *, worker="w", seq=1, wall=0.0, total=100, acc_s=1000.0,
        counters=None):
    return {"kind": "heartbeat", "worker": worker, "seq": seq, "wall": wall,
            "task": task, "done": done, "total": total, "acc_s": acc_s,
            "counters": counters or {}}


class TestAggregate:
    def test_latest_heartbeat_wins(self):
        summary = aggregate([
            _hb("0", 10, wall=1.0),
            _hb("0", 50, seq=2, wall=2.0, acc_s=2000.0),
        ])
        (task,) = summary["tasks"]
        assert task["done"] == 50
        assert task["acc_s"] == 2000.0
        assert task["state"] == "running"
        assert summary["workers"]["w"]["heartbeats"] == 2
        assert summary["totals"]["elapsed_s"] == 1.0

    def test_task_end_states(self):
        records = [
            _hb("0", 100, wall=1.0),
            {"kind": "task_end", "worker": "w", "seq": 2, "wall": 2.0,
             "task": "0", "accesses": 100, "acc_s": 500.0,
             "counters": {"ios": 7}},
            {"kind": "task_start", "worker": "w", "seq": 3, "wall": 3.0,
             "task": "1", "total": 200},
            {"kind": "task_end", "worker": "w", "seq": 4, "wall": 4.0,
             "task": "1", "error": "RuntimeError: boom"},
        ]
        by = {t["task"]: t for t in aggregate(records)["tasks"]}
        assert by["0"]["state"] == "done"
        assert by["0"]["done"] == 100
        assert by["0"]["counters"] == {"ios": 7}
        assert by["1"]["state"] == "failed"

    def test_stall_flags_task_until_it_speaks_again(self):
        stall = {"kind": "task_stall", "worker": "parent", "seq": 1,
                 "wall": 5.0, "task": "0", "stalled_worker": "w",
                 "silent_s": 9.0}
        stalled = aggregate([_hb("0", 10, wall=1.0), stall])
        assert stalled["tasks"][0]["state"] == "stalled"
        assert stalled["stalls"] == [stall]
        # a later heartbeat clears the stall state
        recovered = aggregate(
            [_hb("0", 10, wall=1.0), stall, _hb("0", 20, seq=2, wall=9.0)]
        )
        assert recovered["tasks"][0]["state"] == "running"

    def test_retries_are_collected(self):
        retry = {"kind": "task_retry", "worker": "parent", "seq": 1,
                 "wall": 1.0, "task": "2", "attempt": 1, "error": "boom"}
        assert aggregate([retry])["retries"] == [retry]

    def test_numeric_task_ids_sort_numerically(self):
        records = [_hb(str(i), 1, wall=float(i)) for i in (10, 2, 9, 1)]
        summary = aggregate(records)
        assert [t["task"] for t in summary["tasks"]] == ["1", "2", "9", "10"]

    def test_totals_counters_eta_and_rate(self):
        summary = aggregate([
            _hb("0", 50, wall=1.0, total=100, acc_s=100.0,
                counters={"accesses": 50, "ios": 5}),
            _hb("1", 25, worker="v", wall=1.5, total=100, acc_s=100.0,
                counters={"accesses": 25, "ios": 2}),
        ])
        totals = summary["totals"]
        assert totals["counters"] == {"accesses": 75, "ios": 7}
        assert totals["acc_s"] == 200.0
        assert totals["remaining"] == 125
        assert totals["eta_s"] == pytest.approx(125 / 200.0)

    def test_empty_spool(self):
        summary = aggregate([])
        assert summary["tasks"] == []
        assert summary["totals"]["eta_s"] is None


class TestRenderTop:
    def test_empty_frame(self):
        assert "spool is empty" in render_top(aggregate([]))

    def test_frame_shows_progress_and_cost(self):
        summary = aggregate([
            _hb("0", 50, wall=1.0, total=100,
                counters={"accesses": 50, "ios": 10, "tlb_misses": 100}),
            {"kind": "task_end", "worker": "v", "seq": 1, "wall": 2.0,
             "task": "1", "accesses": 100, "acc_s": 0.0, "counters": {}},
        ])
        text = render_top(summary, epsilon=0.5)
        assert "1 running, 1 done" in text
        assert "50.0%" in text
        # cost@eps: ios + eps * (tlb_misses + decoding_misses)
        assert "cost@eps=0.5 60.0" in text

    def test_frame_shows_stalls_and_retries(self):
        summary = aggregate([
            _hb("0", 10, wall=1.0),
            {"kind": "task_stall", "worker": "parent", "seq": 1, "wall": 9.0,
             "task": "0", "stalled_worker": "w", "silent_s": 8.0},
            {"kind": "task_retry", "worker": "parent", "seq": 2, "wall": 9.5,
             "task": "0", "attempt": 1, "error": "boom"},
        ])
        text = render_top(summary)
        assert "STALL task=0 worker=w" in text
        assert "RETRY task=0 attempt=1" in text


class TestHeartbeatProbe:
    def _run(self, tmp_path, interval=500, warmup=0):
        trace = build_trace("zipf")
        spool = tmp_path / "hb.jsonl"
        mm = build_mm("thp")
        with TelemetryBus(spool, worker="w0") as bus:
            mm.probe = HeartbeatProbe(
                bus, interval=interval, task="cell", total=len(trace)
            )
            plain = build_mm("thp")
            expected = plain.run(trace)
            ledger = mm.run(trace)
        assert ledger.snapshot() == expected.snapshot()  # never perturbs
        return trace, mm.probe, read_spool(spool)

    def test_heartbeats_cover_the_full_replay(self, tmp_path):
        trace, probe, records = self._run(tmp_path, interval=500)
        beats = [r for r in records if r["kind"] == "heartbeat"]
        # one flush per interval segment: ceil(n / interval)
        assert len(beats) == -(-len(trace) // 500)
        assert probe.done == len(trace)
        assert beats[-1]["done"] == len(trace)
        assert [b["done"] for b in beats] == sorted(b["done"] for b in beats)

    def test_counters_track_the_ledger_deltas(self, tmp_path):
        trace, probe, records = self._run(tmp_path, interval=700)
        mm = build_mm("thp")
        ledger = mm.run(trace)
        assert probe.counters["accesses"] == ledger.accesses
        assert probe.counters["ios"] == ledger.ios
        assert probe.counters["tlb_misses"] == ledger.tlb_misses
        last = [r for r in records if r["kind"] == "heartbeat"][-1]
        assert last["counters"] == probe.counters

    def test_fast_path_stays_enabled(self, tmp_path, monkeypatch):
        def boom(self, trace):  # pragma: no cover - failure path
            raise AssertionError("heartbeat forced the per-access replay")

        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_probed", boom)
        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_batch", boom)
        self._run(tmp_path, interval=300)

    def test_on_phase_records(self, tmp_path):
        spool = tmp_path / "p.jsonl"
        with TelemetryBus(spool, worker="w") as bus:
            probe = HeartbeatProbe(bus, task="7")
            probe.on_phase(1000, "measure")
        (rec,) = read_spool(spool)
        assert rec["kind"] == "phase"
        assert rec["task"] == "7"
        assert rec["label"] == "measure"
        assert rec["t"] == 1000

    def test_interval_validation(self, tmp_path):
        bus = TelemetryBus(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            HeartbeatProbe(bus, interval=0)


class TestHeartbeatConfig:
    def test_bus_builds_on_the_spool(self, tmp_path):
        cfg = HeartbeatConfig(spool=str(tmp_path / "s.jsonl"), interval=128)
        with cfg.bus(worker="w9") as bus:
            bus.emit("phase")
        (rec,) = read_spool(cfg.spool)
        assert rec["worker"] == "w9"

    def test_is_picklable(self, tmp_path):
        import pickle

        cfg = HeartbeatConfig(spool=str(tmp_path / "s.jsonl"))
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestStallWatcher:
    def _spool_with_heartbeat(self, tmp_path, wall):
        spool = tmp_path / "s.jsonl"
        spool.write_text(
            json.dumps(_hb("0", 10, wall=wall)) + "\n"
        )
        return spool

    def test_silent_worker_is_reported_once_per_episode(self, tmp_path):
        spool = self._spool_with_heartbeat(tmp_path, wall=100.0)
        watcher = StallWatcher(
            spool, TelemetryBus(spool, worker="parent"), grace_s=5.0
        )
        assert watcher.check(now=104.0) == []  # within grace
        (stall,) = watcher.check(now=110.0)
        assert stall["kind"] == "task_stall"
        assert stall["stalled_worker"] == "w"
        assert stall["silent_s"] == pytest.approx(10.0)
        # the same episode is never re-reported ...
        assert watcher.check(now=120.0) == []
        watcher.bus.close()
        # ... and the stall record itself is now on the spool
        assert [r["kind"] for r in read_spool(spool)][-1] == "task_stall"

    def test_speaking_again_rearms_the_watcher(self, tmp_path):
        spool = self._spool_with_heartbeat(tmp_path, wall=100.0)
        bus = TelemetryBus(spool, worker="parent")
        watcher = StallWatcher(spool, bus, grace_s=5.0)
        assert len(watcher.check(now=110.0)) == 1
        with spool.open("a") as fh:  # worker recovers (controlled wall)
            fh.write(json.dumps(_hb("0", 20, seq=2, wall=111.0)) + "\n")
        # recovery re-arms: the live check clears the reported episode, so
        # a *new* silence after the fresh heartbeat is a new episode
        assert watcher.check(now=112.0) == []
        assert len(watcher.check(now=200.0)) == 1
        bus.close()

    @pytest.mark.parametrize("kind", ["task_retry", "task_end"])
    def test_failed_attempt_closed_by_the_parent_is_no_stall(self, tmp_path, kind):
        # a worker that raised or crashed mid-run leaves a heartbeat as its
        # last word; the parent's record for the task closes the attempt
        spool = self._spool_with_heartbeat(tmp_path, wall=100.0)
        with spool.open("a") as fh:
            fh.write(json.dumps({"kind": kind, "worker": "parent", "seq": 1,
                                 "wall": 101.0, "task": 0, "error": "boom"}) + "\n")
        bus = TelemetryBus(spool, worker="parent")
        watcher = StallWatcher(spool, bus, grace_s=5.0)
        assert watcher.check(now=200.0) == []
        # the worker is watched again once it speaks again (its observed
        # period is now 102 s, so it may stay silent for 408 s)
        with spool.open("a") as fh:
            fh.write(json.dumps(_hb("1", 5, seq=2, wall=202.0)) + "\n")
        assert len(watcher.check(now=1000.0)) == 1
        bus.close()

    def test_stall_allowance_scales_with_observed_period(self, tmp_path):
        spool = tmp_path / "s.jsonl"
        # two heartbeats 30s apart: allowed silence is 4x30 >> grace
        spool.write_text(
            json.dumps(_hb("0", 10, wall=100.0))
            + "\n"
            + json.dumps(_hb("0", 20, seq=2, wall=130.0))
            + "\n"
        )
        watcher = StallWatcher(
            spool, TelemetryBus(spool, worker="parent"),
            stall_factor=4.0, grace_s=5.0,
        )
        assert watcher.check(now=200.0) == []  # 70s silent, 120s allowed
        assert len(watcher.check(now=260.0)) == 1
        watcher.bus.close()

    def test_finished_workers_are_not_flagged(self, tmp_path):
        spool = tmp_path / "s.jsonl"
        spool.write_text(
            json.dumps(_hb("0", 10, wall=100.0))
            + "\n"
            + json.dumps({"kind": "task_end", "worker": "w", "seq": 2,
                          "wall": 101.0, "task": "0"})
            + "\n"
        )
        watcher = StallWatcher(spool, TelemetryBus(spool, worker="parent"))
        assert watcher.check(now=1000.0) == []
        watcher.bus.close()

    def test_thread_lifecycle(self, tmp_path):
        spool = tmp_path / "s.jsonl"
        bus = TelemetryBus(spool, worker="parent")
        with StallWatcher(spool, bus, poll_s=0.01) as watcher:
            assert watcher._thread.is_alive()
        assert watcher._thread is None
        bus.close()
