"""The ``run()`` dispatch contract, on both engines.

:meth:`repro.mmu.base.MemoryManagementAlgorithm.run` is the one place that
decides how a trace is replayed: the per-access event replay for probes
that are not batch-safe, otherwise one segment (or ``batch_interval``
segments) through the array engine or the class's ``_run_batch`` hook,
with exactly one ``on_batch`` flush per segment. These tests pin that
contract for every registry algorithm on both engines:

* flush counts — one per ``run()`` (an empty trace included), and
  ``ceil(n / interval)`` under an interval probe;
* ledgers and deep state under an interval probe equal the unprobed run;
* probes that are not batch-safe take ``_run_probed`` and never reach the
  array engine;
* a subclass that redefines ``access`` without its own hook replays
  through that ``access``; ``WritebackHugePageMM`` is one.
"""

import numpy as np
import pytest

from repro.bench.hotloop import key_stream
from repro.mmu import PhysicalHugePageMM, THPStyleMM, array_engine
from repro.mmu.base import MemoryManagementAlgorithm
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm
from repro.obs import Probe, TraceRecorder

from .test_array_engine import _state_sig

TLB_ENTRIES = 64
RAM_PAGES = 1024
TRACE = np.array(key_stream(3_000, 1 << 12, 1 << 7, 90, seed=1), dtype=np.int64)

CELLS = [(name, engine) for name in MM_NAMES for engine in ENGINES]
CELL_IDS = [f"{name}@{engine}" for name, engine in CELLS]


class _FlushCounter(Probe):
    """Batch-safe probe recording every ``on_batch`` flush."""

    batch_safe = True

    def __init__(self, interval=None) -> None:
        self.batch_interval = interval
        self.flushes = []

    def on_batch(self, t0, vpns, ledger, before) -> None:
        self.flushes.append((t0, len(vpns), ledger.accesses - before[0]))


def _build(name, engine):
    return make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)


def _deep_state(mm):
    sig = _state_sig(mm)
    if isinstance(mm, THPStyleMM):
        sig["thp"] = (
            list(mm._lru._order),
            sorted(mm._frame_of.items()),
            sorted(mm._promoted),
            sorted((r, sorted(v)) for r, v in mm._resident_in_region.items()),
            mm.memory.free_frames,
            mm._evicted_units,
        )
    return sig


@pytest.mark.parametrize(("name", "engine"), CELLS, ids=CELL_IDS)
class TestFlushCounts:
    def test_one_flush_per_run_empty_trace_included(self, name, engine):
        mm = _build(name, engine)
        probe = mm.probe = _FlushCounter()
        mm.run(np.arange(0))
        mm.run(TRACE)
        mm.run(np.arange(0))
        n = len(TRACE)
        assert probe.flushes == [(0, 0, 0), (0, n, n), (n, 0, 0)]

    def test_one_flush_per_interval_segment(self, name, engine):
        mm = _build(name, engine)
        probe = mm.probe = _FlushCounter(interval=700)
        mm.run(TRACE)
        n = len(TRACE)
        assert len(probe.flushes) == -(-n // 700)
        assert [t0 for t0, _, _ in probe.flushes] == list(range(0, n, 700))
        assert [size for _, size, _ in probe.flushes] == [
            min(700, n - t0) for t0 in range(0, n, 700)
        ]
        assert all(size == delta for _, size, delta in probe.flushes)
        mm.run(np.arange(0))
        assert len(probe.flushes) == -(-n // 700)  # ceil(0 / 700) == 0

    def test_interval_probe_leaves_state_bit_identical(self, name, engine):
        plain = _build(name, engine)
        plain.run(TRACE)
        probed = _build(name, engine)
        probed.probe = _FlushCounter(interval=337)
        probed.run(TRACE)
        assert _deep_state(probed) == _deep_state(plain)


@pytest.mark.parametrize(("name", "engine"), CELLS, ids=CELL_IDS)
def test_per_access_probe_takes_the_probed_replay(name, engine, monkeypatch):
    calls = []
    probed_replay = MemoryManagementAlgorithm._run_probed

    def spy(self, trace):
        calls.append(len(trace))
        return probed_replay(self, trace)

    def no_engine(mm, trace):  # pragma: no cover - failure path
        raise AssertionError("a per-access probe reached the array engine")

    monkeypatch.setattr(MemoryManagementAlgorithm, "_run_probed", spy)
    monkeypatch.setattr(array_engine, "try_run", no_engine)
    mm = _build(name, engine)
    recorder = mm.probe = TraceRecorder(capacity=16)
    mm.run(TRACE)
    assert calls == [len(TRACE)]
    assert recorder.counts["access"] == len(TRACE)


class _CountingHugePage(PhysicalHugePageMM):
    calls = 0

    def access(self, vpn: int) -> None:
        self.calls += 1
        super().access(vpn)


class _CountingTHP(THPStyleMM):
    calls = 0

    def access(self, vpn: int) -> None:
        self.calls += 1
        super().access(vpn)


class TestAccessOverrides:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        ("sub", "parent"),
        [(_CountingHugePage, PhysicalHugePageMM), (_CountingTHP, THPStyleMM)],
        ids=["physical-huge", "thp"],
    )
    def test_subclass_replays_through_its_access(self, sub, parent, engine):
        mm = sub(TLB_ENTRIES, RAM_PAGES, 16)
        mm.engine = engine
        mm.run(TRACE)
        assert mm.calls == len(TRACE)
        reference = parent(TLB_ENTRIES, RAM_PAGES, 16)
        reference.run(TRACE)
        assert mm.ledger.as_dict() == reference.ledger.as_dict()

    def test_hook_resolution(self):
        base = MemoryManagementAlgorithm._run_batch
        assert _CountingHugePage._run_batch is base
        assert _CountingTHP._run_batch is base
        assert PhysicalHugePageMM._run_batch is not base
        assert THPStyleMM._run_batch is not base
        assert not array_engine.supports(_CountingHugePage(TLB_ENTRIES, RAM_PAGES))

    def test_writeback_object_engine_takes_the_per_access_loop(self):
        mm = _build("physical-huge+wb", "object")
        assert type(mm)._run_batch is MemoryManagementAlgorithm._run_batch
        seen = []
        access = mm.access

        def spy(vpn):
            seen.append(vpn)
            access(vpn)

        mm.access = spy
        mm.run(TRACE)
        assert seen == TRACE.tolist()
        reference = _build("physical-huge+wb", "array")
        reference.run(TRACE)
        assert _state_sig(mm) == _state_sig(reference)
