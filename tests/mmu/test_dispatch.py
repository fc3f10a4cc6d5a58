"""The ``run()`` dispatch contract, on both engines.

:meth:`repro.mmu.base.MemoryManagementAlgorithm.run` is the one place that
decides how a trace is replayed: the per-access event replay for probes
that are not batch-safe, otherwise one segment (or ``batch_interval``
segments) through the array engine or the object engine's ``_run_batch``,
with exactly one ``on_batch`` flush per segment. These tests pin that
contract for every registry algorithm on both engines:

* flush counts — one per ``run()`` (an empty trace included), and
  ``ceil(n / interval)`` under an interval probe;
* ledgers and deep state under an interval probe equal the unprobed run;
* probes that are not batch-safe take ``_run_probed`` and never reach the
  array engine, and their flushes still reach every batch-safe probe next
  to them, which then collects what it collects alone;
* a subclass that redefines ``access`` without its own hook replays
  through that ``access``; ``WritebackHugePageMM`` and
  ``NestedTranslationMM`` are two, and the physical-huge family's
  ``PageCache.access_many`` is the only other hook;
* ``HybridMM`` at ``chunk = 1`` is ``DecoupledMM``;
* the piece loop: ``run()`` cuts a segment longer than the piece size
  (``base._PIECE``) into equal pieces on both engines, and offers the
  array engine each piece that clears its class's floor
  (``array_engine._FLOORS``); a paging failure finishes its piece on the
  object engine and later pieces are offered again, a declined piece runs
  on the object engine, and attributed segments keep their causes, each
  with the same state as the object engine;
* the memory of a replay is bounded by the piece size: one ``run()`` of
  32 pieces peaks no higher than runs of 4, on every cell.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bench.hotloop import FAILURE_MMS, HOTLOOP_CONFIG, key_stream
from repro.mmu import (
    BasePageMM,
    DecoupledMM,
    HybridMM,
    NestedTranslationMM,
    PhysicalHugePageMM,
    THPStyleMM,
    WritebackHugePageMM,
    array_engine,
    base,
)
from repro.mmu.base import MemoryManagementAlgorithm
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm
from repro.obs import (
    AttributionProbe,
    IntervalMetrics,
    MultiProbe,
    OnlineStackDistance,
    OnlineWorkingSet,
    Probe,
    SamplingProbe,
    TraceRecorder,
)
from repro.obs.live import HeartbeatProbe
from repro.sim import simulate

from .test_array_engine import ARRAY_MMS, _assert_served_whole, _state_sig

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
    # the floors are lifted (engine_calls), so the array cells flush
    # segments the engine served, not object replays
    def test_one_flush_per_run_empty_trace_included(self, name, engine, engine_calls):
        mm = _build(name, engine)
        probe = mm.probe = _FlushCounter()
        mm.run(np.arange(0))
        mm.run(TRACE)
        mm.run(np.arange(0))
        n = len(TRACE)
        assert probe.flushes == [(0, 0, 0), (0, n, n), (n, 0, 0)]
        _assert_served_whole(mm, engine_calls)

    def test_one_flush_per_interval_segment(self, name, engine, engine_calls):
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
        _assert_served_whole(mm, engine_calls)

    def test_interval_probe_leaves_state_bit_identical(self, name, engine, engine_calls):
        plain = _build(name, engine)
        plain.run(TRACE)
        probed = _build(name, engine)
        probed.probe = _FlushCounter(interval=337)
        probed.run(TRACE)
        assert _deep_state(probed) == _deep_state(plain)
        _assert_served_whole(probed, engine_calls)


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


class _Bus:
    """Keeps heartbeat records in memory instead of a spool."""

    def __init__(self) -> None:
        self.records = []

    def emit(self, kind, **fields) -> None:
        self.records.append((kind, fields))


#: every batch-safe probe, as a factory and a reader of what it collected
#: (a heartbeat's wall-clock rates left out)
BATCH_SAFE = {
    "sampling": (lambda: SamplingProbe(1 / 4, seed=1), SamplingProbe.as_dict),
    "working-set": (lambda: OnlineWorkingSet(256, sample_every=8), OnlineWorkingSet.as_dict),
    "stack-distance": (OnlineStackDistance, OnlineStackDistance.as_dict),
    "heartbeat": (
        lambda: HeartbeatProbe(_Bus(), interval=700),
        lambda p: [(kind, f.get("done"), f.get("counters")) for kind, f in p.bus.records],
    ),
}


@pytest.mark.parametrize("neighbour", ["metrics", "recorder"])
@pytest.mark.parametrize("kind", sorted(BATCH_SAFE))
def test_batch_safe_probe_sees_every_access_next_to_a_per_access_one(kind, neighbour):
    """A per-access neighbour moves the replay onto ``_run_probed``, not
    the flushes: the batch-safe probe collects exactly what it does alone
    (the interval metrics join at the measure phase, the recorder for the
    whole run)."""
    build, state = BATCH_SAFE[kind]
    alone = build()
    simulate(_build("decoupled", "array"), TRACE, warmup=1000, probe=alone)
    paired = build()
    mm = _build("decoupled", "array")
    if neighbour == "metrics":
        simulate(mm, TRACE, warmup=1000, probe=paired, metrics=IntervalMetrics(every=500))
    else:
        probe = MultiProbe([paired, TraceRecorder(capacity=16)])
        simulate(mm, TRACE, warmup=1000, probe=probe)
    assert state(paired) == state(alone)


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
        """The object engine is ``access()``: the one hook that replaces
        the per-access loop is the physical-huge family's
        ``PageCache.access_many``, and subclasses that redefine ``access``
        under it (nested, write-back, user subclasses) get the loop back."""
        base = MemoryManagementAlgorithm._run_batch
        hooked = {n for n in MM_NAMES if type(_build(n, "object"))._run_batch is not base}
        assert hooked == {"base-page", "physical-huge"}
        assert BasePageMM._run_batch is PhysicalHugePageMM._run_batch
        assert NestedTranslationMM._run_batch is base
        assert WritebackHugePageMM._run_batch is base
        assert _CountingHugePage._run_batch is base
        assert _CountingTHP._run_batch is base
        assert not array_engine.supports(_CountingHugePage(TLB_ENTRIES, RAM_PAGES))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hybrid_with_chunk_one_is_plain_decoupling(self, engine):
        """``HybridMM(ℓ, P, 1)`` is ``DecoupledMM(ℓ, P)``: same ledger, same
        deep state, with the second half in 300-access calls (below the
        decoupled floor, above the hybrid one)."""
        machines = [
            HybridMM(TLB_ENTRIES, RAM_PAGES, 1, seed=5),
            DecoupledMM(TLB_ENTRIES, RAM_PAGES, seed=5),
        ]
        half = len(TRACE) // 2
        for mm in machines:
            mm.engine = engine
            mm.run(TRACE[:half])
            for lo in range(half, len(TRACE), 300):
                mm.run(TRACE[lo : lo + 300])
        hybrid, plain = machines
        assert hybrid.ledger.as_dict() == plain.ledger.as_dict()
        assert _state_sig(hybrid) == _state_sig(plain)

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


# ------------------------------------------------------ floor and pieces

#: long enough to clear every class's floor.
LONG_TRACE = np.array(key_stream(6_007, 1 << 12, 1 << 7, 90, seed=2), dtype=np.int64)


def _try_run_log(monkeypatch) -> list:
    """Record the length of every piece ``run()`` offers the engine."""
    log = []
    real = array_engine.try_run

    def spy(mm, trace):
        log.append(len(trace))
        return real(mm, trace)

    monkeypatch.setattr(array_engine, "try_run", spy)
    return log


def _handler_log(monkeypatch, cls, *, decline=()) -> list:
    """Record ``(piece length, accesses served)`` for every piece the
    engine hands *cls*'s handler; the pieces whose (0-based) index is in
    *decline* are declined before any state moves."""
    log = []
    real = array_engine._HANDLERS[cls]

    def spy(mm, piece):
        served = None if len(log) in decline else real(mm, piece)
        log.append((len(piece), served))
        return served

    monkeypatch.setitem(array_engine._HANDLERS, cls, spy)
    return log


def _object_log(monkeypatch, cls) -> list:
    """Record the length of every object-engine replay of *cls*."""
    log = []
    real = cls._run_batch

    def spy(self, trace):
        log.append(len(trace))
        return real(self, trace)

    monkeypatch.setattr(cls, "_run_batch", spy)
    return log


def _equal_pieces(n: int, size: int) -> list:
    pieces = -(-n // size)
    return [(k + 1) * n // pieces - k * n // pieces for k in range(pieces)]


def test_every_handled_class_has_a_floor_and_a_ceiling():
    # the one ceiling is the piece size: a segment longer than it is cut
    # into pieces of at least half of it, so a segment that clears its
    # floor has no piece below it
    assert array_engine._FLOORS.keys() == array_engine._HANDLERS.keys()
    for floor in array_engine._FLOORS.values():
        assert 0 < floor <= base._PIECE // 2


@pytest.mark.parametrize("name", ARRAY_MMS)
def test_floor_decides_whether_run_offers_the_engine(name, monkeypatch):
    floor = array_engine._FLOORS[type(_build(name, "array"))]
    assert 1 < floor <= len(LONG_TRACE)
    offered = _try_run_log(monkeypatch)
    for n in (floor - 1, floor):
        arr = _build(name, "array")
        arr.run(LONG_TRACE[:n])
        ref = _build(name, "object")
        ref.run(LONG_TRACE[:n])
        assert _state_sig(arr) == _state_sig(ref), n
    assert offered == [floor]


@pytest.mark.parametrize("name", ARRAY_MMS)
def test_floor_applies_to_each_piece(name, monkeypatch):
    # pieces of 858-859 accesses: the engine is offered those of the
    # classes whose floor they clear, and the rest stay on the object engine
    monkeypatch.setattr(base, "_PIECE", 1_000)
    offered = _try_run_log(monkeypatch)
    arr = _build(name, "array")
    arr.run(LONG_TRACE)
    sizes = _equal_pieces(len(LONG_TRACE), 1_000)
    floor = array_engine._FLOORS[type(arr)]
    assert offered == (sizes if floor <= min(sizes) else [])
    ref = _build(name, "object")
    ref.run(LONG_TRACE)
    assert _state_sig(arr) == _state_sig(ref)


@pytest.mark.parametrize("name", ARRAY_MMS)
def test_long_segment_reaches_the_handler_in_equal_pieces(
    name, monkeypatch, engine_calls
):
    monkeypatch.setattr(base, "_PIECE", 1_000)
    arr = _build(name, "array")
    cls = type(arr)
    pieces = _handler_log(monkeypatch, cls)
    replays = _object_log(monkeypatch, cls)
    arr.run(LONG_TRACE)
    sizes = _equal_pieces(len(LONG_TRACE), 1_000)
    assert max(sizes) - min(sizes) <= 1 and len(sizes) == 7
    assert pieces == [(n, n) for n in sizes] and replays == []
    ref = _build(name, "object")
    ref.run(LONG_TRACE)
    assert _state_sig(arr) == _state_sig(ref)


@pytest.mark.parametrize("name", MM_NAMES)
def test_object_engine_replays_a_long_segment_in_equal_pieces(name, monkeypatch):
    monkeypatch.setattr(base, "_PIECE", 1_000)
    obj = _build(name, "object")
    replays = _object_log(monkeypatch, type(obj))
    obj.run(LONG_TRACE)
    assert replays == _equal_pieces(len(LONG_TRACE), 1_000)


def _failure_run(name):
    """The undersized failure cell of *name*, its trace and the index of
    the trace's first failing access."""
    geom = FAILURE_MMS[name]
    trace = np.asarray(
        key_stream(4_000, geom["universe"], geom["universe"] // 8, 50, seed=0),
        dtype=np.int64,
    )

    def build(engine):
        return make_mm(
            name, geom["tlb_entries"], geom["ram_pages"],
            seed=HOTLOOP_CONFIG["fail_mm_seed"], engine=engine,
        )

    stepped = build("object")
    for first_fail, vpn in enumerate(trace.tolist()):
        stepped.access(vpn)
        if stepped.ledger.paging_failures:
            break
    return build, trace, first_fail


@pytest.mark.parametrize("name", sorted(FAILURE_MMS))
def test_paging_failure_in_a_later_piece_hands_the_rest_to_the_object_engine(
    name, monkeypatch, engine_calls
):
    build, trace, first_fail = _failure_run(name)
    size = first_fail // 2
    sizes = _equal_pieces(len(trace), size)
    bounds = np.cumsum(sizes).tolist()
    failing = next(k for k, end in enumerate(bounds) if first_fail < end)
    assert failing >= 2

    monkeypatch.setattr(base, "_PIECE", size)
    arr = build("array")
    cls = type(arr)
    pieces = _handler_log(monkeypatch, cls)
    replays = _object_log(monkeypatch, cls)
    arr.run(trace)
    # every piece is offered; the failing one is served through its
    # failing access, and the object engine replays the rest of it
    assert [n for n, _ in pieces] == sizes
    assert pieces[: failing] == [(n, n) for n in sizes[:failing]]
    start = bounds[failing] - sizes[failing]
    assert pieces[failing][1] == first_fail + 1 - start
    assert replays[0] == bounds[failing] - first_fail - 1
    ref = build("object")
    ref.run(trace)
    assert ref.ledger.paging_failures >= 2
    assert _state_sig(arr) == _state_sig(ref)


@pytest.mark.parametrize("name", sorted(FAILURE_MMS))
def test_pieces_after_a_paging_failure_are_offered_again(
    name, monkeypatch, engine_calls
):
    # while a failed page is resident the handler declines (its accesses
    # charge per access); once the failure set empties it serves again
    build, trace, first_fail = _failure_run(name)
    monkeypatch.setattr(base, "_PIECE", 200)
    sizes = _equal_pieces(len(trace), 200)
    arr = build("array")
    cls = type(arr)
    pieces = _handler_log(monkeypatch, cls)
    replays = _object_log(monkeypatch, cls)
    arr.run(trace)
    assert [n for n, _ in pieces] == sizes
    failing = next(k for k, (n, served) in enumerate(pieces) if served != n)
    assert 0 < failing and pieces[failing][1] is not None
    later = pieces[failing + 1 :]
    assert any(served is None for _, served in later), "no piece declined"
    assert any(served == n for n, served in later), "no piece served again"
    assert sum(replays) == len(trace) - sum(served or 0 for _, served in pieces)
    ref = build("object")
    ref.run(trace)
    assert ref.ledger.paging_failures >= 2
    assert arr.ledger.as_dict() == ref.ledger.as_dict()
    assert _state_sig(arr) == _state_sig(ref)


def test_handler_declining_a_later_piece_keeps_the_served_prefix(
    monkeypatch, engine_calls
):
    # the declined piece runs on the object engine, and the next one is
    # offered to the engine again
    monkeypatch.setattr(base, "_PIECE", 2_500)
    arr = _build("physical-huge", "array")
    cls = type(arr)
    pieces = _handler_log(monkeypatch, cls, decline={1})
    replays = _object_log(monkeypatch, cls)
    arr.run(LONG_TRACE)
    sizes = _equal_pieces(len(LONG_TRACE), 2_500)
    assert pieces == [(sizes[0], sizes[0]), (sizes[1], None), (sizes[2], sizes[2])]
    assert replays == [sizes[1]]
    ref = _build("physical-huge", "object")
    ref.run(LONG_TRACE)
    assert _state_sig(arr) == _state_sig(ref)


def test_attributed_segment_past_the_ceiling_keeps_its_causes(monkeypatch):
    name = "physical-huge"
    trace = np.array(
        key_stream(2 * base._PIECE + 3, 1 << 14, 1 << 9, 90, seed=4), dtype=np.int64
    )
    folds = []
    real_fold = array_engine._paged_fold

    def fold_spy(mm, piece):
        folds.append(len(piece))
        return real_fold(mm, piece)

    monkeypatch.setattr(array_engine, "_paged_fold", fold_spy)
    runs = {}
    for engine in ENGINES:
        mm = _build(name, engine)
        probe = AttributionProbe().observe(mm)
        mm.run(trace)
        runs[engine] = (_state_sig(mm), probe.counts, probe.matrix)
    assert folds == _equal_pieces(len(trace), base._PIECE)
    assert sum(runs["object"][1].values()) > 0
    assert runs["array"] == runs["object"]


#: 32 pieces of 1,024 accesses over 2,048 pages, offset past CPython's
#: cached small ints so that a list of them costs what a long trace would.
PIECE_KEYS = (1 << 16) + np.array(
    key_stream(32 << 10, 1 << 11, 1 << 7, 90, seed=5), dtype=np.int64
)


@pytest.mark.parametrize(("name", "engine"), CELLS, ids=CELL_IDS)
def test_replay_memory_is_bounded_by_the_piece_size(
    name, engine, monkeypatch, engine_calls
):
    # the same 32 pieces in one run() and in eight runs of 4: the state
    # moves through the same pieces, so the one long run may peak above
    # the largest short one only by what it keeps of the whole segment
    monkeypatch.setattr(base, "_PIECE", 1_024)
    warm = (1 << 16) + np.concatenate(
        (np.arange(1 << 11), np.array(key_stream(16 << 10, 1 << 11, 1 << 7, 90, seed=3)))
    )

    def peak(runs) -> int:
        mm = _build(name, engine)
        mm.run(warm)  # every page touched: no table grows with the run
        peaks = []
        tracemalloc.start()
        try:
            for trace in runs:
                tracemalloc.reset_peak()
                mm.run(trace)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return max(peaks)

    # the short runs go first: whatever the process allocates once (a
    # tracer's first sight of a line, say) then counts against them
    short = peak(np.split(PIECE_KEYS, 8))
    whole = peak([PIECE_KEYS])
    assert whole <= short + (16 << 10), f"{whole} B against {short} B"
