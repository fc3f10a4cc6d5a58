"""Schedule batching: span replay against the per-turn reference loop.

:meth:`~repro.tenancy.MultiTenantSim.run` buffers turns and runs each
span between two cuts (shootdowns, the warm-up boundary) as one
``mm.run``, relying on the machine's per-ASID crediting for the tenant
ledgers. :func:`reference_run` keeps the loop it replaced: one
``run_asid`` per turn, each turn's ledger snapshot delta credited to the
tenant that ran, shootdowns and counter resets at the same points. Every
registry algorithm × engine × scheduler must come out identical on both
paths — records, shootdown events, switches, clock, global ledger and
deep state — including under warm-ups that land mid-turn, φ remaps,
churn, miss attribution, the invariant oracle, per-access and interval
probes, and paging failures inside a multi-ASID span.

Many spans here are shorter than their class's floor, below which
``run()`` keeps a segment on the object engine; the array cells lift the
floors (the ``engine_calls`` fixture) and assert that the engine served
the spans it can take.
"""

import numpy as np
import pytest

from repro.bench.hotloop import FAILURE_MMS, key_stream
from repro.check import StreamTap
from repro.mmu import array_engine
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm
from repro.obs import AttributionProbe, Probe
from repro.tenancy import (
    MultiTenantResult,
    MultiTenantSim,
    Tenant,
    TenantRecord,
    make_scheduler,
)
from repro.workloads import ZipfWorkload

from ..mmu.test_array_engine import _assert_served_whole
from ..mmu.test_dispatch import _deep_state

SCHEDULERS = ("round-robin", "priority", "jittered")
QUANTUM = 37

#: sim options per case; "churn" staggers the arrivals.
CASES = {
    # 501 is no multiple of the quantum: the warm-up clamp splits a turn
    "warmup-mid-turn": dict(warmup=501, churn=True),
    "remap-attrib": dict(remap_every=2, attrib=True),
    "validated": dict(validate=True, warmup=222, remap_every=3, churn=True),
}

_COUNTERS = (
    "accesses",
    "ios",
    "tlb_misses",
    "tlb_hits",
    "decoding_misses",
    "paging_failures",
)


def reference_run(sim: MultiTenantSim) -> MultiTenantResult:
    """The per-turn loop: ``run_asid`` per turn, snapshot deltas."""
    mm, tenants, scheduler, oracle = sim.mm, sim.tenants, sim.scheduler, sim._oracle
    scheduler.bind(tenants)
    live = set(range(len(tenants)))
    finished_at: dict[int, int] = {}
    turns_of = [0] * len(tenants)
    warmed = sim.warmup == 0
    switches = turns = 0
    last_asid = None
    while live:
        clock = sim._clock
        runnable = sorted(
            a for a in live if tenants[a].arrival <= clock and not tenants[a].done
        )
        if not runnable:
            clock = min(tenants[a].arrival for a in live if tenants[a].arrival > clock)
            sim._clock = clock
            if not warmed and clock >= sim.warmup:
                sim._reset_counters()
                warmed = True
            continue
        asid, q = scheduler.pick(runnable, clock)
        tenant = tenants[asid]
        if not warmed:
            q = min(q, sim.warmup - clock)
        chunk = tenant.take(q)
        if oracle is not None:
            oracle.check_asid_isolation(sim.stride, asid, chunk)
        before = mm.ledger.snapshot()
        mm.run_asid(asid, chunk)
        after = mm.ledger.snapshot()
        for name, b, a in zip(_COUNTERS, before, after):
            setattr(tenant.ledger, name, getattr(tenant.ledger, name) + a - b)
        sim._clock = clock = clock + len(chunk)
        turns += 1
        turns_of[asid] += 1
        if last_asid is not None and asid != last_asid:
            switches += 1
        last_asid = asid
        if not warmed and clock >= sim.warmup:
            sim._reset_counters()
            warmed = True
        if (
            sim.remap_every is not None
            and not tenant.done
            and turns_of[asid] % sim.remap_every == 0
        ):
            sim.shootdown_tenant(asid, reason="phi-change")
            if oracle is not None:
                oracle.check_asid_coverage(sim.stride, live - {asid}, t=clock)
        if tenant.done:
            live.discard(asid)
            finished_at[asid] = clock
            if sim.shootdown_on_exit:
                sim.shootdown_tenant(asid, reason="exit")
                if oracle is not None:
                    oracle.check_asid_coverage(sim.stride, live, t=clock)
    drops_of: list[dict] = [{} for _ in tenants]
    for event in sim._shootdowns:
        drops_of[event.asid][event.reason] = (
            drops_of[event.asid].get(event.reason, 0) + event.dropped
        )
    attrib = sim.attrib
    records = [
        TenantRecord(
            name=t.name,
            asid=asid,
            arrival=t.arrival,
            finished=finished_at[asid],
            turns=turns_of[asid],
            ledger=t.ledger,
            drops=drops_of[asid],
            causes=attrib.tenant_counters(asid) if attrib is not None else {},
        )
        for asid, t in enumerate(tenants)
    ]
    return MultiTenantResult(
        records=records,
        ledger=mm.ledger,
        switches=switches,
        turns=turns,
        clock=sim._clock,
        stride=sim.stride,
        shootdowns=sim._shootdowns,
    )


def _tenants(k=4, churn=False):
    # ragged lengths, so tenants exit at different clocks
    return [
        Tenant(
            f"t{i}",
            workload=ZipfWorkload(256, s=1.0),
            accesses=300 + 41 * i,
            arrival=150 * i if churn else 0,
            priority=i + 1,
            seed=i,
        )
        for i in range(k)
    ]


def _build(name, engine, scheduler, *, churn=False, attrib=False, **kwargs):
    sched = (
        make_scheduler(scheduler, QUANTUM, seed=5)
        if scheduler == "jittered"
        else make_scheduler(scheduler, QUANTUM)
    )
    return MultiTenantSim(
        make_mm(name, 32, 1024, seed=0),
        _tenants(churn=churn),
        sched,
        engine=engine,
        attrib=AttributionProbe() if attrib else None,
        **kwargs,
    )


def _outcome(sim, result):
    mm = getattr(sim.mm, "inner", sim.mm)
    return {
        "records": [
            (
                r.name, r.asid, r.arrival, r.finished, r.turns,
                r.ledger.snapshot(), r.drops, r.causes,
            )
            for r in result.records
        ],
        "shootdowns": [(e.clock, e.asid, e.dropped, e.reason) for e in result.shootdowns],
        "switches": result.switches,
        "turns": result.turns,
        "clock": result.clock,
        "ledger": result.ledger.as_dict(),
        "state": _deep_state(mm),
    }


def _both(build):
    """Run two fresh sims, span replay and reference; their outcomes."""
    sim = build()
    result = sim.run()
    result.verify_counter_sums()
    ref = build()
    return _outcome(sim, result), _outcome(ref, reference_run(ref)), sim, ref


MATRIX = [
    (name, engine, scheduler, case)
    for name in MM_NAMES
    for engine in ENGINES
    for scheduler in SCHEDULERS
    for case in CASES
]


@pytest.mark.parametrize(
    ("name", "engine", "scheduler", "case"),
    MATRIX,
    ids=["-".join(cell) for cell in MATRIX],
)
def test_span_replay_matches_the_per_turn_reference(
    name, engine, scheduler, case, engine_calls
):
    got, want, sim, _ref = _both(
        lambda: _build(name, engine, scheduler, **CASES[case])
    )
    assert got == want
    if sim.remap_every is not None:
        assert any(e[3] == "phi-change" for e in got["shootdowns"])
    # a validated machine replays per access under the oracle, and miss
    # attribution outside the base-page/physical-huge fold declines to the
    # object engine; every other array span is the engine's
    if not (case == "remap-attrib" and name not in ("base-page", "physical-huge")):
        _assert_served_whole(sim.mm, engine_calls)


@pytest.mark.parametrize("engine", ENGINES)
def test_validated_runs_deep_sweep_once_per_turn(engine):
    def build():
        return _build(
            "decoupled", engine, "priority", validate=True, deep_every=0,
            remap_every=2,
        )

    sim = build()
    result = sim.run()
    ref = build()
    reference_run(ref)
    assert sim.mm.oracle.deep_checks == result.turns
    assert ref.mm.oracle.deep_checks == result.turns


class _IntervalCounter(Probe):
    """Batch-safe interval probe recording every flush's size."""

    batch_safe = True
    batch_interval = 50

    def __init__(self) -> None:
        self.sizes = []

    def on_batch(self, t0, vpns, ledger, before) -> None:
        self.sizes.append(ledger.accesses - before[0])


@pytest.mark.parametrize("name", MM_NAMES)
@pytest.mark.parametrize("engine", ENGINES)
def test_probed_machines_credit_every_tenant(name, engine, engine_calls):
    """A per-access tap takes ``_run_probed`` and an interval probe cuts
    every span into segments; both must still credit each tenant exactly
    its own accesses, with the tap's rows unchanged."""

    def tapped():
        sim = _build(name, engine, "round-robin", remap_every=3, churn=True)
        sim.mm.probe = StreamTap()
        return sim

    got, want, sim, ref = _both(tapped)
    assert got == want
    assert sim.mm.probe.as_tuples() == ref.mm.probe.as_tuples()

    def interval():
        sim = _build(name, engine, "priority", warmup=400)
        sim.mm.probe = _IntervalCounter()
        return sim

    got, want, sim, ref = _both(interval)
    assert got == want
    assert sum(sim.mm.probe.sizes) == sum(ref.mm.probe.sizes)
    assert max(sim.mm.probe.sizes) == _IntervalCounter.batch_interval
    _assert_served_whole(sim.mm, engine_calls)


@pytest.mark.parametrize("name", sorted(FAILURE_MMS))
@pytest.mark.usefixtures("engine_calls")
def test_paging_failure_inside_a_multi_asid_span(name, monkeypatch):
    """Four tenants on the undersized FAILURE_MMS machine fail mid-run;
    on the array engine the first failure must bail out in the middle of
    a span that interleaves several ASIDs, crediting the failing access
    and the object-engine remainder to the right tenants."""
    geom = FAILURE_MMS[name]
    universe = geom["universe"]

    def build():
        tenants = [
            Tenant(
                f"t{i}",
                trace=key_stream(1_000, universe, universe // 8, 50, seed=i),
            )
            for i in range(4)
        ]
        # the failure points are a property of allocator hashing: machine
        # seed 0 fails inside the first span for both algorithms
        mm = make_mm(
            name, geom["tlb_entries"], geom["ram_pages"], seed=0, engine="array"
        )
        return MultiTenantSim(mm, tenants, quantum=64)

    calls = []
    real_try_run = array_engine.try_run

    def spy(mm, trace):
        done = real_try_run(mm, trace)
        calls.append((np.asarray(trace) // mm.asid_stride, done))
        return done

    monkeypatch.setattr(array_engine, "try_run", spy)
    sim = build()
    result = sim.run()
    result.verify_counter_sums()
    got = _outcome(sim, result)
    spans = calls[:]
    ref = build()
    want = _outcome(ref, reference_run(ref))
    assert got == want
    assert result.ledger.paging_failures > 0
    assert any(
        done is not None
        and 0 < done < len(asids)
        and len(set(asids[:done].tolist())) > 1
        and len(set(asids[done:].tolist())) > 1
        for asids, done in spans
    ), "no paging failure landed in the middle of a multi-ASID span"
