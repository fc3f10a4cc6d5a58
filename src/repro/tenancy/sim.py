"""Multi-tenant simulation: ASID-striped tenants sharing one machine.

:class:`MultiTenantSim` context-switches a set of :class:`~.tenant.Tenant`
streams over **one** shared memory-management algorithm, using the ASID
contract of :class:`~repro.mmu.base.MemoryManagementAlgorithm`: tenant
``i`` becomes ASID ``i`` and its pages live in slice
``[i·stride, (i+1)·stride)`` of the global space — so the shared TLB,
RAM, and (for decoupled schemes) the allocator genuinely multiplex the
tenants, exactly as a tagged TLB multiplexes address spaces in hardware.
A tenant that finishes exits with a TLB shootdown of its slice — the
flush events the paper's context-switch discussion prices.

Shootdowns are free in the cost model, so between two of them the
machine just serves one ASID-striped stream, and the schedulers read no
machine state: :meth:`MultiTenantSim.run` buffers turns and runs each
such span as **one** ``mm.run`` of their concatenation.

Cost attribution is per access: while the sim runs, the tenants' ledgers
are the machine's ``asid_ledgers``, and ``run`` credits every access's
counters to ASID ``key // stride`` (a bincount over the array engine's
hit and miss masks, or a ledger delta per same-ASID stretch on the object
paths). Per-tenant ledgers therefore sum **exactly** to the machine's
global ledger (``MultiTenantResult.verify_counter_sums``) and equal the
sum of each tenant's per-turn deltas.

Single-tenant parity: one tenant with ``arrival=0`` replays bit-identically
(ledger and cache state) to ``simulate(mm, trace, warmup=...)`` — ASID 0
is the identity mapping and segmented ``run`` calls are contractually
identical to one unsegmented call, so the multi-tenant driver is a strict
generalization of the single-stream one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import CostLedger
from ..mmu import MemoryManagementAlgorithm
from ..obs.attribution import REASON_REMAP, REASON_SHOOTDOWN, AttributionProbe
from ..obs.snapshot import ObsSnapshot
from .scheduler import Scheduler, make_scheduler
from .tenant import Tenant

__all__ = ["MultiTenantSim", "MultiTenantResult", "TenantRecord", "ShootdownEvent"]

#: counter names in ``CostLedger.snapshot()`` order — the attribution unit.
_COUNTERS = (
    "accesses",
    "ios",
    "tlb_misses",
    "tlb_hits",
    "decoding_misses",
    "paging_failures",
)


@dataclass(slots=True)
class ShootdownEvent:
    """One TLB shootdown: when, whose slice, how many entries dropped."""

    clock: int
    asid: int
    dropped: int
    reason: str = "exit"


@dataclass(slots=True)
class TenantRecord:
    """Final accounting for one tenant."""

    name: str
    asid: int
    arrival: int
    finished: int  #: global clock when the last access was issued
    turns: int
    ledger: CostLedger
    #: TLB entries this tenant's shootdowns dropped, keyed by reason
    #: (``"exit"`` / ``"phi-change"``).
    drops: dict = field(default_factory=dict)
    #: this tenant's miss-cause / interference counters (sufferer = this
    #: ASID), as flat ``attrib:*`` / ``interf:*`` keys — filled when the
    #: sim ran with an :class:`~repro.obs.AttributionProbe`.
    causes: dict = field(default_factory=dict)

    def snapshot(self) -> ObsSnapshot:
        snap = ObsSnapshot.from_run(self.ledger, label=self.name)
        for reason in sorted(self.drops):
            snap.counters[f"shootdown_drops:{reason}"] = self.drops[reason]
        for key in sorted(self.causes):
            snap.counters[key] = self.causes[key]
        return snap


@dataclass(slots=True)
class MultiTenantResult:
    """Outcome of one multi-tenant run."""

    records: list[TenantRecord]
    ledger: CostLedger  #: the shared machine's (measurement-phase) ledger
    switches: int
    turns: int
    clock: int
    stride: int
    shootdowns: list[ShootdownEvent] = field(default_factory=list)

    @property
    def shootdown_drops(self) -> int:
        """Total TLB entries dropped by shootdowns."""
        return sum(e.dropped for e in self.shootdowns)

    @property
    def shootdown_drops_by_reason(self) -> dict[str, int]:
        """Entries dropped per shootdown reason (``exit`` / ``phi-change``)."""
        out: dict[str, int] = {}
        for e in self.shootdowns:
            out[e.reason] = out.get(e.reason, 0) + e.dropped
        return out

    def tenant_snapshots(self) -> list[ObsSnapshot]:
        return [r.snapshot() for r in self.records]

    def aggregate_snapshot(self) -> ObsSnapshot:
        """Merge of the per-tenant snapshots — counters equal the global
        ledger's by construction (see :meth:`verify_counter_sums`)."""
        return ObsSnapshot.merge_all(self.tenant_snapshots())

    def verify_counter_sums(self) -> None:
        """Assert Σ per-tenant counters == global counters, field by field."""
        sums = [0] * len(_COUNTERS)
        for record in self.records:
            for i, v in enumerate(record.ledger.snapshot()):
                sums[i] += v
        got = list(self.ledger.snapshot())
        assert sums == got, (
            "per-tenant ledgers do not sum to the global ledger: "
            + ", ".join(
                f"{name} {s} != {g}"
                for name, s, g in zip(_COUNTERS, sums, got)
                if s != g
            )
        )


class MultiTenantSim:
    """Drive tenant streams through one shared algorithm under a scheduler.

    Parameters
    ----------
    mm:
        The shared algorithm. Its ASID space is bound here (stride = the
        widest tenant's ``va_pages``, rounded up to a power of two and to
        the algorithm's translation alignment).
    tenants:
        The tenant processes; list order assigns ASIDs ``0, 1, …``
        (ASIDs are never reused).
    scheduler:
        A :class:`~.scheduler.Scheduler` instance or registry name
        (``"round-robin"``, ``"jittered"``, ``"priority"``).
    quantum:
        Quantum for a registry-name scheduler (ignored when an instance
        is passed).
    warmup:
        Global accesses before counters reset — the same warm-up/measure
        split as :func:`repro.sim.simulate`, applied machine-wide (cache
        state persists, global and per-tenant counters restart).
    shootdown_on_exit:
        Shoot down a tenant's slice when it issues its last access
        (default). Disabling leaves the dead tenant's entries to age out,
        modelling ASID-generation reuse without flush.
    remap_every:
        Remap a tenant's φ every this-many of **its own** turns (None =
        never): the OS relocates the tenant's pages (compaction,
        migration), so every translation cached for its slice goes stale
        and the slice is shot down with reason ``"phi-change"``. Like all
        shootdowns here the flush itself is ledger-free — its price is the
        TLB refill misses the tenant pays on its next turns, credited to
        that tenant by the usual per-access accounting.
    validate:
        Run under the :mod:`repro.check` invariant oracle: every access
        audited, plus per-turn ASID-isolation and per-shootdown
        ASID-coverage checks. Every turn then runs on its own, so the
        oracle's end-of-``run`` deep sweep still fires once per turn.
        Costs are unchanged.
    deep_every:
        Oracle deep-sweep cadence (with ``validate=True``).
    engine:
        Simulation engine override (``"object"`` / ``"array"``; ``None``
        keeps ``mm.engine``, the array engine by default). Engines are
        bit-identical, so either may serve a multi-tenant run: the array
        engine takes each span as one segment, and spans shorter than the
        class's floor, or of algorithms without a batch handler, replay on
        the object engine per ``run``'s own contract.
    attrib:
        An :class:`~repro.obs.AttributionProbe` to observe the shared
        machine (``None`` = no attribution). The sim binds the probe to
        its ASID stride, points ``shootdown_reason`` at the right code
        around each shootdown (``"phi-change"`` → remap, otherwise
        shootdown), resets it at the warm-up boundary alongside the
        ledgers, and copies each tenant's cause/interference counters onto
        its :class:`TenantRecord` at the end of the run.
    """

    def __init__(
        self,
        mm: MemoryManagementAlgorithm,
        tenants: Sequence[Tenant],
        scheduler: Scheduler | str = "round-robin",
        *,
        quantum: int = 64,
        warmup: int = 0,
        shootdown_on_exit: bool = True,
        remap_every: int | None = None,
        validate: bool = False,
        deep_every: int | None = None,
        engine: str | None = None,
        attrib: AttributionProbe | None = None,
    ) -> None:
        tenants = list(tenants)
        if not tenants:
            raise ValueError("need at least one tenant")
        total = sum(t.accesses for t in tenants)
        if warmup < 0 or warmup > total:
            raise ValueError(f"warmup {warmup} outside [0, {total}]")
        if remap_every is not None and remap_every < 1:
            raise ValueError(f"remap_every must be >= 1, got {remap_every}")
        if engine is not None:
            mm.engine = engine
        if validate:
            # local import: check sits above mmu/obs in the layering
            from ..check import ValidatingMM

            if not isinstance(mm, ValidatingMM):
                mm = ValidatingMM(mm, deep_every=deep_every)
        self.mm = mm
        self.tenants = tenants
        self.scheduler = (
            scheduler
            if isinstance(scheduler, Scheduler)
            else make_scheduler(scheduler, quantum)
        )
        self.warmup = warmup
        self.shootdown_on_exit = shootdown_on_exit
        self.remap_every = remap_every
        self.validate = validate
        self.stride = mm.bind_asid_space(max(t.va_pages for t in tenants))
        self.attrib = attrib
        if attrib is not None:
            attrib.observe(mm, stride=self.stride)
        self._oracle = mm.oracle if validate else None
        self._clock = 0
        self._shootdowns: list[ShootdownEvent] = []
        self._ran = False

    # ------------------------------------------------------------------ run

    def shootdown_tenant(self, asid: int, reason: str = "phi-change") -> int:
        """Shoot down *asid*'s slice now (e.g. after a φ remap); returns the
        entries dropped and records the event. Free in the cost model —
        like every shootdown here, it touches the TLB, never the ledger."""
        attrib = self.attrib
        if attrib is not None:
            # φ-change flushes classify as "remap", everything else (exit,
            # explicit calls) as "shootdown"
            attrib.shootdown_reason = (
                REASON_REMAP if reason == "phi-change" else REASON_SHOOTDOWN
            )
        try:
            dropped = self.mm.shootdown_asid(asid)
        finally:
            if attrib is not None:
                attrib.shootdown_reason = REASON_SHOOTDOWN
        self._shootdowns.append(
            ShootdownEvent(self._clock, asid, dropped, reason=reason)
        )
        return dropped

    def run(self) -> MultiTenantResult:
        """Drive every tenant to completion; one result, fully attributed.

        Turns are buffered and run as one ``mm.run`` of their ASID-striped
        concatenation just before each counter reset and each shootdown
        (under validation, after every turn), with the tenants' ledgers
        bound as the machine's per-ASID credit ledgers.
        """
        if self._ran:
            raise RuntimeError(
                "MultiTenantSim.run() already consumed its tenant streams; "
                "build a fresh sim (and fresh tenants) to rerun"
            )
        self._ran = True
        mm, tenants, scheduler = self.mm, self.tenants, self.scheduler
        scheduler.bind(tenants)
        live = set(range(len(tenants)))  # arrived-or-not, not yet exited
        finished_at: dict[int, int] = {}
        turns_of = [0] * len(tenants)
        warmed = self.warmup == 0
        switches = 0
        turns = 0
        last_asid: int | None = None
        pending: list[np.ndarray] = []  # ASID-striped turns not yet run
        mm.asid_ledgers = [t.ledger for t in tenants]
        try:
            while live:
                clock = self._clock
                runnable = sorted(
                    a for a in live if tenants[a].arrival <= clock and not tenants[a].done
                )
                if not runnable:
                    # idle gap: jump to the next arrival (no accesses issued)
                    clock = min(
                        tenants[a].arrival for a in live if tenants[a].arrival > clock
                    )
                    self._clock = clock
                    if not warmed and clock >= self.warmup:
                        self._flush(pending)
                        warmed = self._reset_counters()
                    continue
                asid, q = scheduler.pick(runnable, clock)
                if asid not in runnable:
                    raise RuntimeError(
                        f"{scheduler.name} picked asid {asid} outside the "
                        f"runnable set {runnable}"
                    )
                tenant = tenants[asid]
                if not warmed:
                    q = min(q, self.warmup - clock)  # land exactly on the boundary
                chunk = tenant.take(q)
                pending.append(chunk + asid * self.stride)
                if self._oracle is not None:
                    self._oracle.check_asid_isolation(self.stride, asid, chunk)
                    # the oracle deep-sweeps at the end of every run call:
                    # keep that sweep once per turn
                    self._flush(pending)
                self._clock = clock = clock + len(chunk)
                turns += 1
                turns_of[asid] += 1
                if last_asid is not None and asid != last_asid:
                    switches += 1
                last_asid = asid
                if not warmed and clock >= self.warmup:
                    self._flush(pending)
                    warmed = self._reset_counters()
                if (
                    self.remap_every is not None
                    and not tenant.done
                    and turns_of[asid] % self.remap_every == 0
                ):
                    # the OS relocated this tenant's pages (φ remap —
                    # compaction/migration), so every translation cached for
                    # its slice is stale: shoot the slice down. ψ-side state
                    # survives, so refills decode the post-remap frames; the
                    # remap's price is exactly those refill misses.
                    self._flush(pending)
                    self.shootdown_tenant(asid, reason="phi-change")
                    if self._oracle is not None:
                        # the remap guarantee: nothing of the remapped slice
                        # survives the flush (exited slices keep their
                        # entries when exits do not shoot down)
                        allowed = live if self.shootdown_on_exit else range(len(tenants))
                        self._oracle.check_asid_coverage(
                            self.stride, set(allowed) - {asid}, t=clock
                        )
                if tenant.done:
                    live.discard(asid)
                    finished_at[asid] = clock
                    if self.shootdown_on_exit:
                        self._flush(pending)
                        self.shootdown_tenant(asid, reason="exit")
                        if self._oracle is not None:
                            # the exit guarantee: nothing of the dead slice
                            # survives, and no unit straddles a slice boundary
                            self._oracle.check_asid_coverage(
                                self.stride, live, t=clock
                            )
            self._flush(pending)
        finally:
            mm.asid_ledgers = None

        drops_of: list[dict] = [{} for _ in tenants]
        for event in self._shootdowns:
            d = drops_of[event.asid]
            d[event.reason] = d.get(event.reason, 0) + event.dropped
        attrib = self.attrib
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
            clock=self._clock,
            stride=self.stride,
            shootdowns=self._shootdowns,
        )

    def _flush(self, pending: list[np.ndarray]) -> None:
        """Run the buffered turns as one ``mm.run`` of their concatenation
        (shootdowns are free, so between two of them the machine serves
        one ASID-striped stream)."""
        if pending:
            self.mm.run(pending[0] if len(pending) == 1 else np.concatenate(pending))
            pending.clear()

    def _reset_counters(self) -> bool:
        """The warm-up/measure boundary: machine-wide and per-tenant counter
        reset, cache state untouched — :func:`repro.sim.simulate` parity."""
        self.mm.reset_stats()
        for t in self.tenants:
            t.ledger.reset()
        if self.attrib is not None:
            # same boundary semantics: counters restart, ghost tags (cache
            # state) persist
            self.attrib.reset()
        return True
