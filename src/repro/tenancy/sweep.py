"""Tenancy sweeps: algorithms × tenant counts × schedulers, in parallel.

Each cell is one :class:`~.sim.MultiTenantSim` run — a churn of tenants
with staggered arrivals multiplexed over one shared registry algorithm —
and is fully described by a picklable :class:`TenancyCellSpec`, so
``jobs=4`` produces rows (and merged snapshots) bit-identical to
``jobs=1`` via :func:`repro.sim.parallel.run_callables`.

The headline measurement is the paper's compressed-TLB-value story under
multi-tenancy: decoupling's ``h_max``-page TLB entries keep their coverage
while tenants churn and shootdowns flush slices, whereas physical huge
pages pay amplification per re-fault — compare the ``cost`` column across
``algorithm`` at fixed ``tenants``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

from ..core import ATCostModel
from ..mmu.registry import make_mm
from ..obs.attribution import AttributionProbe
from ..obs.snapshot import ObsSnapshot
from ..sim.parallel import run_callables, spawn_seeds
from ..workloads import UniformWorkload, ZipfWorkload
from .scheduler import Scheduler, make_scheduler
from .sim import MultiTenantSim, MultiTenantResult
from .tenant import Tenant

__all__ = [
    "TenancyCellSpec",
    "build_tenants",
    "run_tenancy_cell",
    "run_tenancy_grid",
]

_WORKLOADS = ("zipf", "uniform")


@dataclass(frozen=True)
class TenancyCellSpec:
    """One tenancy-sweep cell, picklable and self-contained."""

    algorithm: str
    tenants: int = 4
    scheduler: str = "round-robin"
    quantum: int = 64
    accesses_per_tenant: int = 2000
    va_pages_per_tenant: int = 1024
    tlb_entries: int = 64
    ram_pages: int = 4096
    warmup: int = 0
    workload: str = "zipf"
    #: fraction of the run over which arrivals are staggered (0 = all at
    #: t=0; 0.5 = arrivals spread over the first half) — tenant churn.
    churn: float = 0.0
    #: φ-remap cadence: shoot down a tenant's slice (reason "phi-change")
    #: every this-many of its own turns; None = never remap.
    remap_every: int | None = None
    seed: int = 0
    validate: bool = False
    engine: str | None = None
    #: run under an :class:`~repro.obs.AttributionProbe`: the row gains
    #: per-cause miss counters and the snapshot carries the ``attrib:*`` /
    #: ``interf:*`` interference matrix.
    attrib: bool = False

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"unknown sweep workload {self.workload!r}; "
                f"choose one of {_WORKLOADS}"
            )
        if not (0.0 <= self.churn < 1.0):
            raise ValueError(f"churn must be in [0, 1), got {self.churn}")
        if self.remap_every is not None and self.remap_every < 1:
            raise ValueError(
                f"remap_every must be >= 1, got {self.remap_every}"
            )


def build_tenants(spec: TenancyCellSpec) -> list[Tenant]:
    """The cell's tenant mix — deterministic in ``spec.seed`` alone."""
    seeds = spawn_seeds(spec.seed, spec.tenants)
    total = spec.tenants * spec.accesses_per_tenant
    tenants = []
    for i in range(spec.tenants):
        if spec.workload == "zipf":
            wl = ZipfWorkload(spec.va_pages_per_tenant, s=1.0)
        else:
            wl = UniformWorkload(spec.va_pages_per_tenant)
        # arrivals staggered evenly over the churn window, so at any
        # instant only part of the population competes for the TLB
        arrival = int(spec.churn * total * i / spec.tenants)
        tenants.append(
            Tenant(
                f"t{i}",
                workload=wl,
                accesses=spec.accesses_per_tenant,
                arrival=arrival,
                seed=seeds[i],
            )
        )
    return tenants


def _build_scheduler(spec: TenancyCellSpec) -> Scheduler:
    """The cell's scheduler. A jittered one draws its quanta from the
    spec's seed tree (the child after the tenants' streams), so the cell
    stays deterministic in ``spec.seed`` alone."""
    if spec.scheduler == "jittered":
        seed = spawn_seeds(spec.seed, spec.tenants + 1)[-1]
        return make_scheduler(spec.scheduler, spec.quantum, seed=seed)
    return make_scheduler(spec.scheduler, spec.quantum)


def run_tenancy_cell(
    spec: TenancyCellSpec, *, epsilon: float = 0.01
) -> tuple[dict, ObsSnapshot]:
    """Run one cell; return its summary row and mergeable snapshot.

    The row carries the spec's coordinates plus the machine-wide counters,
    the AT cost at *epsilon*, and the tenancy-specific outcomes (switches,
    shootdowns, entries dropped). The snapshot is the merge of the
    per-tenant snapshots — merging rows across cells (or across jobs)
    stays bit-identical because every summand is exact counters.
    """
    mm = make_mm(
        spec.algorithm, spec.tlb_entries, spec.ram_pages, seed=spec.seed
    )
    probe = AttributionProbe() if spec.attrib else None
    sim = MultiTenantSim(
        mm,
        build_tenants(spec),
        _build_scheduler(spec),
        warmup=spec.warmup,
        remap_every=spec.remap_every,
        validate=spec.validate,
        engine=spec.engine,
        attrib=probe,
    )
    result: MultiTenantResult = sim.run()
    result.verify_counter_sums()
    ledger = result.ledger
    cost = ATCostModel(epsilon=epsilon)
    drops = result.shootdown_drops_by_reason
    row = {
        **{
            k: v
            for k, v in asdict(spec).items()
            if k not in ("validate", "engine", "attrib")
        },
        "stride": result.stride,
        "accesses": ledger.accesses,
        "ios": ledger.ios,
        "tlb_misses": ledger.tlb_misses,
        "decoding_misses": ledger.decoding_misses,
        "cost": cost.cost(ledger),
        "cost_per_access": (
            cost.cost(ledger) / ledger.accesses if ledger.accesses else 0.0
        ),
        "switches": result.switches,
        "turns": result.turns,
        "shootdowns": len(result.shootdowns),
        "shootdown_drops": result.shootdown_drops,
        "drops_exit": drops.get("exit", 0),
        "drops_remap": drops.get("phi-change", 0),
    }
    if probe is not None:
        for cause, n in sorted(probe.cause_totals("tlb").items()):
            row[f"tlb_{cause}"] = n
    return row, result.aggregate_snapshot()


def run_tenancy_grid(
    specs: Sequence[TenancyCellSpec],
    *,
    jobs: int | None = 1,
    epsilon: float = 0.01,
) -> tuple[list[dict], ObsSnapshot]:
    """Run every cell (sharded over *jobs* workers); rows in spec order,
    plus one merged snapshot over all cells — identical for any *jobs*."""
    results = run_callables(
        [partial(run_tenancy_cell, spec, epsilon=epsilon) for spec in specs],
        jobs=jobs,
    )
    rows = [row for row, _snap in results]
    merged = ObsSnapshot.merge_all(snap for _row, snap in results)
    return rows, merged
