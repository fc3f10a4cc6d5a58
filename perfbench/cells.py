"""The benchmark's workloads: grids of cells over the simulator's public
entry points.

A cell is one configuration the simulator replays.  Every pass of a cell
builds fresh inputs and a fresh MM (``build``), replays them (``replay``,
the timed part), and reads back the simulated counters (``counters``: the
ledger's, plus the tenancy outcomes for tenancy cells), which must equal
the expected ones: the committed pins at ``DEFAULT_SEED``, and at any
other seed the counters of an untimed twin run on the other engine
(``twin``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.bench import figure1_workload, make_physical_mm
from repro.core import CostLedger
from repro.mmu.registry import MM_NAMES, make_mm
from repro.sim import DEFAULT_HUGE_PAGE_SIZES, simulator
from repro.tenancy import MultiTenantSim, TenancyCellSpec, build_tenants
from repro.workloads import ZipfWorkload

__all__ = ["DEFAULT_SEED", "Cell", "Grid", "GRIDS"]

#: the seed whose counters are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: hash seed of every simulated machine.  The run's seed makes the inputs
#: (traces); the machine stays fixed, because some allocator hash seeds
#: make the decoupled MM hit a paging failure, after which the array
#: engine declines every later segment and the cell runs 2-4x longer.
MACHINE_SEED = 0

@dataclass(frozen=True)
class Cell:
    name: str
    #: simulated accesses replayed per pass, warm-up included.
    accesses: int
    build: Callable[[int], Any]
    replay: Callable[[Any], Any]
    counters: Callable[[Any], dict]
    twin: Callable[[int], dict]


@dataclass(frozen=True)
class Grid:
    name: str
    cells: tuple[Cell, ...]


# ----------------------------------------------------------- fig1a-sweep
#
# `repro fig1` at its defaults: panel a's bimodal trace, 120k accesses
# over 2^18 pages, half warm-up, TLB 512, RAM 65,536, object engine.

FIG1_SCALE = 1 << 18
FIG1_ACCESSES = 120_000
FIG1_WARMUP = FIG1_ACCESSES // 2
FIG1_TLB = 512


def _fig1_build(seed: int):
    workload, ram_pages = figure1_workload("a", FIG1_SCALE, seed=seed)
    return workload.generate(FIG1_ACCESSES, seed=seed), ram_pages


def _fig1_replay(h: int, inputs):
    trace, ram_pages = inputs
    return simulator.sweep_huge_page_sizes(
        trace,
        tlb_entries=FIG1_TLB,
        ram_pages=ram_pages,
        sizes=(h,),
        warmup=FIG1_WARMUP,
    )


def _fig1_counters(records) -> dict:
    # the sweep logs and drops a cell that raised; that is a failed pass
    if len(records) != 1:
        raise RuntimeError(f"sweep returned {len(records)} records, expected 1")
    return records[0].ledger.as_dict()


def _fig1_twin(h: int, seed: int) -> dict:
    trace, ram_pages = _fig1_build(seed)
    mm = make_physical_mm(FIG1_TLB, ram_pages, h)()
    return simulator.simulate(mm, trace, warmup=FIG1_WARMUP, engine="array").as_dict()


def _fig1_grid() -> Grid:
    return Grid("fig1a-sweep", tuple(
        Cell(
            name=f"h={h}",
            accesses=FIG1_ACCESSES,
            build=_fig1_build,
            replay=partial(_fig1_replay, h),
            counters=_fig1_counters,
            twin=partial(_fig1_twin, h),
        )
        for h in DEFAULT_HUGE_PAGE_SIZES
    ))


# ------------------------------------------------------------ zipf-whole
#
# One zipf trace per pass, replayed whole by one run() per registry MM on
# the array engine; the machine and footprint of tenants-q64.

ZIPF_PAGES = 8192
ZIPF_ACCESSES = 200_000
TLB_ENTRIES = 64
RAM_PAGES = 4096


def _zipf_build(name: str, engine: str, seed: int):
    trace = ZipfWorkload(ZIPF_PAGES, s=1.0).generate(ZIPF_ACCESSES, seed=seed)
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=MACHINE_SEED, engine=engine)
    return mm, trace


def _zipf_replay(inputs):
    mm, trace = inputs
    return simulator.simulate(mm, trace)


def _zipf_twin(name: str, seed: int) -> dict:
    return _zipf_replay(_zipf_build(name, "object", seed)).as_dict()


def _zipf_grid() -> Grid:
    return Grid("zipf-whole", tuple(
        Cell(
            name=name,
            accesses=ZIPF_ACCESSES,
            build=partial(_zipf_build, name, "array"),
            replay=_zipf_replay,
            counters=CostLedger.as_dict,
            twin=partial(_zipf_twin, name),
        )
        for name in MM_NAMES
    ))


# ----------------------------------------------------------- tenants-q64
#
# The 8-tenant `repro tenants` cell: zipf tenants of 1,024 pages and
# 2,000 accesses, round-robin quantum 64, churn 0.5, a phi remap every 8
# turns; 256 turns and 32 shootdowns per cell, on both engines.

TENANTS = 8
TENANT_PAGES = 1024
TENANT_ACCESSES = 2000
QUANTUM = 64
CHURN = 0.5
REMAP_EVERY = 8
ENGINES = ("object", "array")


def _tenancy_spec(name: str, engine: str, seed: int) -> TenancyCellSpec:
    return TenancyCellSpec(
        algorithm=name,
        tenants=TENANTS,
        quantum=QUANTUM,
        accesses_per_tenant=TENANT_ACCESSES,
        va_pages_per_tenant=TENANT_PAGES,
        tlb_entries=TLB_ENTRIES,
        ram_pages=RAM_PAGES,
        churn=CHURN,
        remap_every=REMAP_EVERY,
        seed=seed,
        engine=engine,
    )


def _tenancy_build(name: str, engine: str, seed: int) -> MultiTenantSim:
    spec = _tenancy_spec(name, engine, seed)
    mm = make_mm(
        spec.algorithm, spec.tlb_entries, spec.ram_pages, seed=MACHINE_SEED
    )
    tenants = build_tenants(spec)
    for tenant in tenants:
        tenant.trace  # generate now: trace generation is set-up time
    return MultiTenantSim(
        mm,
        tenants,
        spec.scheduler,
        quantum=spec.quantum,
        warmup=spec.warmup,
        remap_every=spec.remap_every,
        engine=spec.engine,
    )


def _tenancy_replay(sim: MultiTenantSim):
    return sim.run()


def _tenancy_counters(result) -> dict:
    result.verify_counter_sums()
    drops = result.shootdown_drops_by_reason
    return {
        **result.ledger.as_dict(),
        "turns": result.turns,
        "switches": result.switches,
        "shootdowns": len(result.shootdowns),
        "drops_exit": drops.get("exit", 0),
        "drops_remap": drops.get("phi-change", 0),
    }


def _tenancy_twin(name: str, engine: str, seed: int) -> dict:
    other = ENGINES[1 - ENGINES.index(engine)]
    return _tenancy_counters(_tenancy_replay(_tenancy_build(name, other, seed)))


def _tenancy_grid() -> Grid:
    return Grid("tenants-q64", tuple(
        Cell(
            name=f"{name}@{engine}",
            accesses=TENANTS * TENANT_ACCESSES,
            build=partial(_tenancy_build, name, engine),
            replay=_tenancy_replay,
            counters=_tenancy_counters,
            twin=partial(_tenancy_twin, name, engine),
        )
        for name in MM_NAMES
        for engine in ENGINES
    ))


#: workload name -> grid, in report order.
GRIDS: dict[str, Grid] = {
    grid.name: grid for grid in (_fig1_grid(), _zipf_grid(), _tenancy_grid())
}
