"""repro — a reproduction of *Paging and the Address-Translation Problem*
(Bender et al., SPAA 2021).

The package implements the paper's huge-page decoupling framework and every
substrate it stands on:

* :mod:`repro.core` — the address-translation cost model, low-associativity
  RAM allocation (Theorems 1/3), compact TLB encodings, the decoupling
  scheme, and the Simulation Theorem construction ``Z`` (Theorem 4);
* :mod:`repro.paging` — classical replacement policies and the page cache;
* :mod:`repro.ballsbins` — dynamic balls-and-bins games incl. Iceberg[d];
* :mod:`repro.tlb` / :mod:`repro.pagetable` — TLB and radix-page-table
  models;
* :mod:`repro.mmu` — runnable memory-management algorithms (base-page,
  physical-huge-page, decoupled, hybrid);
* :mod:`repro.sim` / :mod:`repro.workloads` / :mod:`repro.bench` — the
  Section 6 trace-driven simulator, the Figure 1 workloads, and the
  benchmark harness;
* :mod:`repro.tenancy` — multi-tenant simulation: ASID-striped address
  spaces sharing one algorithm, tenant schedulers, and churn sweeps;
* :mod:`repro.obs` — observability: probe-based event tracing, interval
  time-series metrics, and wall-clock run profiling (all zero-overhead
  when unused).

Quickstart::

    from repro import BimodalWorkload, DecoupledMM, simulate

    wl = BimodalWorkload.paper_scaled(1 << 16)
    mm = DecoupledMM(tlb_entries=256, ram_pages=wl.ram_pages)
    ledger = simulate(mm, wl.generate(100_000, seed=0), warmup=50_000)
    print(ledger.as_dict())
"""

import logging as _logging

# Library logging convention: ship a NullHandler on the root ``repro``
# logger so importing the package never prints; consumers (and the CLI's
# --log-level flag) attach their own handlers.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .core import (
    ATCostModel,
    CostLedger,
    DecoupledSystem,
    DecouplingScheme,
    FullyAssociativeAllocator,
    GreedyAllocator,
    IcebergAllocator,
    OneChoiceAllocator,
    TLBValueCodec,
    theorem1_parameters,
    theorem3_parameters,
)
from .mmu import BasePageMM, DecoupledMM, HybridMM, PhysicalHugePageMM
from .obs import IntervalMetrics, NullProbe, Probe, Timer, TraceRecorder
from .paging import PageCache, make_policy
from .sim import simulate, sweep_huge_page_sizes
from .tenancy import MultiTenantSim, Tenant
from .tlb import TLB
from .workloads import (
    BimodalWorkload,
    Graph500Workload,
    RandomWalkWorkload,
    SequentialWorkload,
    StridedWorkload,
    UniformWorkload,
    ZipfWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "ATCostModel",
    "CostLedger",
    "DecouplingScheme",
    "DecoupledSystem",
    "TLBValueCodec",
    "FullyAssociativeAllocator",
    "OneChoiceAllocator",
    "GreedyAllocator",
    "IcebergAllocator",
    "theorem1_parameters",
    "theorem3_parameters",
    "BasePageMM",
    "PhysicalHugePageMM",
    "DecoupledMM",
    "HybridMM",
    "PageCache",
    "make_policy",
    "Probe",
    "NullProbe",
    "TraceRecorder",
    "IntervalMetrics",
    "Timer",
    "TLB",
    "simulate",
    "sweep_huge_page_sizes",
    "Tenant",
    "MultiTenantSim",
    "BimodalWorkload",
    "RandomWalkWorkload",
    "Graph500Workload",
    "ZipfWorkload",
    "SequentialWorkload",
    "StridedWorkload",
    "UniformWorkload",
    "__version__",
]
