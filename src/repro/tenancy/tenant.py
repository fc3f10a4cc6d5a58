"""A tenant: one address space with its own workload and cost slice.

Each tenant owns a private virtual address space (its workload's
``va_pages``), a deterministic request stream, and a
:class:`~repro.core.model.CostLedger` that accumulates exactly its share
of the shared machine's costs. The ASID and the slice of the global page
space the tenant occupies are assigned by
:class:`~repro.tenancy.sim.MultiTenantSim`; the tenant itself only speaks
tenant-local page numbers.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._util import check_positive_int
from ..core import CostLedger
from ..workloads import Workload

__all__ = ["Tenant"]


class Tenant:
    """One tenant process: a request stream plus per-tenant accounting.

    Parameters
    ----------
    name:
        Label used in records and snapshots.
    workload:
        The tenant's private :class:`~repro.workloads.Workload`; its trace
        is generated lazily (and deterministically from *seed*) on first
        use. Mutually exclusive with *trace*.
    trace:
        Explicit tenant-local trace (any int sequence); page numbers must
        be non-negative. Mutually exclusive with *workload*.
    accesses:
        Total requests the tenant issues before exiting. Required with
        *workload*; defaults to ``len(trace)`` with *trace* (and must not
        exceed it).
    arrival:
        Global clock (accesses issued machine-wide) at which the tenant
        becomes runnable — staggered arrivals model churn.
    priority:
        Weight for priority schedulers (higher = more CPU share).
    seed:
        Workload generation seed.
    """

    def __init__(
        self,
        name: str,
        *,
        workload: Workload | None = None,
        trace: Any = None,
        accesses: int | None = None,
        arrival: int = 0,
        priority: int = 1,
        seed=None,
    ) -> None:
        if (workload is None) == (trace is None):
            raise ValueError("provide exactly one of workload= or trace=")
        self.name = str(name)
        self.workload = workload
        if arrival < 0:
            raise ValueError(f"arrival must be non-negative, got {arrival}")
        self.arrival = int(arrival)
        self.priority = check_positive_int(priority, "priority")
        self.seed = seed
        if trace is not None:
            trace = np.asarray(trace, dtype=np.int64)
            if trace.ndim != 1:
                raise ValueError("trace must be one-dimensional")
            if len(trace) == 0:
                raise ValueError("trace must be non-empty")
            if int(trace.min()) < 0:
                raise ValueError("trace page numbers must be non-negative")
            if accesses is None:
                accesses = len(trace)
            elif accesses > len(trace):
                raise ValueError(
                    f"accesses {accesses} exceeds trace length {len(trace)}"
                )
        elif accesses is None:
            raise ValueError("accesses= is required with workload=")
        self.accesses = check_positive_int(accesses, "accesses")
        self._trace: np.ndarray | None = trace
        self._pos = 0
        #: this tenant's slice of the shared machine's costs: while the
        #: multi-tenant simulator runs, the machine credits every access of
        #: this tenant's ASID here (see ``asid_ledgers`` in
        #: :class:`~repro.mmu.base.MemoryManagementAlgorithm`).
        self.ledger = CostLedger()

    # ---------------------------------------------------------------- stream

    @property
    def va_pages(self) -> int:
        """Tenant-local address-space size in base pages."""
        if self.workload is not None:
            return self.workload.va_pages
        return int(self._trace.max()) + 1

    @property
    def trace(self) -> np.ndarray:
        """The tenant's full (tenant-local) request stream."""
        if self._trace is None:
            self._trace = self.workload.generate(self.accesses, seed=self.seed)
        return self._trace

    @property
    def issued(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self.accesses - self._pos

    @property
    def done(self) -> bool:
        return self._pos >= self.accesses

    def take(self, n: int) -> np.ndarray:
        """The next ``min(n, remaining)`` tenant-local requests."""
        check_positive_int(n, "n")
        n = min(n, self.remaining)
        chunk = self.trace[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def reset(self) -> None:
        """Rewind the stream and zero the ledger (fresh run)."""
        self._pos = 0
        self.ledger.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src = self.workload.name if self.workload is not None else "trace"
        return (
            f"<Tenant {self.name!r} {src} accesses={self.accesses} "
            f"issued={self._pos} arrival={self.arrival}>"
        )
