"""Trace-driven simulation driver (paper Section 6).

``simulate`` replays a trace through any memory-management algorithm with
the paper's warm-up/measure split: the cache state persists across the
boundary but the counters restart, so the reported IOs and TLB misses are
steady-state, exactly as in the Figure 1 experiments. A
:class:`~repro.obs.events.Probe` and/or an
:class:`~repro.obs.metrics.IntervalMetrics` collector can ride along —
the replay is bit-identical with or without them.

``sweep_huge_page_sizes`` is the Figure 1 engine: one
:class:`~repro.mmu.hugepage.PhysicalHugePageMM` run per huge-page size
``h ∈ {1, 2, 4, …}``, returning the (IOs, TLB misses) series the paper
plots, each record stamped with its wall-clock timing
(``params["elapsed_s"]`` / ``params["accesses_per_s"]``). With
``jobs != 1`` the sizes run concurrently through
:mod:`repro.sim.parallel`; the records are identical to the serial run.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..core import CostLedger
from ..mmu import MemoryManagementAlgorithm, PhysicalHugePageMM
from ..obs import NULL_PROBE, IntervalMetrics, MultiProbe, Probe
from ..paging import LRUPolicy, ReplacementPolicy
from .parallel import SimTask, run_records
from .stats import RunRecord

__all__ = ["simulate", "sweep_huge_page_sizes", "DEFAULT_HUGE_PAGE_SIZES"]

_log = logging.getLogger(__name__)

#: The paper's sweep: h ∈ {1, 2, 4, …, 1024}.
DEFAULT_HUGE_PAGE_SIZES: tuple[int, ...] = tuple(2**k for k in range(11))


def simulate(
    mm: MemoryManagementAlgorithm,
    trace,
    *,
    warmup: int = 0,
    probe: Probe | None = None,
    metrics: IntervalMetrics | None = None,
    validate: bool = False,
    deep_every: int | None = None,
    engine: str | None = None,
) -> CostLedger:
    """Replay *trace* through *mm*; counters reset after *warmup* accesses.

    *engine* overrides the algorithm's simulation engine for this call and
    beyond (``"object"`` or ``"array"``; ``None`` keeps ``mm.engine``, the
    array engine unless the MM was built otherwise). The array engine
    batch-replays supported algorithms and falls back to the object
    replay otherwise — costs and cache state are identical, so
    probes, metrics, and validation compose with either engine (per-access
    probes and the invariant oracle force the object path by design).

    With *probe* given, the warm-up and measurement phases are announced
    via ``on_phase`` (absolute trace indices) and every serviced request
    emits typed events. With *metrics* given, the collector is bound to the
    measurement-phase ledger, fed every measured access, and finalized (the
    partial tail window is closed). Neither changes the simulated costs.

    With ``validate=True`` the whole replay (warm-up included) runs under
    the :mod:`repro.check` invariant oracle — every access is audited and
    the first broken invariant raises
    :class:`~repro.check.InvariantViolation`. Costs are unchanged (the
    wrapper shares the algorithm's ledger); *deep_every* tunes the full
    structural sweep cadence.

    Returns the measurement-phase ledger (which is ``mm.ledger``).
    """
    trace = np.asarray(trace)
    if warmup < 0 or warmup > len(trace):
        raise ValueError(f"warmup {warmup} outside [0, {len(trace)}]")
    if engine is not None:
        mm.engine = engine
    if validate:
        # local import: check sits above sim in the layering (it imports
        # mmu and obs); importing it lazily keeps the module graph acyclic
        from ..check import ValidatingMM

        if not isinstance(mm, ValidatingMM):
            mm = ValidatingMM(mm, deep_every=deep_every)
    observed = probe is not None or metrics is not None
    try:
        if warmup:
            if probe is not None:
                probe.on_phase(0, "warmup")
                mm.probe = probe
            mm.run(trace[:warmup])
            mm.reset_stats()
        if observed:
            if probe is not None:
                probe.on_phase(warmup, "measure")
            if metrics is not None:
                metrics.bind(mm.ledger)
            attached = [p for p in (probe, metrics) if p is not None]
            mm.probe = attached[0] if len(attached) == 1 else MultiProbe(attached)
        ledger = mm.run(trace[warmup:])
    finally:
        if observed:
            mm.probe = NULL_PROBE
    if metrics is not None:
        metrics.finalize()
    return ledger


def _build_hugepage_mm(
    tlb_entries: int,
    ram_pages: int,
    huge_page_size: int,
    tlb_policy_factory: Callable[[], ReplacementPolicy],
    ram_policy_factory: Callable[[], ReplacementPolicy],
) -> PhysicalHugePageMM:
    """Module-level (hence picklable) factory for one sweep cell."""
    return PhysicalHugePageMM(
        tlb_entries,
        ram_pages,
        huge_page_size=huge_page_size,
        tlb_policy=tlb_policy_factory(),
        ram_policy=ram_policy_factory(),
    )


def sweep_huge_page_sizes(
    trace,
    *,
    tlb_entries: int,
    ram_pages: int,
    sizes: Sequence[int] = DEFAULT_HUGE_PAGE_SIZES,
    warmup: int = 0,
    tlb_policy_factory: Callable[[], ReplacementPolicy] = LRUPolicy,
    ram_policy_factory: Callable[[], ReplacementPolicy] = LRUPolicy,
    probe: Probe | None = None,
    metrics_every: int | None = None,
    epsilon: float = 0.01,
    snapshot=None,
    heartbeat=None,
    jobs: int | None = 1,
    validate: bool = False,
    deep_every: int | None = None,
) -> list[RunRecord]:
    """Run the Section 6 experiment: one physical-huge-page simulation per
    huge-page size, all on the same trace.

    Each cell's MM keeps the default engine, the array engine. Returns one
    :class:`~repro.sim.stats.RunRecord` per size with
    ``params={"h": size, "elapsed_s": ..., "accesses_per_s": ...}`` — the
    two Figure 1 series are ``[r.ios for r in records]`` and
    ``[r.tlb_misses for r in records]``.

    With *metrics_every* set, each run gets a fresh
    :class:`~repro.obs.metrics.IntervalMetrics` (window = *metrics_every*
    accesses, cost priced at *epsilon*) attached as ``record.metrics``.
    *probe*, if given, observes every run in sequence (phase events mark
    the boundaries).

    *jobs* shards the sizes across worker processes (``None``/``0`` = all
    CPUs) via :func:`repro.sim.parallel.run_tasks`; the records are
    identical to the serial run. A shared *probe* is serial-only, so
    requesting an enabled one forces ``jobs=1``; *metrics_every* and
    *snapshot* (a picklable per-task probe factory — each record then
    carries a mergeable :class:`~repro.obs.snapshot.ObsSnapshot`) compose
    with any ``jobs``. A cell that raises or crashes its worker is retried
    once and then dropped with an error log, like an infeasible size.
    *heartbeat* (a picklable :class:`~repro.obs.live.HeartbeatConfig`)
    streams live progress records from wherever each cell runs to the
    configured spool — see ``repro top``.

    ``validate=True`` runs every cell under the :mod:`repro.check`
    invariant oracle (identical costs; an invariant violation fails the
    cell) — validation is picklable state, so it composes with ``jobs``.
    """
    trace = np.asarray(trace)
    # policy factories are invoked in the worker, so both the factories and
    # the policies they build must be picklable for jobs != 1
    tasks = []
    for i, h in enumerate(sizes):
        # round RAM down to a whole number of huge frames (a ≤h-page
        # difference — negligible at every scale we sweep)
        h = int(h)
        ram_h = (ram_pages // h) * h
        if ram_h < h:
            _log.warning(
                "sweep_huge_page_sizes: skipping h=%d (ram_pages=%d holds no "
                "whole huge frame) — the sweep returns fewer records than "
                "len(sizes)",
                h, ram_pages,
            )
            continue
        tasks.append(
            SimTask(
                key=i,
                mm_factory=partial(
                    _build_hugepage_mm,
                    tlb_entries,
                    ram_h,
                    h,
                    tlb_policy_factory,
                    ram_policy_factory,
                ),
                params={"h": h},
                warmup=warmup,
                validate=validate,
                deep_every=deep_every,
            )
        )
    return run_records(
        tasks,
        trace=trace,
        jobs=jobs,
        probe=probe,
        metrics_every=metrics_every,
        epsilon=epsilon,
        snapshot=snapshot,
        heartbeat=heartbeat,
    )
