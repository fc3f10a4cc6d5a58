"""Span tracer for the benchmark's traced run.

The tracer wraps the public, per-segment or per-batch callables of each
simulator module from the outside (``setattr`` on the owning class or
module while a traced pass runs) and restores the originals afterwards,
so untraced passes run the unmodified code.  Per-access callables
(``access``, ``PageCache.access``, ``TLB.lookup``) are never wrapped: a
span there would cost more than the work it measures.

Each span records its name, start, end, parent span and the cell+pass tag.
Self time (a span's duration minus its children's) is folded per layer as
spans close, so the layers' self times plus the root's ``residual`` add
up to the pass's wall time by construction.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

__all__ = ["LAYER_METRICS", "RESIDUAL", "Tracer"]

#: the root span's layer: cell wall time no wrapped callable explains.
RESIDUAL = "residual"

#: span layer -> the per-layer metric carrying its self seconds.
LAYER_METRICS = {
    "workloads": "workloads.generate_s",
    "sim": "sim.self_s",
    "paging": "paging.access_many_s",
    "mmu": "mmu.object_s",
    "array_engine.kernel": "array_engine.kernel_s",
    "array_engine.sync": "array_engine.sync_s",
    "ballsbins": "ballsbins.replay_s",
    "tenancy": "tenancy.self_s",
    "tenancy.pick": "tenancy.pick_s",
    "tenancy.shootdown": "tenancy.shootdown_s",
    RESIDUAL: "residual_s",
}

_clock = time.perf_counter


class _Frame:
    __slots__ = ("index", "layer", "name", "parent", "start", "child_s", "outer")

    def __init__(self, index, layer, name, parent, start, outer):
        self.index = index
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.child_s = 0.0
        self.outer = outer


class Tracer:
    """In-memory span recorder for one pass at a time.

    ``begin(tag)`` starts a pass; ``installed()`` patches the simulator
    while it runs; ``enter``/``leave`` bracket the root span.  After the
    pass, ``self_s`` holds per-layer self seconds, ``counts`` the counters
    recorded at the same boundaries, ``run_us`` the durations of the
    outermost MM ``run``/``run_asid`` calls, and ``spans`` every span as
    ``(name, start, end, parent_index, tag)``.
    """

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches = _targets(self)
        self.begin("")

    def begin(self, tag: str) -> None:
        if self._stack:
            raise RuntimeError("begin() with spans still open")
        self.tag = tag
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.run_us: list[float] = []

    # ------------------------------------------------------------- spans

    def enter(self, layer: str, name: str) -> _Frame:
        stack = self._stack
        parent = stack[-1].index if stack else -1
        frame = _Frame(
            len(self.spans), layer, name, parent, 0.0, self._depth[layer] == 0
        )
        self._depth[layer] += 1
        self.spans.append(None)
        stack.append(frame)
        frame.start = _clock()
        return frame

    def leave(self, frame: _Frame) -> float:
        end = _clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self._depth[frame.layer] -= 1
        duration = end - frame.start
        self.self_s[frame.layer] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans[frame.index] = (
            frame.name, frame.start, end, frame.parent, self.tag
        )
        return duration

    def wrap(self, fn, layer: str, name: str, after=None):
        """*fn* bracketed by a span; ``after(tracer, args, result, seconds,
        outermost)`` records counts once the call returns."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.leave(frame)
            if after is not None:
                after(tracer, args, result, seconds, frame.outer)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def installed(self):
        """The wrappers are in place inside the block, and only there."""
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _wrapped in self._patches:
                setattr(owner, attr, original)


# ---------------------------------------------------------------- counts


def _on_run(tracer, args, result, seconds, outer):
    # run(self, trace) or run_asid(self, asid, trace)
    if outer:
        tracer.counts["mmu.run_calls"] += 1
        tracer.counts["mmu.run_accesses"] += len(args[-1])
        tracer.run_us.append(seconds * 1e6)


def _on_try_run(tracer, args, result, seconds, outer):
    n = len(args[1])
    tracer.counts["array_engine.calls"] += 1
    tracer.counts["array_engine.accesses"] += n
    if result is None:
        tracer.counts["array_engine.declined_accesses"] += n


def _on_kernel(tracer, args, result, seconds, outer):
    kernel = args[0]
    tracer.counts["array_engine.prefix"] += kernel.R
    tracer.counts["array_engine.n0"] += kernel.n0


def _on_apply_events(tracer, args, result, seconds, outer):
    tracer.counts["ballsbins.events"] += len(args[1]) + len(args[2])
    if result is None:
        tracer.counts["ballsbins.declines"] += 1


def _on_access_many(tracer, args, result, seconds, outer):
    tracer.counts["paging.access_many_keys"] += len(args[1])


def _on_tenancy_run(tracer, args, result, seconds, outer):
    tracer.counts["tenancy.turns"] += result.turns


def _on_shootdown(tracer, args, result, seconds, outer):
    tracer.counts["tenancy.shootdowns"] += 1


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _targets(tracer: Tracer) -> list[tuple]:
    """``(owner, attribute, original, wrapped)`` for every wrapped callable."""
    from repro.core.decoupling import DecouplingScheme
    from repro.mmu import array_engine
    from repro.mmu.base import MemoryManagementAlgorithm
    from repro.paging import PageCache
    from repro.sim import simulator
    from repro.tenancy import MultiTenantSim
    from repro.tenancy.scheduler import Scheduler
    from repro.workloads import Workload

    kernel = array_engine.StreamKernel
    plan = [
        (simulator, "sweep_huge_page_sizes", "sim", None),
        (simulator, "simulate", "sim", None),
        (PageCache, "access_many", "paging", _on_access_many),
        (MemoryManagementAlgorithm, "run_asid", "mmu", _on_run),
        (kernel, "__init__", "array_engine.kernel", _on_kernel),
        (array_engine, "try_run", "array_engine.sync", _on_try_run),
        (DecouplingScheme, "apply_events", "ballsbins", _on_apply_events),
        (MultiTenantSim, "run", "tenancy", _on_tenancy_run),
        (MemoryManagementAlgorithm, "shootdown_asid", "tenancy.shootdown",
         _on_shootdown),
    ]
    plan += [
        (cls, "generate", "workloads", None)
        for cls in _subclasses(Workload) if "generate" in vars(cls)
    ]
    plan += [
        (cls, "run", "mmu", _on_run)
        for cls in _subclasses(MemoryManagementAlgorithm) if "run" in vars(cls)
    ]
    plan += [
        (kernel, name, "array_engine.kernel", None)
        for name, value in vars(kernel).items()
        if callable(value) and not name.startswith("_")
    ]
    plan += [
        (cls, "pick", "tenancy.pick", None)
        for cls in _subclasses(Scheduler) if "pick" in vars(cls)
    ]
    patches = []
    for owner, attr, layer, after in plan:
        original = vars(owner)[attr]
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        patches.append(
            (owner, attr, original, tracer.wrap(original, layer, label, after))
        )
    return patches
