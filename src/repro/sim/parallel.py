"""Parallel experiment runner: deterministic sharding of simulation grids.

Every paper experiment is a grid of independent cells — one (algorithm,
huge-page size, workload, seed) simulation each — so the sweeps are
embarrassingly parallel. This module turns a declarative list of
:class:`SimTask` cells into an ordered list of
:class:`~repro.sim.stats.RunRecord` results, sharded across a
``ProcessPoolExecutor``:

* **Determinism** — results are keyed and returned in task order, and every
  task is fully described by its (picklable) spec, so ``jobs=4`` produces
  records identical to ``jobs=1``. Per-task seeds for replicated trials
  come from :func:`spawn_seeds` (``numpy.random.SeedSequence.spawn``), not
  from worker-local state.
* **Chunked dispatch** — tasks are submitted in chunks so a shared trace
  array is pickled once per chunk, not once per cell.
* **Fault tolerance** — one attempt loop for every ``jobs``: each round
  runs the pending tasks and yields one ``(key, record, error)`` row per
  task, and a task that raises or hard-crashes its worker
  (``BrokenProcessPool``) marks only that cell failed; it is retried once
  (``retries=1``) in a later round — at ``jobs > 1`` in a single-worker
  pool of its own — and never poisons the other cells.
* **Serial parity** — ``jobs=1`` runs the same rounds in-process, so it
  retries a failed cell after the round, as the pool does. A *shared*
  ``probe=`` observes every run in sequence and is supported on this path
  only (live observer state does not cross process boundaries); asking
  for an enabled probe with ``jobs != 1`` falls back to serial with a
  warning.
* **Parallel observability** — ``snapshot=`` takes a picklable zero-arg
  probe factory (e.g. ``partial(SamplingProbe, rate=1/64)``); each task
  builds its own probe *inside the worker* and ships back a mergeable
  :class:`~repro.obs.snapshot.ObsSnapshot` on ``record.snapshot``, so
  instrumented grids fan out across workers and reduce at join
  (``ObsSnapshot.merge_all``) with results bit-identical to ``jobs=1``.
  ``metrics_every`` rides the same path: per-task collectors are built and
  returned by the worker, so interval metrics no longer force serial.

Each record is stamped with its per-task wall-clock timing
(``params["elapsed_s"]`` / ``params["accesses_per_s"]``, measured inside
the worker) so the obs layer's throughput reporting stays meaningful in
parallel runs.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..obs import IntervalMetrics, MultiProbe, Probe, Timer, accesses_per_second
from ..obs.live import HeartbeatConfig, HeartbeatProbe, StallWatcher
from .stats import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mmu import MemoryManagementAlgorithm

__all__ = [
    "SimTask",
    "TaskResult",
    "run_tasks",
    "run_records",
    "run_callables",
    "spawn_seeds",
    "resolve_jobs",
]

_log = logging.getLogger(__name__)

#: one task's outcome in one round: ``(key, record, None)`` or
#: ``(key, None, error)``.
_Row = tuple[int, RunRecord | None, str | None]


@dataclass(slots=True)
class SimTask:
    """One cell of an experiment grid.

    Every field must be picklable when ``jobs != 1`` — in particular
    ``mm_factory`` must be a module-level function, a ``functools.partial``
    of one, a class, or a picklable callable instance (never a lambda or a
    closure).
    """

    #: zero-argument factory building a fresh MM algorithm for this cell.
    mm_factory: Callable[[], "MemoryManagementAlgorithm"]
    #: unique ordering key within the grid (results come back sorted by
    #: task order; the key names the cell in logs).
    key: int = 0
    #: record label; ``None`` uses the built algorithm's ``name``.
    algorithm: str | None = None
    #: sweep coordinates copied into ``record.params`` (e.g. ``{"h": 64}``).
    params: dict = field(default_factory=dict)
    #: accesses that warm the caches before counters reset.
    warmup: int = 0
    #: per-task trace; ``None`` uses the shared trace given to the runner.
    trace: Any = None
    #: optional picklable ``mm -> dict`` stamping derived coordinates (e.g.
    #: a hybrid's coverage) into ``record.params`` after construction.
    stamp: Callable[["MemoryManagementAlgorithm"], dict] | None = None
    #: run this cell under the :mod:`repro.check` invariant oracle — the
    #: record's costs are unchanged, but a broken invariant fails the cell.
    validate: bool = False
    #: oracle deep-sweep cadence (``None`` = default; meaningful only with
    #: ``validate=True``).
    deep_every: int | None = None
    #: simulation engine for this cell (``None`` keeps the factory-built
    #: algorithm's own ``engine``, the array engine unless the factory
    #: chose otherwise; see :func:`repro.sim.simulate`).
    engine: str | None = None


@dataclass(slots=True)
class TaskResult:
    """Outcome of one task: a record, or an error string after retries."""

    key: int
    record: RunRecord | None
    error: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def spawn_seeds(base_seed, n: int) -> list[int]:
    """*n* statistically independent child seeds derived from *base_seed*.

    Uses ``numpy.random.SeedSequence.spawn`` — the same base seed always
    yields the same children, children never collide with each other or
    with the parent stream, and the expansion is independent of worker
    count or scheduling order.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` mean all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive (or 0/None for all CPUs), got {jobs}")
    return jobs


def _null_probe_factory() -> None:
    """Module-level (hence picklable) stand-in for ``snapshot=True``:
    snapshots carry exact counters (and metrics rows) but no probe."""
    return None


def _execute(
    task: SimTask,
    shared_trace,
    *,
    probe: Probe | None = None,
    metrics_every: int | None = None,
    epsilon: float = 0.01,
    snapshot_factory: Callable[[], Probe | None] | None = None,
    heartbeat: HeartbeatConfig | None = None,
) -> RunRecord:
    """Run one task to a timing-stamped record (worker side or serial)."""
    from .simulator import simulate  # local import: avoid a module cycle

    trace = task.trace if task.trace is not None else shared_trace
    if trace is None:
        raise ValueError(f"task {task.key} has no trace and no shared trace was given")
    mm = task.mm_factory()
    stamped = task.stamp(mm) if task.stamp is not None else {}
    metrics = (
        IntervalMetrics(every=metrics_every, epsilon=epsilon) if metrics_every else None
    )
    if snapshot_factory is not None:
        # per-task probe, built where the task runs — its state never has
        # to cross a process boundary, only the snapshot does
        probe = snapshot_factory()
    bus = None
    hb_probe = None
    run_probe = probe
    if heartbeat is not None:
        bus = heartbeat.bus()
        hb_probe = HeartbeatProbe(
            bus,
            interval=heartbeat.interval,
            task=task.key,
            total=len(trace),
        )
        # the heartbeat rides alongside any snapshot/shared probe; the
        # snapshot below still reads the *original* probe, whose collected
        # state the composite forwards into unchanged
        run_probe = (
            hb_probe
            if probe is None or not probe.enabled
            else MultiProbe([probe, hb_probe])
        )
        bus.emit("task_start", task=task.key, total=len(trace))
    try:
        with Timer() as timer:
            ledger = simulate(
                mm,
                trace,
                warmup=task.warmup,
                probe=run_probe,
                metrics=metrics,
                validate=task.validate,
                deep_every=task.deep_every,
                engine=task.engine,
            )
        # a failed attempt ends in the parent, which knows whether the
        # task runs again (``task_retry``) or ends failed (``task_end``)
        if bus is not None:
            bus.emit(
                "task_end",
                task=task.key,
                accesses=hb_probe.done,
                counters=dict(hb_probe.counters),
                acc_s=accesses_per_second(hb_probe.done, timer.elapsed),
            )
    finally:
        if bus is not None:
            bus.close()
    snapshot = None
    if snapshot_factory is not None:
        from ..obs.snapshot import ObsSnapshot

        snapshot = ObsSnapshot.from_run(
            ledger, probe=probe, metrics=metrics, mm=mm, label=task.key
        )
    return RunRecord(
        algorithm=task.algorithm if task.algorithm is not None else mm.name,
        ledger=ledger,
        params={
            **task.params,
            **stamped,
            "elapsed_s": timer.elapsed,
            "accesses_per_s": accesses_per_second(ledger.accesses, timer.elapsed),
        },
        metrics=metrics,
        snapshot=snapshot,
    )


def _run_chunk(tasks: list[SimTask], shared_trace, **kwargs) -> list[_Row]:
    """Run a chunk of tasks (worker side or in-process), one
    ``(key, record, error)`` row per task; *kwargs* go to :func:`_execute`.

    A task that raises yields ``(key, None, error)``; the rest of the chunk
    still runs.
    """
    out: list[_Row] = []
    for task in tasks:
        try:
            out.append((task.key, _execute(task, shared_trace, **kwargs), None))
        except Exception as exc:
            out.append((task.key, None, f"{type(exc).__name__}: {exc}"))
    return out


def run_tasks(
    tasks: Sequence[SimTask],
    *,
    trace=None,
    jobs: int | None = 1,
    probe: Probe | None = None,
    metrics_every: int | None = None,
    epsilon: float = 0.01,
    snapshot: Callable[[], Probe | None] | bool | None = None,
    heartbeat: HeartbeatConfig | None = None,
    retries: int = 1,
) -> list[TaskResult]:
    """Run every task; return one :class:`TaskResult` per task, in task order.

    *trace* is the shared access trace for tasks whose own ``trace`` is
    ``None`` (pickled once per dispatch chunk). ``jobs=1`` runs in-process;
    ``jobs=None`` or ``0`` uses every CPU.

    *probe* is a single **shared** observer of every run in sequence; live
    observer state does not cross process boundaries, so requesting an
    *enabled* shared probe with ``jobs != 1`` logs a warning and falls back
    to serial (a disabled/null probe costs nothing and forces nothing).

    *snapshot* is the parallel-safe alternative: a **picklable zero-arg
    factory** (e.g. ``functools.partial(SamplingProbe, rate=1/64)``)
    building one fresh probe per task inside the worker; each record comes
    back with a mergeable :class:`~repro.obs.snapshot.ObsSnapshot` on
    ``record.snapshot`` (reduce with ``ObsSnapshot.merge_all``), and the
    merged result is bit-identical to the serial run. ``snapshot=True``
    snapshots counters (and metrics rows) without any probe. *snapshot*
    and *probe* are mutually exclusive.

    *metrics_every* builds one per-task ``IntervalMetrics`` where the task
    runs and returns it on ``record.metrics`` — it composes with any
    ``jobs`` (the collector is plain picklable state).

    *heartbeat* is a picklable :class:`~repro.obs.live.HeartbeatConfig`:
    each task (worker side or serial) opens its own
    :class:`~repro.obs.live.TelemetryBus` on the shared spool and streams
    ``task_start`` / periodic ``heartbeat`` records while it runs and a
    ``task_end`` when it succeeds; the parent emits a structured
    ``task_retry`` record for every failed attempt that runs again and a
    ``task_end`` carrying the ``error`` for every task that ends failed,
    and (at ``jobs > 1``) a parent-side
    :class:`~repro.obs.live.StallWatcher` flags silent workers with
    ``task_stall`` records. Heartbeats compose with *snapshot* probes and
    *metrics_every* via :class:`~repro.obs.events.MultiProbe` and keep the
    vectorized fast paths enabled (the probe is batch-safe with a
    ``batch_interval``); next to a *non*-batch-safe probe
    (``TraceRecorder``, detail sampling, interval metrics) the replay runs
    per access, and the heartbeat still flushes every ``interval``
    accesses and counts every access.

    Fault tolerance: the tasks run in rounds — at ``jobs=1`` in-process,
    at ``jobs > 1`` in chunks on a process pool, and on later rounds in a
    single-worker pool per task, so a repeat crasher cannot take innocent
    neighbours down with it. A failing cell (exception or worker crash)
    runs again in the next round, up to *retries* times, and ends as
    ``TaskResult.error`` if it keeps failing; successful cells are never
    affected. ``TaskResult.attempts`` counts the rounds the task ran in.
    A failed ``jobs=1`` cell thus runs again after the other cells of its
    round, not straight away: the records are the same, but its spool
    records (and a shared *probe*'s events) follow theirs.
    """
    tasks = list(tasks)
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique within a grid")
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if snapshot is not None and probe is not None:
        raise ValueError(
            "snapshot= and probe= are mutually exclusive: a shared probe "
            "observes runs in sequence, a snapshot factory builds one probe "
            "per task"
        )
    snapshot_factory: Callable[[], Probe | None] | None
    if snapshot is True:
        snapshot_factory = _null_probe_factory
    elif snapshot is False:
        snapshot_factory = None
    else:
        snapshot_factory = snapshot
    jobs = resolve_jobs(jobs)
    if jobs != 1 and probe is not None and probe.enabled:
        _log.warning(
            "run_tasks: a shared probe is serial-only; forcing jobs=1 "
            "(was jobs=%d) — pass snapshot= for parallel-safe observability",
            jobs,
        )
        jobs = 1
    if not tasks:
        return []
    # picklable: a pooled round ships it, shared trace included, per chunk
    work = partial(
        _run_chunk,
        shared_trace=trace,
        metrics_every=metrics_every,
        epsilon=epsilon,
        snapshot_factory=snapshot_factory,
        heartbeat=heartbeat,
    )
    results: dict[int, TaskResult] = {}
    pending = tasks
    attempt = 0
    watcher = None
    if heartbeat is not None and jobs != 1:
        watcher = StallWatcher(heartbeat.spool, heartbeat.bus(worker="parent")).start()
    try:
        while pending:
            attempt += 1
            if jobs == 1:
                rows = work(pending, probe=probe)
            elif attempt == 1:
                rows = _pooled_round(pending, jobs, work)
            else:
                rows = _isolated_round(pending, work)
            again = set()
            for key, record, error in rows:
                if error is not None and attempt <= retries:
                    _emit_retry(heartbeat, key, attempt, error)
                    again.add(key)
                    continue
                if error is not None and heartbeat is not None:
                    with heartbeat.bus(worker="parent") as bus:
                        bus.emit("task_end", task=key, error=error)
                results[key] = TaskResult(key, record, error, attempt)
            pending = [t for t in pending if t.key in again]
    finally:
        if watcher is not None:
            watcher.stop()
            watcher.bus.close()
    return [results[key] for key in keys]


def _call(fn):
    """Module-level trampoline so ``executor.map`` stays picklable."""
    return fn()


def run_callables(fns: Sequence[Callable[[], Any]], *, jobs: int | None = 1) -> list[Any]:
    """Run zero-arg callables, returning their results in input order.

    The generic sibling of :func:`run_tasks` for grids that are not plain
    ``simulate()`` cells (e.g. multi-tenant sweeps): each *fn* must be
    picklable when ``jobs != 1`` (module-level function or
    ``functools.partial`` of one) and fully describe its cell, so
    ``jobs=4`` returns results identical to ``jobs=1``. Exceptions
    propagate — callers wanting per-cell fault tolerance should catch
    inside the callable.
    """
    fns = list(fns)
    jobs = resolve_jobs(jobs)
    if not fns:
        return []
    if jobs == 1:
        return [fn() for fn in fns]
    csize = _default_chunksize(len(fns), jobs)
    with ProcessPoolExecutor(max_workers=min(jobs, len(fns))) as pool:
        return list(pool.map(_call, fns, chunksize=csize))


def run_records(tasks: Sequence[SimTask], **kwargs) -> list[RunRecord]:
    """Like :func:`run_tasks`, but return just the records, in task order.

    Cells that still fail after retries are dropped with an error log — the
    result list then has fewer entries than *tasks*, mirroring how the
    sweeps skip infeasible grid points.
    """
    records = []
    for result in run_tasks(tasks, **kwargs):
        if result.ok:
            records.append(result.record)
        else:
            _log.error(
                "run_records: task %d failed after %d attempt(s): %s — "
                "dropping its cell from the results",
                result.key, result.attempts, result.error,
            )
    return records


# ------------------------------------------------------------- internals


def _emit_retry(
    heartbeat: HeartbeatConfig | None, task_key: int, attempt: int, error: str
) -> None:
    """Structured retry event: one ``task_retry`` spool record (when a bus
    is configured) plus a structured log record — so ``repro top`` and log
    processors both see (task, attempt, error), not just free text."""
    if heartbeat is not None:
        with heartbeat.bus(worker="parent") as bus:
            bus.emit("task_retry", task=task_key, attempt=attempt, error=error)
    _log.warning(
        "task %d failed on attempt %d (%s); retrying",
        task_key, attempt, error,
        extra={"event": {
            "kind": "task_retry", "task": task_key,
            "attempt": attempt, "error": error,
        }},
    )


def _default_chunksize(n_tasks: int, jobs: int) -> int:
    """~4 chunks per worker: big enough to amortize trace pickling, small
    enough that a crash retries few innocent neighbours."""
    return max(1, math.ceil(n_tasks / (jobs * 4)))


def _pooled_round(pending: list[SimTask], jobs: int, work) -> list[_Row]:
    """One round on a fresh pool: chunks of :func:`_default_chunksize` on
    ``min(jobs, chunks)`` workers, one row per task, in task order.

    When a worker crash breaks the pool, chunks that finished keep their
    rows and every other task gets a crash row; a chunk whose result
    cannot be read back (e.g. it fails to unpickle) gives each of its
    tasks an error row.
    """
    csize = _default_chunksize(len(pending), jobs)
    chunks = [pending[i:i + csize] for i in range(0, len(pending), csize)]
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)))
    try:
        futures = [pool.submit(work, chunk) for chunk in chunks]
        rows: list[_Row] = []
        for fut, chunk in zip(futures, chunks):
            try:
                rows.extend(fut.result())
            except BrokenProcessPool:
                rows.extend((t.key, None, "worker crashed (pool broken)") for t in chunk)
            except Exception as exc:  # e.g. a result that fails to unpickle
                rows.extend((t.key, None, f"{type(exc).__name__}: {exc}") for t in chunk)
        return rows
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _isolated_round(pending: list[SimTask], work) -> list[_Row]:
    """A retry round at ``jobs > 1``: each task in a single-worker pool of
    its own (crash isolation)."""
    return [row for task in pending for row in _pooled_round([task], 1, work)]
