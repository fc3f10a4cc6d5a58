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
* **Fault tolerance** — a task that raises, times out (in-worker
  ``SIGALRM`` timer), or hard-crashes its worker (``BrokenProcessPool``)
  marks only that cell failed; it is retried once (``retries=1``) in a
  fresh pool and never poisons the other cells.
* **Serial parity** — ``jobs=1`` runs everything in-process with today's
  exact semantics. A *shared* ``probe=`` observes every run in sequence and
  is supported on this path only (live observer state does not cross
  process boundaries); asking for an enabled probe with ``jobs != 1`` falls
  back to serial with a warning.
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
import signal
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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


class _TaskTimeout(Exception):
    """Raised inside a worker when a task exceeds its time budget."""


def _on_alarm(signum, frame):  # pragma: no cover - fires only on slow tasks
    raise _TaskTimeout()


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
    except Exception as exc:
        if bus is not None:
            bus.emit(
                "task_end",
                task=task.key,
                error=f"{type(exc).__name__}: {exc}",
            )
            bus.close()
        raise
    if bus is not None:
        bus.emit(
            "task_end",
            task=task.key,
            accesses=hb_probe.done,
            counters=dict(hb_probe.counters),
            acc_s=accesses_per_second(hb_probe.done, timer.elapsed),
        )
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


def _run_chunk(
    tasks: list[SimTask],
    shared_trace,
    task_timeout: float | None,
    metrics_every: int | None = None,
    epsilon: float = 0.01,
    snapshot_factory: Callable[[], Probe | None] | None = None,
    heartbeat: HeartbeatConfig | None = None,
) -> list[tuple[int, RunRecord | None, str | None]]:
    """Worker entry point: run a chunk of tasks, isolating per-task errors.

    A task that raises or times out yields ``(key, None, error)``; the rest
    of the chunk still runs. Timeouts are enforced *inside* the worker with
    an interval timer (POSIX), so a slow cell cannot wedge the pool.
    """
    has_alarm = task_timeout is not None and hasattr(signal, "setitimer")
    out: list[tuple[int, RunRecord | None, str | None]] = []
    for task in tasks:
        old_handler = None
        if has_alarm:
            old_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, task_timeout)
        try:
            record = _execute(
                task,
                shared_trace,
                metrics_every=metrics_every,
                epsilon=epsilon,
                snapshot_factory=snapshot_factory,
                heartbeat=heartbeat,
            )
            out.append((task.key, record, None))
        except _TaskTimeout:
            out.append((task.key, None, f"timed out after {task_timeout:g}s"))
        except Exception as exc:
            out.append((task.key, None, f"{type(exc).__name__}: {exc}"))
        finally:
            if has_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, old_handler)
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
    task_timeout: float | None = None,
    retries: int = 1,
) -> list[TaskResult]:
    """Run every task; return one :class:`TaskResult` per task, in task order.

    *trace* is the shared access trace for tasks whose own ``trace`` is
    ``None`` (pickled once per dispatch chunk). ``jobs=1`` runs serially
    in-process; ``jobs=None`` or ``0`` uses every CPU.

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
    ``task_start`` / periodic ``heartbeat`` / ``task_end`` records while
    it runs; retries emit structured ``task_retry`` records from the
    parent, and (on the pooled path) a parent-side
    :class:`~repro.obs.live.StallWatcher` flags silent workers with
    ``task_stall`` records. Heartbeats compose with *snapshot* probes and
    *metrics_every* via :class:`~repro.obs.events.MultiProbe` and keep the
    vectorized fast paths enabled (the probe is batch-safe with a
    ``batch_interval``); next to a *non*-batch-safe probe
    (``TraceRecorder``, detail sampling, interval metrics) the replay runs
    per access, and the heartbeat still flushes every ``interval``
    accesses and counts every access.

    Fault tolerance: a failing cell (exception, per-task *task_timeout*, or
    worker crash) is retried up to *retries* times — crash retries get a
    fresh pool and chunks of one — and ends as ``TaskResult.error`` if it
    keeps failing; successful cells are never affected.
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
    if jobs == 1:
        return _run_serial(
            tasks,
            trace,
            probe=probe,
            metrics_every=metrics_every,
            epsilon=epsilon,
            snapshot_factory=snapshot_factory,
            heartbeat=heartbeat,
            retries=retries,
        )
    return _run_pooled(
        tasks,
        trace,
        jobs=jobs,
        metrics_every=metrics_every,
        epsilon=epsilon,
        snapshot_factory=snapshot_factory,
        heartbeat=heartbeat,
        task_timeout=task_timeout,
        retries=retries,
    )


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


def _run_serial(
    tasks: list[SimTask],
    trace,
    *,
    probe,
    metrics_every,
    epsilon,
    snapshot_factory,
    heartbeat: HeartbeatConfig | None = None,
    retries: int,
) -> list[TaskResult]:
    """In-process path: today's sweep semantics, bit-for-bit.

    The shared probe (if any) observes every run in sequence, and each task
    gets its own metrics collector and snapshot probe, exactly as the
    workers would build them.
    """
    results = []
    for task in tasks:
        attempts = 0
        while True:
            attempts += 1
            try:
                record = _execute(
                    task, trace, probe=probe, metrics_every=metrics_every,
                    epsilon=epsilon, snapshot_factory=snapshot_factory,
                    heartbeat=heartbeat,
                )
            except Exception as exc:
                if attempts <= retries:
                    _emit_retry(
                        heartbeat, task.key, attempts,
                        f"{type(exc).__name__}: {exc}",
                    )
                    continue
                results.append(
                    TaskResult(task.key, None,
                               error=f"{type(exc).__name__}: {exc}",
                               attempts=attempts)
                )
            else:
                results.append(TaskResult(task.key, record, attempts=attempts))
            break
    return results


def _default_chunksize(n_tasks: int, jobs: int) -> int:
    """~4 chunks per worker: big enough to amortize trace pickling, small
    enough that a crash retries few innocent neighbours."""
    return max(1, math.ceil(n_tasks / (jobs * 4)))


def _run_pooled(
    tasks: list[SimTask],
    trace,
    *,
    jobs: int,
    metrics_every: int | None,
    epsilon: float,
    snapshot_factory,
    heartbeat: HeartbeatConfig | None = None,
    task_timeout: float | None,
    retries: int,
) -> list[TaskResult]:
    by_key = {t.key: t for t in tasks}
    results: dict[int, TaskResult] = {}
    attempts = {t.key: 0 for t in tasks}
    pending = list(tasks)
    round_idx = 0

    def note_failure(task: SimTask, error: str, requeue: list[SimTask]) -> None:
        if attempts[task.key] <= retries:
            _emit_retry(heartbeat, task.key, attempts[task.key], error)
            requeue.append(task)
        else:
            results[task.key] = TaskResult(
                task.key, None, error=error, attempts=attempts[task.key]
            )

    watcher = None
    if heartbeat is not None:
        watcher = StallWatcher(
            heartbeat.spool,
            heartbeat.bus(worker="parent"),
            stall_factor=heartbeat.stall_factor,
            grace_s=heartbeat.grace_s,
        ).start()
    try:
        return _pooled_rounds(
            tasks, trace, by_key, results, attempts, pending, round_idx,
            note_failure,
            jobs=jobs, metrics_every=metrics_every, epsilon=epsilon,
            snapshot_factory=snapshot_factory, heartbeat=heartbeat,
            task_timeout=task_timeout,
        )
    finally:
        if watcher is not None:
            watcher.stop()
            watcher.bus.close()


def _pooled_rounds(
    tasks, trace, by_key, results, attempts, pending, round_idx, note_failure,
    *,
    jobs, metrics_every, epsilon, snapshot_factory, heartbeat, task_timeout,
) -> list[TaskResult]:
    while pending:
        for t in pending:
            attempts[t.key] += 1
        requeue: list[SimTask] = []
        if round_idx:
            # retry rounds: one fresh single-worker pool per cell, so a
            # repeat-crasher cannot take innocent neighbours down with it
            _isolated_round(
                pending, trace, task_timeout, results, attempts,
                note_failure, requeue,
                metrics_every=metrics_every, epsilon=epsilon,
                snapshot_factory=snapshot_factory, heartbeat=heartbeat,
            )
            pending = requeue
            round_idx += 1
            continue
        csize = _default_chunksize(len(pending), jobs)
        chunks = [pending[i:i + csize] for i in range(0, len(pending), csize)]
        # parent-side backstop: the in-worker alarm should fire first, so
        # only a wedged worker (e.g. stuck in C code) trips this
        budget = None if task_timeout is None else task_timeout * len(pending) * 2 + 30
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)))
        futures = {
            pool.submit(
                _run_chunk, chunk, trace, task_timeout,
                metrics_every, epsilon, snapshot_factory, heartbeat,
            ): chunk
            for chunk in chunks
        }
        consumed: set = set()
        try:
            for fut in as_completed(futures, timeout=budget):
                try:
                    rows = fut.result()
                except BrokenProcessPool:
                    # not marked consumed: the recovery sweep below requeues
                    # this chunk's tasks along with the truly unfinished ones
                    raise
                except Exception as exc:  # e.g. result unpickling failure
                    consumed.add(fut)
                    for t in futures[fut]:
                        note_failure(t, f"{type(exc).__name__}: {exc}", requeue)
                    continue
                consumed.add(fut)
                for key, record, error in rows:
                    if error is None:
                        results[key] = TaskResult(
                            key, record, attempts=attempts[key]
                        )
                    else:
                        note_failure(by_key[key], error, requeue)
        except (BrokenProcessPool, FuturesTimeoutError) as exc:
            # the pool died (worker crash) or the round blew its budget:
            # harvest chunks that did finish, requeue the rest
            reason = (
                "worker crashed (pool broken)"
                if isinstance(exc, BrokenProcessPool)
                else f"round exceeded its {budget:g}s budget"
            )
            for fut, chunk in futures.items():
                if fut in consumed:
                    continue
                if fut.done() and fut.exception() is None:
                    for key, record, error in fut.result():
                        if error is None:
                            results[key] = TaskResult(
                                key, record, attempts=attempts[key]
                            )
                        else:
                            note_failure(by_key[key], error, requeue)
                else:
                    for t in chunk:
                        if t.key not in results:
                            note_failure(t, reason, requeue)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        pending = requeue
        round_idx += 1

    return [results[t.key] for t in tasks]


def _isolated_round(
    pending: list[SimTask],
    trace,
    task_timeout: float | None,
    results: dict,
    attempts: dict,
    note_failure,
    requeue: list[SimTask],
    *,
    metrics_every: int | None = None,
    epsilon: float = 0.01,
    snapshot_factory=None,
    heartbeat: HeartbeatConfig | None = None,
) -> None:
    """Run each task in its own single-worker pool (crash isolation)."""
    budget = None if task_timeout is None else task_timeout * 2 + 30
    for task in pending:
        pool = ProcessPoolExecutor(max_workers=1)
        fut = pool.submit(
            _run_chunk, [task], trace, task_timeout,
            metrics_every, epsilon, snapshot_factory, heartbeat,
        )
        try:
            rows = fut.result(timeout=budget)
        except BrokenProcessPool:
            note_failure(task, "worker crashed (pool broken)", requeue)
            continue
        except FuturesTimeoutError:
            note_failure(task, f"exceeded its {budget:g}s budget", requeue)
            continue
        except Exception as exc:
            note_failure(task, f"{type(exc).__name__}: {exc}", requeue)
            continue
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for key, record, error in rows:
            if error is None:
                results[key] = TaskResult(key, record, attempts=attempts[key])
            else:
                note_failure(task, error, requeue)
