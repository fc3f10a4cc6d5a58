"""Observability: event tracing, sampling, snapshots, metrics, profiling.

Orthogonal pieces, all optional and all zero-overhead when unused:

* :mod:`repro.obs.events` — the :class:`Probe` protocol (``NullProbe``
  default, ``batch_safe`` granularity contract), :class:`TraceRecorder`
  (typed events → ring buffer → JSONL), :class:`MultiProbe`;
* :mod:`repro.obs.hist` — :class:`LogHistogram`, mergeable log₂-bucketed
  counter histograms (record / merge / percentile);
* :mod:`repro.obs.sampling` — :class:`SamplingProbe`, deterministic
  stride + hashed-VPN sampling with unbiased scale-up; batch-safe, so the
  ``mmu`` fast paths stay enabled under it;
* :mod:`repro.obs.attribution` — :class:`AttributionProbe`, eviction
  provenance via bounded ghost lists: every TLB/page miss classified into
  the :data:`CAUSES` taxonomy plus an ASID × ASID interference matrix;
* :mod:`repro.obs.snapshot` — :class:`ObsSnapshot`, the picklable,
  associatively mergeable unit (counters + histograms + metrics rows)
  that lets ``run_tasks`` fan instrumented tasks across workers;
* :mod:`repro.obs.metrics` — :class:`IntervalMetrics`, per-window time
  series (IO rate, TLB miss rate, working set, cost at ε) from
  :class:`~repro.core.model.CostLedger` deltas;
* :mod:`repro.obs.online` — :class:`OnlineWorkingSet` /
  :class:`OnlineStackDistance`, streaming (batch-safe) twins of the
  offline ``analysis/`` tools — reuse structure without materializing
  the trace;
* :mod:`repro.obs.live` — :class:`TelemetryBus` (atomic JSONL spool),
  :class:`HeartbeatProbe` / :class:`HeartbeatConfig` (periodic progress
  records that keep the fast paths enabled), :class:`StallWatcher`, and
  the ``repro top`` reader (:func:`read_spool` / :func:`aggregate` /
  :func:`render_top`);
* :mod:`repro.obs.report` — render snapshots / bench payloads / metrics
  JSONL into a terminal summary and self-contained HTML (``repro report``);
* :mod:`repro.obs.profile` — a ``perf_counter`` timer and a throughput
  helper.

Attach via ``simulate(mm, trace, probe=..., metrics=...)``,
``run_tasks(..., snapshot=...)``, or the CLI's ``repro trace`` /
``repro report`` subcommands.
"""

from .attribution import (
    ATTRIB_PREFIX,
    CAUSES,
    INTERF_PREFIX,
    REASON_CAPACITY,
    REASON_PROMOTION,
    REASON_REMAP,
    REASON_SHOOTDOWN,
    AttributionProbe,
)
from .events import (
    EVENT_KINDS,
    NULL_PROBE,
    Event,
    MultiProbe,
    NullProbe,
    Probe,
    TraceRecorder,
)
from .hist import LogHistogram
from .live import (
    HeartbeatConfig,
    HeartbeatProbe,
    StallWatcher,
    TelemetryBus,
    aggregate,
    read_spool,
    render_top,
)
from .metrics import METRICS_FIELDS, IntervalMetrics
from .online import OnlineStackDistance, OnlineWorkingSet
from .profile import Timer, accesses_per_second
from .report import build_report, load_artifact, render_html, render_text
from .sampling import SamplingProbe
from .snapshot import ObsSnapshot

__all__ = [
    "EVENT_KINDS",
    "Event",
    "Probe",
    "NullProbe",
    "NULL_PROBE",
    "TraceRecorder",
    "MultiProbe",
    "LogHistogram",
    "SamplingProbe",
    "AttributionProbe",
    "CAUSES",
    "REASON_CAPACITY",
    "REASON_SHOOTDOWN",
    "REASON_REMAP",
    "REASON_PROMOTION",
    "ATTRIB_PREFIX",
    "INTERF_PREFIX",
    "ObsSnapshot",
    "IntervalMetrics",
    "METRICS_FIELDS",
    "OnlineWorkingSet",
    "OnlineStackDistance",
    "TelemetryBus",
    "HeartbeatProbe",
    "HeartbeatConfig",
    "StallWatcher",
    "read_spool",
    "aggregate",
    "render_top",
    "load_artifact",
    "build_report",
    "render_text",
    "render_html",
    "Timer",
    "accesses_per_second",
]
