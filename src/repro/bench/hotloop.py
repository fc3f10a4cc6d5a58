"""``repro bench --hotloop``: per-component hot-loop microbenchmarks.

The sweep benchmark (:mod:`repro.bench.smoke`) measures end-to-end
throughput; when it regresses, this module answers *which layer* got
slower. Each component is timed on its own fixed key stream:

* ``tlb`` — :class:`~repro.tlb.TLB` lookup + demand fill;
* ``cache:<policy>`` — :class:`~repro.paging.PageCache.access` under every
  registered replacement policy;
* ``mm:<name>`` — ``run()`` for every registry algorithm under the
  configured simulation engine (``mm_engine``, default ``"array"`` — the
  struct-of-arrays batch engine; algorithms it does not cover fall back
  to the object replay with identical counters);
* ``mm@object:<name>`` — the object-engine twin of ``mm:<name>`` for the
  fast-path algorithms, so the probe-overhead gate compares probed runs
  (which ride the object fast paths) against a like-for-like twin and the
  array-engine speedup is visible inside one payload;
* ``mm:<name>+fail`` / ``mm@object:<name>+fail`` — the same engine pair
  over a deliberately undersized cell (:data:`FAILURE_MMS`) whose stream
  fails mid-run, so the engine-identity gate also covers the batch
  kernel's paging-failure bailout path; the gate additionally requires
  these rows to report ``paging_failures > 0`` (the cell must keep
  failing, or the rows silently stop testing the bailout);
* ``mm:<name>@q<quantum>`` / ``mm@object:<name>@q<quantum>`` — the same
  engine pair for every algorithm the array engine handles, in short
  segments: the machine warms up on the first half of the preset trace
  in one ``run()``, then the second half is timed in ``quantum``-access
  ``run()`` calls (one tenant turn each, as when every turn ends in a
  shootdown), so every array-engine call starts from a warm cache. The
  engine-identity gate pairs these rows by name like the ``+fail`` rows;
* ``mm:<name>@t<tenants>`` / ``mm@object:<name>@t<tenants>`` — the same
  engine pair for every registry algorithm as a multi-tenant machine: the
  preset trace split into ``tenants`` equal tenant streams, driven by a
  round-robin :class:`~repro.tenancy.MultiTenantSim` at ``quantum`` with
  arrivals staggered over the first half of the run (churn 0.5) and a φ
  remap every 8 turns. Paired by name like the ``@q`` rows;
* ``mm+sampled:<name>`` — ``run()`` with a batch-safe
  :class:`~repro.obs.sampling.SamplingProbe` attached, for every fast-path
  algorithm. The probe must not perturb the simulation (identical
  counters) and must keep the fast path — ``tools/check_bench.py`` gates
  the probed/unprobed throughput ratio within the payload;
* ``mm+online:<name>`` — ``run()`` with the streaming analysis probes
  (:class:`~repro.obs.online.OnlineWorkingSet` +
  :class:`~repro.obs.online.OnlineStackDistance`, hashed-VPN sampled at
  the ``online_*_stride`` config rates) attached through a
  :class:`~repro.obs.events.MultiProbe`. Same contract, same gate: the
  online analyses ride the fast path and stay within
  ``--probe-tolerance`` of the unprobed twin;
* ``mm+attrib:<name>`` — ``run()`` with an
  :class:`~repro.obs.attribution.AttributionProbe` observing the MM's
  eviction sites. The ghost-list classification rides the structures' own
  miss paths, so the same contract applies: counters identical to the
  unprobed twin and throughput within ``--probe-tolerance``.

Key streams come from a tiny in-module LCG (not numpy), so every counter
in the payload is reproducible across numpy versions and the CI gate
(``tools/check_bench.py``) can always compare them exactly. Every
component is timed best-of-``repeats`` on a fresh instance (the counters
are deterministic, so repeats agree on everything but the clock), which
keeps the ratio gates meaningful on noisy shared runners. The payload
(``BENCH_hotloop.json``) mirrors the sweep payload's shape: ``machine`` +
``config`` provenance, one row per component with ``ops_per_s`` and its
deterministic counters, and a single aggregate (``geomean_ops_per_s``)
for the throughput gate.
"""

from __future__ import annotations

import math

import numpy as np

from ..mmu import MM_NAMES, make_mm
from ..obs import (
    AttributionProbe,
    MultiProbe,
    OnlineStackDistance,
    OnlineWorkingSet,
    SamplingProbe,
    Timer,
    accesses_per_second,
)
from ..paging import POLICIES, PageCache, make_policy
from ..tenancy import MultiTenantSim, Tenant
from ..tlb import TLB
from .smoke import BENCH_FORMAT, machine_info

__all__ = [
    "FAILURE_MMS",
    "HOTLOOP_CONFIG",
    "SAMPLED_MMS",
    "bench_hotloop",
    "key_stream",
]

#: Fixed microbenchmark shape; two payloads are comparable iff equal.
HOTLOOP_CONFIG: dict = {
    "ops": 100_000,  # keys per tlb/cache component
    "mm_accesses": 50_000,  # trace length per mm component
    "universe": 1 << 14,  # key universe (pages)
    "hot_universe": 1 << 9,  # the hot subset (fits every component) ...
    "hot_percent": 90,  # ... receiving this share of accesses
    "tlb_entries": 1024,  # tlb component capacity
    "cache_pages": 1024,  # cache component capacity
    "mm_tlb_entries": 256,  # registry-MM tlb size
    "mm_ram_pages": 4096,  # registry-MM ram size
    "mm_engine": "array",  # engine for the mm:<name> rows
    "sampled_stride": 64,  # SamplingProbe rate is 1/this for mm+sampled
    "online_tau": 1024,  # OnlineWorkingSet window for mm+online
    "online_sample_every": 256,  # OnlineWorkingSet window stride
    "online_ws_stride": 64,  # OnlineWorkingSet rate is 1/this
    "online_sd_stride": 256,  # OnlineStackDistance rate is 1/this
    "attrib_ghost_capacity": 65536,  # AttributionProbe ghost bound for mm+attrib
    "fail_accesses": 4_000,  # trace length per mm failure row
    "fail_hot_percent": 50,  # hot share of the failure key streams
    "fail_mm_seed": 2,  # mm seed for the failure rows (streams use "seed")
    "quantum": 64,  # run() length of the mm@q<quantum> rows' timed half
    "tenants": 8,  # tenant streams of the mm@t<tenants> rows (same quantum)
    "repeats": 5,  # best-of timing repeats per component
    "seed": 0,
}

#: MMs with a batched/vectorized fast path — the ``mm+sampled`` and
#: ``mm+online`` sets.
SAMPLED_MMS: tuple[str, ...] = ("physical-huge", "decoupled", "hybrid", "thp")

#: paging-failure cells (``mm:<name>+fail`` rows): TLB/RAM deliberately
#: undersized for the key-stream working set, so the allocator runs out of
#: frames and the stream fails mid-run — the engine-identity gate then
#: also covers the array engine's bailout accounting. The same geometry
#: backs the committed failure goldens (``tests/check/goldens.py``).
FAILURE_MMS: dict = {
    "decoupled": {"tlb_entries": 32, "ram_pages": 64, "universe": 1024},
    "hybrid": {"tlb_entries": 32, "ram_pages": 128, "universe": 512},
}


def key_stream(
    n: int,
    universe: int,
    hot_universe: int,
    hot_percent: int,
    seed: int = 0,
) -> list[int]:
    """A deterministic skewed key stream from a 64-bit LCG.

    *hot_percent* of the keys land in ``[0, hot_universe)``, the rest are
    uniform over ``[0, universe)``. Pure Python on purpose: unlike numpy
    random streams, the output is identical on every numpy version, so
    the gate can always compare the resulting counters bit-for-bit.
    """
    mask = (1 << 64) - 1
    state = (seed * 0x9E3779B97F4A7C15 + 1) & mask
    keys = []
    append = keys.append
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        r = state >> 33
        if r % 100 < hot_percent:
            append((r >> 7) % hot_universe)
        else:
            append((r >> 7) % universe)
    return keys


def _time_loop(fn, keys) -> tuple[float, int]:
    """Run ``fn(key)`` over *keys* under the wall timer."""
    with Timer() as t:
        for k in keys:
            fn(k)
    return t.elapsed, len(keys)


def _best_of(once, repeats: int) -> tuple[float, dict]:
    """Run ``once() -> (elapsed, counters)`` *repeats* times; keep the
    fastest clock. Each call builds a fresh component, so the
    deterministic counters are identical across repeats and the minimum
    wall time is the least-noise estimate of the hot-loop cost."""
    best = math.inf
    counters: dict = {}
    for _ in range(max(1, repeats)):
        elapsed, counters = once()
        best = min(best, elapsed)
    return best, counters


def _row(component: str, ops: int, elapsed: float, counters: dict) -> dict:
    return {
        "component": component,
        "ops": ops,
        "elapsed_s": elapsed,
        "ops_per_s": accesses_per_second(ops, elapsed),
        "counters": counters,
    }


def _bench_tlb(keys, cfg) -> dict:
    def once():
        tlb = TLB(entries=cfg["tlb_entries"])
        lookup, fill = tlb.lookup, tlb.fill

        def access(hpn):
            if lookup(hpn) is None:
                fill(hpn)

        elapsed, _ = _time_loop(access, keys)
        return elapsed, {
            "hits": tlb.hits, "misses": tlb.misses, "fills": tlb.fills
        }

    elapsed, counters = _best_of(once, cfg["repeats"])
    return _row("tlb", len(keys), elapsed, counters)


def _bench_cache(name: str, keys, cfg) -> dict:
    def once():
        kwargs = {"seed": cfg["seed"]} if name == "random" else {}
        cache = PageCache(cfg["cache_pages"], make_policy(name, **kwargs))
        elapsed, _ = _time_loop(cache.access, keys)
        return elapsed, {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
        }

    elapsed, counters = _best_of(once, cfg["repeats"])
    return _row(f"cache:{name}", len(keys), elapsed, counters)


def _ledger_counters(ledger) -> dict:
    return {
        "accesses": ledger.accesses,
        "ios": ledger.ios,
        "tlb_hits": ledger.tlb_hits,
        "tlb_misses": ledger.tlb_misses,
        "decoding_misses": ledger.decoding_misses,
        "paging_failures": ledger.paging_failures,
    }


def _sampled_probe(cfg):
    return SamplingProbe(1 / cfg["sampled_stride"], seed=cfg["seed"])


def _online_probe(cfg):
    return MultiProbe([
        OnlineWorkingSet(
            cfg["online_tau"],
            sample_every=cfg["online_sample_every"],
            rate=1 / cfg["online_ws_stride"],
            seed=cfg["seed"],
        ),
        OnlineStackDistance(
            rate=1 / cfg["online_sd_stride"], seed=cfg["seed"]
        ),
    ])


def _attrib_probe(cfg):
    return AttributionProbe(ghost_capacity=cfg["attrib_ghost_capacity"])


#: probe factory per probed-row prefix; plain ``mm:`` rows use ``None``.
_PROBE_VARIANTS = (
    ("mm+sampled", _sampled_probe),
    ("mm+online", _online_probe),
    ("mm+attrib", _attrib_probe),
)


def _mm_once(
    name: str, trace, cfg, *, probe_factory=None, engine: str = "object"
) -> tuple[float, dict]:
    """One fresh-MM run, optionally with a freshly built probe attached."""
    mm = make_mm(
        name, cfg["mm_tlb_entries"], cfg["mm_ram_pages"], seed=cfg["seed"],
        engine=engine,
    )
    if probe_factory is not None:
        mm.probe = probe_factory(cfg)
        # provenance probes hook the MM's eviction sites, not the access
        # stream — duck-typed so plain probes need no attach step
        observe = getattr(mm.probe, "observe", None)
        if observe is not None:
            observe(mm)
    with Timer() as t:
        ledger = mm.run(trace)
    return t.elapsed, _ledger_counters(ledger)


def _bench_mm(name: str, trace, cfg) -> dict:
    def once():
        return _mm_once(name, trace, cfg, engine=cfg["mm_engine"])

    elapsed, counters = _best_of(once, cfg["repeats"])
    return _row(f"mm:{name}", len(trace), elapsed, counters)


def _bench_mm_probed(name: str, trace, cfg) -> list[dict]:
    """Time the plain, object-twin, and probed runs of one fast-path MM,
    interleaved.

    The ``mm:`` row uses the configured ``mm_engine``; the ``mm@object:``
    twin re-runs it on the object engine, giving the probe gate a
    like-for-like denominator (probes ride the object fast paths) and
    making the array-engine speedup measurable within one payload. The
    probed counters must match the plain rows exactly (probes never
    perturb the simulation) and throughput must stay within the gate's
    probe tolerance — together these pin that each probe rides the fast
    path instead of forcing the per-access replay. Alternating the
    variants within the same repeat loop exposes every side of those
    ratios to the same machine conditions, so slow clock or load drift
    cancels out of the gate instead of masquerading as probe overhead.
    """
    variants: list[tuple[str, dict]] = [
        ("mm", {"engine": cfg["mm_engine"]}),
        ("mm@object", {}),
    ]
    variants += [
        (prefix, {"probe_factory": factory})
        for prefix, factory in _PROBE_VARIANTS
    ]
    best = {prefix: math.inf for prefix, _ in variants}
    counters: dict = {prefix: {} for prefix, _ in variants}
    for _ in range(max(1, cfg["repeats"])):
        for prefix, kwargs in variants:
            elapsed, counters[prefix] = _mm_once(name, trace, cfg, **kwargs)
            best[prefix] = min(best[prefix], elapsed)
    return [
        _row(f"{prefix}:{name}", len(trace), best[prefix], counters[prefix])
        for prefix, _ in variants
    ]


def _engine_pair(component: str, ops: int, cfg, build, replay) -> list[dict]:
    """Time ``replay(build(engine))`` on the configured engine (the
    ``mm:`` row) and on the object engine (the ``mm@object:`` twin),
    interleaved, best of ``repeats``.  ``build`` is untimed and returns
    what ``replay`` drives (an MM or a multi-tenant sim); ``replay``
    returns the ledger the row reports.  The check_bench engine gate
    holds the twins' counters bit-identical."""
    variants = (("mm", cfg["mm_engine"]), ("mm@object", "object"))
    best = {prefix: math.inf for prefix, _ in variants}
    counters: dict = {prefix: {} for prefix, _ in variants}
    for _ in range(max(1, cfg["repeats"])):
        for prefix, engine in variants:
            target = build(engine)
            with Timer() as t:
                ledger = replay(target)
            best[prefix] = min(best[prefix], t.elapsed)
            counters[prefix] = _ledger_counters(ledger)
    return [
        _row(f"{prefix}:{component}", ops, best[prefix], counters[prefix])
        for prefix, _ in variants
    ]


def _bench_mm_fail(name: str, cfg) -> list[dict]:
    """Time one paging-failure cell on both engines (:func:`_engine_pair`),
    whose counters here include ``paging_failures``. The cell geometry
    comes from :data:`FAILURE_MMS`; the mm seed is pinned separately
    (``fail_mm_seed``) because the failure pattern is a property of
    allocator hashing, not of the key stream.
    """
    geom = FAILURE_MMS[name]
    trace = np.asarray(
        key_stream(
            cfg["fail_accesses"],
            geom["universe"],
            geom["universe"] // 8,
            cfg["fail_hot_percent"],
            seed=cfg["seed"],
        ),
        dtype=np.int64,
    )

    def build(engine):
        return make_mm(
            name,
            geom["tlb_entries"],
            geom["ram_pages"],
            seed=cfg["fail_mm_seed"],
            engine=engine,
        )

    return _engine_pair(
        f"{name}+fail", len(trace), cfg, build, lambda mm: mm.run(trace)
    )


def _bench_mm_quantum(name: str, trace, cfg) -> list[dict]:
    """Time one algorithm in short segments on both engines
    (:func:`_engine_pair`).

    Warm-up (untimed, then ``reset_stats``): the first half of *trace* in
    one ``run()``.  Timed: the second half in ``cfg["quantum"]``-access
    ``run()`` calls, so the rows measure the per-call cost a warm
    machine pays, the shape of a lone tenant turn between shootdowns.
    """
    q = cfg["quantum"]
    half = len(trace) // 2
    segments = [trace[i : i + q] for i in range(half, len(trace), q)]

    def build(engine):
        mm = make_mm(
            name, cfg["mm_tlb_entries"], cfg["mm_ram_pages"],
            seed=cfg["seed"], engine=engine,
        )
        mm.run(trace[:half])
        mm.reset_stats()
        return mm

    def replay(mm):
        run = mm.run
        for segment in segments:
            run(segment)
        return mm.ledger

    return _engine_pair(f"{name}@q{q}", len(trace) - half, cfg, build, replay)


def _bench_mm_tenants(name: str, trace, cfg) -> list[dict]:
    """Time one algorithm as a multi-tenant machine on both engines
    (:func:`_engine_pair`).

    *trace* splits into ``cfg["tenants"]`` equal tenant streams with
    arrivals staggered over the first half of the run; one round-robin
    :class:`~repro.tenancy.MultiTenantSim` run at ``cfg["quantum"]``
    with a φ remap every 8 turns is timed.
    """
    k = cfg["tenants"]
    per = len(trace) // k
    streams = [trace[i * per : (i + 1) * per] for i in range(k)]

    def build(engine):
        mm = make_mm(
            name, cfg["mm_tlb_entries"], cfg["mm_ram_pages"],
            seed=cfg["seed"], engine=engine,
        )
        tenants = [
            Tenant(f"t{i}", trace=stream, arrival=per * i // 2)
            for i, stream in enumerate(streams)
        ]
        return MultiTenantSim(mm, tenants, quantum=cfg["quantum"], remap_every=8)

    return _engine_pair(
        f"{name}@t{k}", per * k, cfg, build, lambda sim: sim.run().ledger
    )


def bench_hotloop(*, seed: int | None = None) -> tuple[list[dict], dict]:
    """Run every component microbenchmark; return ``(rows, payload)``.

    *seed* overrides the preset stream seed — overriding makes the payload
    incomparable to baselines recorded with the preset, which the gate's
    config check catches.
    """
    # imported here so that `import repro.bench` leaves the engine unloaded
    from ..mmu.array_engine import supports

    cfg = dict(HOTLOOP_CONFIG)
    if seed is not None:
        cfg["seed"] = seed

    keys = key_stream(
        cfg["ops"], cfg["universe"], cfg["hot_universe"], cfg["hot_percent"],
        seed=cfg["seed"],
    )
    # ndarray on purpose: the fast-path MMs hand the trace straight to
    # batch-safe probes, whose vectorized paths then skip the list→array
    # conversion; the replayed VPNs (and so every counter) are unchanged.
    trace = np.asarray(keys[: cfg["mm_accesses"]], dtype=np.int64)

    rows: list[dict] = []
    probed_rows: list[dict] = []
    with Timer() as wall:
        rows.append(_bench_tlb(keys, cfg))
        for name in sorted(POLICIES):
            rows.append(_bench_cache(name, keys, cfg))
        for name in MM_NAMES:
            if name in SAMPLED_MMS:
                plain, *probed = _bench_mm_probed(name, trace, cfg)
                rows.append(plain)
                probed_rows.extend(probed)
            else:
                rows.append(_bench_mm(name, trace, cfg))
        for name in sorted(FAILURE_MMS):
            rows.extend(_bench_mm_fail(name, cfg))
        for name in MM_NAMES:
            mm = make_mm(name, cfg["mm_tlb_entries"], cfg["mm_ram_pages"])
            if supports(mm):
                rows.extend(_bench_mm_quantum(name, trace, cfg))
        for name in MM_NAMES:
            rows.extend(_bench_mm_tenants(name, trace, cfg))
        rows.extend(probed_rows)

    # geometric mean: a 2x regression in one component moves the aggregate
    # the same amount whether the component is fast or slow in absolute terms
    geomean = math.exp(
        sum(math.log(r["ops_per_s"]) for r in rows) / len(rows)
    )
    payload = {
        "format": BENCH_FORMAT,
        "kind": "bench_hotloop",
        "machine": machine_info(),
        "config": cfg,
        "wall_elapsed_s": wall.elapsed,
        "geomean_ops_per_s": geomean,
        "rows": rows,
    }
    return rows, payload
