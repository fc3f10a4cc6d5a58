"""Miss attribution: eviction provenance and a per-tenant cause taxonomy.

The cost model charges every TLB/page miss uniformly, but tuning decisions
(tenant-aware replacement, THP policy knobs, second-level translation
caches) hinge on *why* each miss happened and *who caused it*. This module
answers both with bounded ghost lists: every eviction or invalidation in a
:class:`~repro.paging.cache.PageCache` leaves a tag ``(reason, evictor
page)`` behind for its victim, and the next miss on that key consumes the
tag and classifies itself:

==================  ==========================================================
``cold``            never seen before (or the tag aged out of the ghost list)
``capacity_self``   evicted by demand pressure from the *same* address space
``capacity_cross``  evicted by demand pressure from *another* tenant
``shootdown``       invalidated by an exit/explicit TLB shootdown
``remap``           invalidated by a φ-change (``remap_every``) shootdown
``promotion_flush``  flushed by a THP base→huge promotion
==================  ==========================================================

:class:`AttributionProbe` owns the counters: ``counts`` keyed by
``(asid, family, cause)`` where *family* names the structure (``tlb`` /
``ram``), and an ``asid × asid`` interference ``matrix`` counting, for every
non-cold miss, (sufferer, evictor) pairs. Both are exact — on the golden
streams the per-cause counts for the ``tlb`` family sum bit-identically to
``ledger.tlb_misses`` — and both fold into :class:`~repro.obs.ObsSnapshot`
counters (``attrib:{family}:{cause}`` / ``interf:{sufferer}:{evictor}``)
whose merge is associative, so sharded runs reduce bit-identically.

The probe is ``batch_safe``: classification rides the structures' own miss
paths, not per-access probe events, so the vectorized MM fast paths stay
enabled. Every array-engine handler replays provenance sparsely from its
kernels' miss and eviction death positions, so attaching the probe never
moves a segment to the object engine (pinned by a contract test).

ASIDs are derived from the page striding of
:meth:`~repro.mmu.base.MemoryManagementAlgorithm.bind_asid_space`: under a
power-of-two stride both the sufferer and the evictor of a miss follow from
cache keys alone (``page // stride``), so provenance needs no per-access
ASID plumbing. Unstrided (single-tenant) machines attribute everything to
ASID 0.
"""

from __future__ import annotations

from .._util import check_positive_int
from .events import Probe

__all__ = [
    "CAUSES",
    "REASON_CAPACITY",
    "REASON_SHOOTDOWN",
    "REASON_REMAP",
    "REASON_PROMOTION",
    "ATTRIB_PREFIX",
    "INTERF_PREFIX",
    "AttributionProbe",
]

#: every cause a miss can be assigned, in reporting order.
CAUSES: tuple[str, ...] = (
    "cold",
    "capacity_self",
    "capacity_cross",
    "shootdown",
    "remap",
    "promotion_flush",
)

#: provenance reason codes recorded in ghost tags.
REASON_CAPACITY = 0
REASON_SHOOTDOWN = 1
REASON_REMAP = 2
REASON_PROMOTION = 3

#: non-capacity reasons map straight to their cause name.
_REASON_CAUSE = {
    REASON_SHOOTDOWN: "shootdown",
    REASON_REMAP: "remap",
    REASON_PROMOTION: "promotion_flush",
}

#: flat-counter key prefixes used in ObsSnapshot / telemetry payloads.
ATTRIB_PREFIX = "attrib:"
INTERF_PREFIX = "interf:"

#: shared single-tenant capacity tag (the evictor page is unused at stride 0).
_CAPACITY_TAG = (REASON_CAPACITY, 0)

#: the single-tenant interference cell (every pair is ASID 0 → ASID 0).
_ORIGIN = (0, 0)


class _SiteGhost:
    """Bounded ghost list attached to one cache structure (``_ghost`` slot).

    The owning structure calls :meth:`miss` on every demand miss (before
    any eviction of the same access), :meth:`evicted` after every capacity
    eviction, and the machine's shootdown/promotion paths call
    :meth:`invalidated` for each dropped entry. Tags are FIFO-bounded at
    *cap* entries, so a ghost list can never outgrow a long run — an aged
    -out tag just degrades that miss to ``cold``.
    """

    __slots__ = (
        "probe",
        "family",
        "page_of",
        "cap",
        "_tags",
        "_pop",
        "_counts",
        "_matrix",
        "_cold_key",
        "_single_keys",
    )

    def __init__(self, probe: "AttributionProbe", family, page_of, cap) -> None:
        self.probe = probe
        self.family = family
        self.page_of = page_of
        self.cap = cap
        self._tags: dict = {}
        # bound once: the tag dict is never replaced, and the probe's
        # tally dicts are cleared in place by reset(), so the hot hooks
        # skip the attribute hops and method binding per event
        self._pop = self._tags.pop
        self._counts = probe.counts
        self._matrix = probe.matrix
        # precomputed stride-0 counter keys: on a single-tenant machine the
        # sufferer is always ASID 0, so the hot hooks skip page_of and the
        # per-event key-tuple allocation entirely
        self._cold_key = (0, family, "cold")
        self._single_keys = {
            REASON_CAPACITY: (0, family, "capacity_self"),
            **{r: (0, family, c) for r, c in _REASON_CAUSE.items()},
        }

    def miss(self, key) -> None:
        """Classify a demand miss on *key*, consuming its provenance tag."""
        tag = self._pop(key, None)
        stride = self.probe.asid_stride
        counts = self._counts
        if not stride:
            if tag is None:
                ck = self._cold_key
            else:
                ck = self._single_keys[tag[0]]
                matrix = self._matrix
                matrix[_ORIGIN] = matrix.get(_ORIGIN, 0) + 1
            counts[ck] = counts.get(ck, 0) + 1
            return
        sufferer = self.page_of(key) // stride
        if tag is None:
            cause = "cold"
        else:
            reason, evictor_page = tag
            evictor = evictor_page // stride
            if reason == REASON_CAPACITY:
                cause = "capacity_self" if evictor == sufferer else "capacity_cross"
            else:
                cause = _REASON_CAUSE[reason]
            matrix = self._matrix
            pair = (sufferer, evictor)
            matrix[pair] = matrix.get(pair, 0) + 1
        ck = (sufferer, self.family, cause)
        counts[ck] = counts.get(ck, 0) + 1

    def replay(self, miss_keys, victims) -> None:
        """Bulk-classify one batch: every key of *miss_keys* missed in
        order, and the last ``len(victims)`` misses each evicted the
        corresponding entry of *victims* (a full cache stays full, so
        evictions align with the tail of the miss sequence).

        Bit-identical to the per-event hook order — classify each miss,
        then record the eviction that miss caused. Both batched feeders
        (:meth:`~repro.paging.cache.PageCache.access_many` and the array
        engine's kernel replay) route through here, so the engines cannot
        drift apart.
        """
        first_evt = len(miss_keys) - len(victims)
        if self.probe.asid_stride:
            miss = self.miss
            evicted = self.evicted
            for j, key in enumerate(miss_keys):
                miss(key)
                e = j - first_evt
                if e >= 0:
                    evicted(victims[e], key)
            return
        # single-tenant fast path: sufferer/evictor are always ASID 0, so
        # the loops run on hoisted dict primitives with shared tag tuples,
        # tally per-reason counts in a local list, and fold every dict bump
        # in once at the end (the counters are plain sums, so the batch
        # fold equals the per-event bumps)
        pop = self._pop
        tags = self._tags
        cap = self.cap
        cold = 0
        reasons = [0, 0, 0, 0]
        for key in miss_keys[:first_evt]:
            tag = pop(key, None)
            if tag is None:
                cold += 1
            else:
                reasons[tag[0]] += 1
        for key, victim in zip(miss_keys[first_evt:], victims):
            tag = pop(key, None)
            if tag is None:
                cold += 1
            else:
                reasons[tag[0]] += 1
            pop(victim, None)  # re-tag refreshes FIFO position
            tags[victim] = _CAPACITY_TAG
            if len(tags) > cap:
                del tags[next(iter(tags))]
        counts = self._counts
        if cold:
            ck = self._cold_key
            counts[ck] = counts.get(ck, 0) + cold
        attributed = 0
        for reason, n in enumerate(reasons):
            if n:
                ck = self._single_keys[reason]
                counts[ck] = counts.get(ck, 0) + n
                attributed += n
        if attributed:
            matrix = self._matrix
            matrix[_ORIGIN] = matrix.get(_ORIGIN, 0) + attributed

    def evicted(self, victim, incoming) -> None:
        """Record a capacity eviction: *incoming*'s owner displaced *victim*."""
        tags = self._tags
        self._pop(victim, None)  # re-tag refreshes FIFO position
        # stride 0: the evictor page is never consulted — share one tag
        tags[victim] = (
            (REASON_CAPACITY, self.page_of(incoming))
            if self.probe.asid_stride
            else _CAPACITY_TAG
        )
        if len(tags) > self.cap:
            del tags[next(iter(tags))]

    def invalidated(self, key, reason: int | None = None) -> None:
        """Record an invalidation of *key* (shootdown / remap / promotion).

        *reason* defaults to the probe's current ``shootdown_reason`` —
        :class:`~repro.tenancy.MultiTenantSim` points it at ``REASON_REMAP``
        around φ-change shootdowns and back at ``REASON_SHOOTDOWN``
        otherwise.
        """
        probe = self.probe
        if reason is None:
            reason = probe.shootdown_reason
        tags = self._tags
        tags.pop(key, None)
        tags[key] = (reason, self.page_of(key) if probe.asid_stride else 0)
        if len(tags) > self.cap:
            del tags[next(iter(tags))]


class AttributionProbe(Probe):
    """Batch-safe probe collecting miss causes and tenant interference.

    Attach with :meth:`observe`, which installs one :class:`_SiteGhost` per
    structure the algorithm exposes via
    :meth:`~repro.mmu.base.MemoryManagementAlgorithm.attribution_sites`;
    both engines feed those ghosts the same miss and eviction sequence.

    The probe may also be installed as ``mm.probe`` (e.g. by the hot-loop
    harness): it is ``batch_safe`` with a no-op :meth:`on_batch`, so every
    vectorized fast path stays enabled and classification still flows
    through the ghosts.

    Parameters
    ----------
    ghost_capacity:
        FIFO bound on each ghost list. Tags older than the bound degrade to
        ``cold`` — with the default (64k entries per site) this never fires
        on the committed workloads.
    """

    __slots__ = (
        "counts",
        "matrix",
        "asid_stride",
        "ghost_capacity",
        "shootdown_reason",
        "_ghosts",
    )

    batch_safe = True

    def __init__(self, *, ghost_capacity: int = 65536) -> None:
        self.ghost_capacity = check_positive_int(ghost_capacity, "ghost_capacity")
        self.counts: dict[tuple[int, str, str], int] = {}
        self.matrix: dict[tuple[int, int], int] = {}
        self.asid_stride = 0
        self.shootdown_reason = REASON_SHOOTDOWN
        self._ghosts: tuple = ()

    # -------------------------------------------------------------- lifecycle

    def observe(self, mm, stride: int | None = None) -> "AttributionProbe":
        """Install ghosts on *mm*'s eviction sites; return self.

        *mm* may be a :class:`~repro.check.ValidatingMM` wrapper — the
        ghosts land on the wrapped algorithm's real structures either way.
        *stride* is the ASID page stride (defaults to the machine's
        ``asid_stride`` from :meth:`bind_asid_space`; 0 means single-tenant).
        """
        target = getattr(mm, "inner", None)
        if target is None:
            target = mm
        sites = target.attribution_sites()
        if not sites:
            raise ValueError(
                f"algorithm {getattr(target, 'name', target)!r} exposes no "
                "attribution sites"
            )
        if stride is None:
            stride = getattr(target, "asid_stride", 0) or 0
        self.asid_stride = int(stride)
        ghosts = []
        for family, struct, page_of in sites:
            ghost = _SiteGhost(self, family, page_of, self.ghost_capacity)
            struct._ghost = ghost
            ghosts.append((struct, ghost))
        self._ghosts = tuple(ghosts)
        return self

    def detach(self) -> None:
        """Remove this probe's ghosts from the structures it observes."""
        for struct, ghost in self._ghosts:
            if getattr(struct, "_ghost", None) is ghost:
                struct._ghost = None
        self._ghosts = ()

    def reset(self) -> None:
        """Zero the collected counters; ghost tags persist (caches stay warm).

        Clears in place — the installed ghosts hold bound references to
        these dicts, so rebinding would silently disconnect them.
        """
        self.counts.clear()
        self.matrix.clear()

    def on_phase(self, t: int, name: str) -> None:
        if name == "measure":
            self.reset()

    # counts flow through the ghosts, not the batch callback — the no-op
    # keeps every batched/vectorized run path enabled.
    def on_batch(self, t0, vpns, ledger, before) -> None:  # noqa: D102
        pass

    # -------------------------------------------------------------- summaries

    def cause_totals(self, family: str | None = None) -> dict[str, int]:
        """Per-cause totals over every ASID (optionally one *family*)."""
        out = {c: 0 for c in CAUSES}
        for (_asid, fam, cause), n in self.counts.items():
            if family is None or fam == family:
                out[cause] += n
        return out

    def family_total(self, family: str) -> int:
        """Every classified miss of *family* — the conservation left side."""
        return sum(
            n for (_asid, fam, _cause), n in self.counts.items() if fam == family
        )

    def attrib_counters(self) -> dict[str, int]:
        """Flat snapshot counters: ``attrib:{family}:{cause}`` (+ matrix)."""
        out: dict[str, int] = {}
        for (_asid, fam, cause), n in self.counts.items():
            key = f"{ATTRIB_PREFIX}{fam}:{cause}"
            out[key] = out.get(key, 0) + n
        for (suf, ev), n in self.matrix.items():
            key = f"{INTERF_PREFIX}{suf}:{ev}"
            out[key] = out.get(key, 0) + n
        return out

    def tenant_counters(self, asid: int) -> dict[str, int]:
        """The flat counters restricted to sufferer *asid* (per-tenant rows)."""
        out: dict[str, int] = {}
        for (a, fam, cause), n in self.counts.items():
            if a == asid:
                key = f"{ATTRIB_PREFIX}{fam}:{cause}"
                out[key] = out.get(key, 0) + n
        for (suf, ev), n in self.matrix.items():
            if suf == asid:
                out[f"{INTERF_PREFIX}{suf}:{ev}"] = n
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        classified = sum(self.counts.values())
        return (
            f"<AttributionProbe sites={len(self._ghosts)} "
            f"classified={classified} stride={self.asid_stride}>"
        )
