"""Memory-management algorithm interface (paper Section 5).

A memory-management algorithm controls the TLB contents ``T``, the RAM
active set ``A``, the decoding function ``f``, and the virtual→physical map
``φ``, and services a stream of virtual-page requests, accumulating costs in
a :class:`~repro.core.model.CostLedger`. Concrete algorithms — base-page,
physical-huge-page, decoupled (``Z``), hybrid — live in sibling modules and
are interchangeable inside :mod:`repro.sim`.

Every algorithm carries an optional :class:`~repro.obs.events.Probe`
(``NULL_PROBE`` by default). :meth:`MemoryManagementAlgorithm.run` is the
one dispatch point and holds the one piece loop: it cuts every segment
into equal pieces of at most ``_PIECE`` accesses, so the memory of a
replay is bounded by the piece size on every path, whatever the segment
length. A probe that needs per-access events gets an instrumented loop
deriving typed events (``access``, ``tlb_miss``, ``io``, ``eviction``,
``decoding_miss``) from per-access ledger deltas, so all algorithms are
observable without touching their ``access`` implementations; everything
else replays piece by piece through the array engine (the default, for
pieces at least as long as the class's floor) or the object engine's
``_run_batch`` (the ``access`` loop).  Either way an attached probe gets
one ``on_batch`` flush per segment, so batch-safe probes see every access
even next to a per-access one.

**ASID access contract.** Multi-tenant simulation (:mod:`repro.tenancy`)
shares one algorithm instance between address spaces. The contract is
address-space striding: :meth:`bind_asid_space` carves the virtual space
into power-of-two slices of ``asid_stride`` base pages (at least one
translation unit each, see :meth:`translation_alignment`), and
:meth:`run_asid` / :meth:`access_asid` service tenant-local page numbers
offset into slice ``asid``. Because slices are aligned to the algorithm's
translation coverage, every TLB unit number encodes ``(asid, local unit)``
exactly like a hardware ASID tag — no entry can straddle tenants, and
ASID 0 is the identity mapping (``run_asid(0, t) == run(t)`` bit for bit).
:meth:`shootdown` invalidates the TLB entries covering a page range
(tenant exit, φ change); it is TLB-only and free in the cost model, like
a hardware invalidation IPI. With :attr:`~MemoryManagementAlgorithm.asid_ledgers`
bound, :meth:`run` also credits every access's counters to the ledger of
ASID ``key // asid_stride``, so one call may serve a stream that
interleaves several address spaces and still account them apart.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._util import as_int_list, next_power_of_two
from ..core import CostLedger
from ..obs.events import NULL_PROBE, Probe

__all__ = ["MemoryManagementAlgorithm", "MMInspector", "as_int_list"]

#: The ceiling of every piece, in accesses: the longest stretch
#: :meth:`MemoryManagementAlgorithm.run` hands either engine at once.  The
#: object engine materializes its piece as Python ints (about 40 bytes an
#: access), and an array-engine kernel's dominance grid grows with the
#: square of its length.
_PIECE = 1 << 14


class MMInspector:
    """Read-through state-inspection surface for the invariant oracle.

    :mod:`repro.check` drives this interface to cross-validate an
    algorithm's bookkeeping against the paper's structural invariants
    (Sections 2–3: ``T``, ``A``, ``φ``, ``f``). Every query reads *live*
    MM state — an inspector is built once per run, not per access.

    The base class models nothing: a ``None`` return (or a ``None``
    capacity) marks the facet "not modeled by this algorithm", and the
    oracle skips the corresponding invariant instead of failing. Each
    algorithm overrides :meth:`MemoryManagementAlgorithm.inspector` to
    return a subclass exposing whatever structure it really maintains.
    """

    #: TLB capacity ``ℓ`` in entries (None = unbounded/unmodeled).
    tlb_capacity: int | None = None
    #: RAM capacity in *base pages* (``P``, or ``(1−δ)P·h`` for decoupled
    #: schemes whose replacement units cover several pages).
    ram_page_capacity: int | None = None
    #: every per-access IO delta must be a multiple of this (h, io_unit, …).
    io_quantum: int = 1
    #: hard per-access IO ceiling, when the algorithm has one.
    max_io_per_access: int | None = None

    def __init__(self, mm: "MemoryManagementAlgorithm") -> None:
        self.mm = mm

    # ------------------------------------------------------------ occupancy

    def tlb_entries(self) -> int | None:
        """Resident TLB entries ``|T|``."""
        return None

    def ram_pages_resident(self) -> int | None:
        """Base pages currently held by the active set ``A``."""
        return None

    def evictions(self) -> int:
        """Monotone count of active-set evictions."""
        return self.mm._eviction_count()

    # ------------------------------------------------ per-page translation

    def tlb_covers(self, vpn: int) -> bool | None:
        """Is the TLB unit covering *vpn* resident (``r(v) ∈ T``)?"""
        return None

    def models_placement(self) -> bool:
        """Does this algorithm maintain an explicit ``(φ, f)`` pair?"""
        return False

    def frame_of(self, vpn: int) -> int | None:
        """``φ(v)`` — the frame backing *vpn* (None: unplaced/unmodeled)."""
        return None

    def decode(self, vpn: int) -> int | None:
        """``f(v, ψ(r(v)))`` through the *stored* encoding (None = −1)."""
        return None

    def is_failed(self, vpn: int) -> bool:
        """Is *vpn* in the failure set ``F``?"""
        return False

    # ------------------------------------------------------------ structure

    def bucket_occupancy(self) -> tuple[int, int] | None:
        """``(max bucket load, bucket capacity B)`` for bucketed allocators."""
        return None

    def bucket_loads(self):
        """Current per-bucket load vector for bucketed allocators (an int
        sequence, one entry per bucket), or None when the algorithm has no
        bucketed placement. Feeds the ``bucket_load`` histogram of
        :class:`~repro.obs.snapshot.ObsSnapshot` — the Theorems 1–2 load
        tail as a distribution rather than a max."""
        return None

    def translation_spans(self):
        """Base-page ranges ``(lo, hi)`` covered by the resident TLB entries.

        One half-open range per resident translation unit, order
        unspecified; None when the algorithm exposes no enumerable TLB
        surface (the oracle then skips the ASID-coverage rule). Feeds
        :meth:`~repro.check.InvariantOracle.check_asid_coverage`: under the
        striding contract every span must lie wholly inside one live
        tenant's slice."""
        return None

    def deep_check(self) -> None:
        """Full structural self-check; raises AssertionError on breakage."""


class MemoryManagementAlgorithm(ABC):
    """Services virtual-page requests under the address-translation model."""

    #: short registry name, set by subclasses.
    name: str = "abstract"

    def __init__(self) -> None:
        self.ledger = CostLedger()
        #: simulation engine: ``"array"`` (the default) offers each
        #: piece at least as long as the class's floor to the
        #: struct-of-arrays batch engine (:mod:`repro.mmu.array_engine`)
        #: and replays the rest on the object engine, as it does whatever
        #: no batch handler takes (no handler for the exact class, non-LRU
        #: policy, pending paging failures); ``"object"`` replays every
        #: piece on the object engine, the reference parity tests force.
        self.engine: str = "array"
        #: observer of this algorithm's events; NULL_PROBE means unobserved.
        self.probe: Probe = NULL_PROBE
        #: extra-counter defaults re-seeded after every reset_stats();
        #: subclasses that keep algorithm-specific counters in
        #: ``ledger.extra`` register them here.
        self._extra_defaults: dict = {}
        #: base pages per ASID slice, set by :meth:`bind_asid_space`
        #: (None until an address-space layout is bound).
        self.asid_stride: int | None = None
        #: per-ASID ledgers :meth:`run` credits each access to (index
        #: ``key // asid_stride``), on top of :attr:`ledger`. The
        #: multi-tenant simulator binds its tenants' ledgers for the length of
        #: a run; None means no per-ASID accounting.
        self.asid_ledgers: list[CostLedger] | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        # a batch hook replays its own class's access semantics, so a
        # subclass that redefines access without a hook of its own gets
        # the per-access reference loop back
        super().__init_subclass__(**kwargs)
        if "access" in vars(cls) and "_run_batch" not in vars(cls):
            cls._run_batch = MemoryManagementAlgorithm._run_batch

    @abstractmethod
    def access(self, vpn: int) -> None:
        """Service one virtual-page request, charging costs to the ledger."""

    # ------------------------------------------------------- asid contract

    def translation_alignment(self) -> int:
        """Base pages covered by one TLB entry (a power of two).

        ASID slices are aligned to this so no translation unit can straddle
        two tenants; subclasses with huge-page coverage override it.
        """
        return 1

    def bind_asid_space(self, va_pages: int) -> int:
        """Carve the virtual space into ASID slices of *va_pages* or more.

        The stride is the smallest power of two ≥ ``max(va_pages,
        translation_alignment())``, so slice boundaries align with TLB
        units and the vpn→unit shift maps ``asid·stride + v`` to a
        ``(asid, local unit)`` pair, exactly like a tagged TLB. Rebinding
        with the same resulting stride is a no-op; changing the stride of a
        populated address space would silently re-tag live entries, so it
        raises ValueError instead.
        """
        if va_pages < 1:
            raise ValueError(f"va_pages must be positive, got {va_pages}")
        stride = next_power_of_two(max(int(va_pages), self.translation_alignment()))
        if self.asid_stride is not None and self.asid_stride != stride:
            raise ValueError(
                f"asid stride already bound to {self.asid_stride}; "
                f"rebinding to {stride} would re-tag live translations"
            )
        self.asid_stride = stride
        return stride

    def _asid_base(self, asid: int) -> int:
        if self.asid_stride is None:
            raise RuntimeError("call bind_asid_space() before ASID-tagged access")
        if asid < 0:
            raise ValueError(f"asid must be non-negative, got {asid}")
        return asid * self.asid_stride

    def access_asid(self, asid: int, vpn: int) -> None:
        """Service tenant-local page *vpn* inside address space *asid*."""
        self.access(self._asid_base(asid) + vpn)

    def run_asid(self, asid: int, trace) -> CostLedger:
        """Service a tenant-local *trace* inside address space *asid*.

        ASID 0 is the identity mapping: the trace is handed to :meth:`run`
        untouched, so a single tenant bound at ASID 0 is bit-identical to
        a plain single-address-space replay. Other ASIDs shift the trace
        into their slice (one vectorized add for numpy traces), keeping
        every batch hook engaged.
        """
        base = self._asid_base(asid)
        if base == 0:
            return self.run(trace)
        if hasattr(trace, "dtype"):
            return self.run(trace + base)
        return self.run([vpn + base for vpn in as_int_list(trace)])

    def shootdown(self, lo: int, hi: int) -> int:
        """Invalidate every TLB entry intersecting base pages ``[lo, hi)``.

        Returns the number of entries dropped. TLB-only, like a hardware
        shootdown IPI: RAM residency is untouched (stale frames age out via
        normal replacement) and no cost is charged (invalidation is free in
        the AT model — only re-filling costs ε, which the subsequent misses
        account). Subclasses override; the base class models no TLB.
        """
        raise NotImplementedError(f"{self.name} does not model TLB shootdowns")

    def shootdown_asid(self, asid: int) -> int:
        """Shoot down every TLB entry in *asid*'s slice (tenant exit)."""
        base = self._asid_base(asid)
        return self.shootdown(base, base + self.asid_stride)

    # -------------------------------------------------- eviction provenance

    def attribution_sites(self) -> tuple:
        """The structures miss attribution instruments, as ``(family,
        structure, page_of)`` triples.

        *family* names the structure in attribution counters (``"tlb"`` /
        ``"ram"``), *structure* is the :class:`~repro.paging.PageCache`
        carrying the ``_ghost`` slot, and *page_of(key)* maps the
        structure's keys back to global base-page numbers (so
        ``page_of(key) // asid_stride`` recovers the owning ASID). The
        base class exposes nothing — algorithms with
        instrumentable caches override this, and
        :meth:`~repro.obs.attribution.AttributionProbe.observe` raises on
        an empty result rather than silently counting nothing.
        """
        return ()

    def run(self, trace) -> CostLedger:
        """Service every request in *trace*; return this algorithm's ledger.

        The one dispatch point. The trace is one segment, or
        ``batch_interval``-access segments when the attached probe asks for
        them, and each segment is cut into equal pieces of at most
        ``_PIECE`` accesses. A probe that is not batch-safe gets the
        per-access event replay (:meth:`_run_probed`) of every piece.
        Otherwise, with ``engine == "array"``, a piece at least as long as
        its class's floor (``array_engine._FLOORS``) is offered to the
        array engine; a shorter piece, one the engine declines, and the
        rest of a piece after a paging failure run through
        :meth:`_run_batch`, and the next piece is offered again. On both
        paths an attached probe receives exactly one ``on_batch`` flush
        per segment, after that segment's per-access events. With
        :attr:`asid_ledgers` bound, the array engine credits them per
        access and the object paths per same-ASID stretch
        (:meth:`_replay_credited`). Counters and deep state are
        bit-identical on every path.
        """
        probe = self.probe
        observed = probe.enabled
        replay = self._run_batch
        engine = None
        if observed and not probe.batch_safe:
            replay = self._run_probed
        elif self.engine == "array":
            # imported here: its handler table imports the algorithm
            # classes, which import this module
            from . import array_engine as engine

            # a class without a handler gets floor 0: try_run declines it
            floor = engine._FLOORS.get(type(self), 0)
        interval = probe.batch_interval if observed else None
        if interval is None:
            segments = (trace,)
        else:
            segments = (trace[i : i + interval] for i in range(0, len(trace), interval))
        ledger = self.ledger
        for segment in segments:
            if observed:
                t0 = ledger.accesses
                before = ledger.snapshot()
            n = len(segment)
            pieces = -(-n // _PIECE)
            for k in range(pieces):
                piece = segment[k * n // pieces : (k + 1) * n // pieces]
                done = 0
                if engine is not None and len(piece) >= floor:
                    done = engine.try_run(self, piece) or 0
                if done < len(piece):
                    self._replay_credited(replay, piece[done:] if done else piece)
            if observed:
                probe.on_batch(t0, segment, ledger, before)
        return ledger

    def _replay_credited(self, replay, trace) -> None:
        """``replay(trace)`` on the object engine, crediting
        :attr:`asid_ledgers` when bound: *replay* then runs once per
        maximal same-ASID stretch of *trace*, and each stretch's ledger
        delta goes to its ASID."""
        credit = self.asid_ledgers
        if credit is None or not len(trace):
            replay(trace)
            return
        asids = np.asarray(trace, dtype=np.int64) // self.asid_stride
        ends = [i + 1 for i in (asids[1:] != asids[:-1]).nonzero()[0].tolist()]
        ends.append(len(asids))
        ledger = self.ledger
        lo = 0
        for hi in ends:
            before = ledger.snapshot()
            replay(trace[lo:hi])
            after = ledger.snapshot()
            target = credit[int(asids[lo])]
            target.accesses += after[0] - before[0]
            target.ios += after[1] - before[1]
            target.tlb_misses += after[2] - before[2]
            target.tlb_hits += after[3] - before[3]
            target.decoding_misses += after[4] - before[4]
            target.paging_failures += after[5] - before[5]
            lo = hi

    def _run_batch(self, trace) -> None:
        """Replay one piece on the object engine: the batch hook.

        The body is the per-access reference loop. The piece is
        materialized as plain Python ints once (:func:`as_int_list`), so
        ``access`` implementations may assume exact ints and skip
        per-element ``int()`` boxing — the hot-loop contract documented
        in ``docs/API.md``. The one override is
        :class:`~repro.mmu.hugepage.PhysicalHugePageMM`'s, which replays
        the TLB and RAM through ``PageCache.access_many`` with
        bit-identical counters and state; a subclass that redefines
        ``access`` falls back to this loop (``__init_subclass__``).
        """
        access = self.access
        for vpn in as_int_list(trace):
            access(vpn)

    def _run_probed(self, trace) -> CostLedger:
        """The observed replay: emit typed events from per-access ledger
        deltas. ``t`` is the access index within the current phase (i.e.
        ``ledger.accesses`` at the moment the request was serviced)."""
        ledger = self.ledger
        probe = self.probe
        access = self.access
        evictions = self._eviction_count
        for vpn in as_int_list(trace):
            misses0 = ledger.tlb_misses
            ios0 = ledger.ios
            dmisses0 = ledger.decoding_misses
            ev0 = evictions()
            access(vpn)
            t = ledger.accesses - 1
            probe.on_access(t, vpn)
            if ledger.tlb_misses != misses0:
                probe.on_tlb_miss(t, vpn)
            if ledger.ios != ios0:
                probe.on_io(t, vpn, ledger.ios - ios0)
            if ledger.decoding_misses != dmisses0:
                probe.on_decoding_miss(t, vpn)
            ev = evictions()
            if ev != ev0:
                probe.on_eviction(t, ev - ev0)
        return self.ledger

    def _eviction_count(self) -> int:
        """Monotone count of active-set evictions, for probe derivation.

        Subclasses whose RAM is a counting cache override this; the default
        (0) simply suppresses ``eviction`` events.
        """
        return 0

    def inspector(self) -> MMInspector:
        """The state-inspection surface :mod:`repro.check` validates through.

        The base surface models nothing (the oracle then only checks
        per-access ledger coherence); subclasses return a specialized
        :class:`MMInspector` exposing their ``T``/``A``/``φ``/``f`` state.
        """
        return MMInspector(self)

    def reset_stats(self) -> None:
        """Zero the ledger (the Section 6 warm-up/measure boundary); caches
        and mappings keep their state."""
        self.ledger.reset()
        self.ledger.extra.update(self._extra_defaults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} {self.ledger.as_dict()}>"
