"""Transparent-huge-page (THP) style memory management — the Section 7
systems baseline.

Linux THP, Ingens, and HawkEye all follow the same scheme the paper
critiques: run on base pages, *promote* a huge-page region to a physically
contiguous huge page once it is sufficiently utilized, and fall back to
base pages when no contiguous run exists. This model reproduces the three
costs the paper attributes to physical huge pages, mechanistically:

1. **page-fault amplification** — promotion fetches the region's missing
   base pages, and an evicted huge unit refaults page by page;
2. **reduced RAM utilization** — a promoted region pins ``h`` frames even
   if only a fraction is hot;
3. **fragmentation** — promotion requires an *aligned free run* in
   :class:`~repro.sim.memory.PhysicalMemory` without evicting anything
   (kernels do not flush RAM to build huge pages); mixed allocation
   traffic fragments the frame space and promotions start failing,
   exactly like Linux's THP allocation failures.

Replacement is LRU over *mapping units* (a base page or a promoted huge
page); evicting a huge unit drops all ``h`` pages at once.
"""

from __future__ import annotations

from .._util import check_positive_int, is_power_of_two
from ..obs.attribution import REASON_PROMOTION as _REASON_PROMOTION
from ..paging import LRUPolicy, PageCache
from ..sim.memory import OutOfMemoryError, PhysicalMemory
from .base import MemoryManagementAlgorithm, MMInspector

__all__ = ["THPStyleMM"]

_BASE = 0  # unit-key tags
_HUGE = 1


class _THPInspector(MMInspector):
    """Oracle surface for promotion-based management: a real frame space
    bounds the active set; mapping units (base or promoted) fill the TLB."""

    def __init__(self, mm: "THPStyleMM") -> None:
        super().__init__(mm)
        self.tlb_capacity = mm.tlb.capacity
        self.ram_page_capacity = mm.memory.frames
        self._seen_promotions = mm.ledger.extra["promotions"]

    def tlb_entries(self) -> int:
        return len(self.mm.tlb)

    def ram_pages_resident(self) -> int:
        return self.mm.resident_pages

    def tlb_covers(self, vpn: int) -> bool | None:
        mm = self.mm
        # called once per access, so comparing the promotions counter to the
        # value at the previous call isolates "a promotion happened on THIS
        # access" without touching the model
        promotions = mm.ledger.extra["promotions"]
        promoted_now = promotions != self._seen_promotions
        self._seen_promotions = promotions
        region = vpn // mm.h
        unit = (_HUGE, region) if region in mm._promoted else (_BASE, vpn)
        if unit in mm.tlb:
            return True
        # a promotion during this very access drops the triggering page's
        # base entry without installing the huge one (as after a
        # khugepaged-style collapse, whose TLB flush makes the next touch
        # re-fault) — the only access whose coverage is legitimately void
        return None if promoted_now else False

    def translation_spans(self):
        h = self.mm.h
        return [
            (key * h, (key + 1) * h) if kind == _HUGE else (key, key + 1)
            for kind, key in self.mm.tlb.resident()
        ]

    def deep_check(self) -> None:
        self.mm.check_invariants()
        self.mm.tlb.check_invariants()


class THPStyleMM(MemoryManagementAlgorithm):
    """Promotion-based huge-page management over a real frame allocator.

    Parameters
    ----------
    tlb_entries:
        ``ℓ``; one entry per mapping unit (base page or promoted region).
    ram_pages:
        Physical frames ``P``.
    huge_page_size:
        Promotion granularity ``h`` (power of two).
    promote_utilization:
        Fraction of a region's ``h`` pages that must be resident to
        trigger promotion (Ingens-style utilization threshold; Linux THP's
        fault-time allocation corresponds to a threshold near 0).
    """

    name = "thp"

    def __init__(
        self,
        tlb_entries: int,
        ram_pages: int,
        huge_page_size: int = 64,
        promote_utilization: float = 0.9,
    ) -> None:
        super().__init__()
        check_positive_int(tlb_entries, "tlb_entries")
        check_positive_int(ram_pages, "ram_pages")
        h = check_positive_int(huge_page_size, "huge_page_size")
        if not is_power_of_two(h):
            raise ValueError(f"huge_page_size must be a power of two, got {h}")
        if ram_pages < h:
            raise ValueError("RAM must hold at least one huge page")
        if not (0.0 < promote_utilization <= 1.0):
            raise ValueError(
                f"promote_utilization must be in (0, 1], got {promote_utilization}"
            )
        self.h = h
        self.promote_threshold = max(1, int(promote_utilization * h))
        self.memory = PhysicalMemory(ram_pages)
        self.tlb = PageCache(tlb_entries, LRUPolicy())
        # LRU over unit keys; capacity in *units* can never exceed frames.
        self._lru = LRUPolicy()
        self._frame_of: dict[tuple[int, int], int] = {}  # unit key -> start frame
        self._resident_in_region: dict[int, set[int]] = {}  # region -> base vpns
        self._promoted: set[int] = set()
        self._extra_defaults = dict(
            promotions=0, promotion_failures=0, demotions=0, migrations=0
        )
        self.ledger.extra.update(self._extra_defaults)
        self._evicted_units = 0

    # ------------------------------------------------------------------ api

    def access(self, vpn: int) -> None:
        ledger = self.ledger
        ledger.accesses += 1
        region = vpn // self.h
        promoted = region in self._promoted
        unit = (_HUGE, region) if promoted else (_BASE, vpn)

        if self.tlb.access(unit):
            ledger.tlb_hits += 1
        else:
            ledger.tlb_misses += 1

        if self._lru.touch(unit, ledger.accesses):
            return

        # fault path — by construction only base units can be non-resident
        # (region ∈ promoted ⟺ its huge unit is resident).
        assert not promoted
        frame = self._allocate_evicting(1, 1, evictor=unit)
        self._lru.insert(unit, ledger.accesses)
        self._frame_of[unit] = frame
        self._resident_in_region.setdefault(region, set()).add(vpn)
        ledger.ios += 1

        # attempt promotion when the region *crosses* the threshold (and
        # again if it fills completely) — retrying on every subsequent
        # fault would thrash the allocator, which kernels avoid with
        # deferred/khugepaged-style batching.
        count = len(self._resident_in_region[region])
        if count == self.promote_threshold or count == self.h:
            self._try_promote(region)

    # ------------------------------------------------------------ internals

    def _allocate_evicting(self, n: int, align: int, evictor=None) -> int:
        """Allocate frames for a faulting page, evicting LRU units as needed.

        *evictor* is the faulting unit, threaded through so miss attribution
        can blame the TLB-collateral drop of each released unit on the
        address space whose fault forced it out.
        """
        while True:
            try:
                return self.memory.allocate(n, align)
            except OutOfMemoryError:
                if len(self._lru) == 0:
                    raise
                self._evicted_units += 1
                self._release_unit(self._lru.evict(), evictor=evictor)

    def _release_unit(self, unit: tuple[int, int], evictor=None) -> None:
        """Free the unit's frames and bookkeeping (post-eviction)."""
        kind, key = unit
        frame = self._frame_of.pop(unit)
        self.memory.free(frame)
        if unit in self.tlb:
            ghost = self.tlb._ghost
            if ghost is not None:
                if evictor is not None:
                    # RAM pressure dropped the unit's translation with it
                    ghost.evicted(unit, evictor)
                else:
                    ghost.invalidated(unit)
            self.tlb.remove(unit)
        if kind == _HUGE:
            self._promoted.discard(key)
            self._resident_in_region.pop(key, None)
            self.ledger.extra["demotions"] += 1
        else:
            region = key // self.h
            live = self._resident_in_region.get(region)
            if live is not None:
                live.discard(key)
                if not live:
                    del self._resident_in_region[region]

    def _try_promote(self, region: int) -> None:
        """Coalesce *region* into a physical huge page if a free aligned run
        exists; otherwise count a fragmentation failure (no eviction —
        kernels do not flush RAM to build huge pages)."""
        ledger = self.ledger
        resident = self._resident_in_region[region]
        # the region's own frames come back; free them first so the run
        # search sees the truth (a real kernel migrates, which is what the
        # in-RAM copy models), then roll back if no run exists.
        freed: list[tuple[tuple[int, int], int]] = []
        for vpn in list(resident):
            base_unit = (_BASE, vpn)
            frame = self._frame_of.pop(base_unit)
            self.memory.free(frame)
            freed.append((base_unit, frame))
        try:
            start = self.memory.allocate(self.h, align=self.h)
        except OutOfMemoryError:
            # fragmentation defeat: restore the base mappings untouched
            for base_unit, frame in freed:
                got = self.memory.allocate(1, 1)
                # the exact frame may differ; the mapping stays consistent
                self._frame_of[base_unit] = got
            ledger.extra["promotion_failures"] += 1
            return
        # promotion succeeds: migrate residents, fetch the missing pages
        ledger.extra["migrations"] += len(freed)
        ledger.ios += self.h - len(freed)
        ghost = self.tlb._ghost
        for base_unit, _ in freed:
            self._lru.remove(base_unit)
            if base_unit in self.tlb:
                if ghost is not None:
                    ghost.invalidated(base_unit, _REASON_PROMOTION)
                self.tlb.remove(base_unit)
        unit = (_HUGE, region)
        if ghost is not None:
            # no TLB entry is installed for the collapsed region (the
            # khugepaged-style flush), so its next touch re-faults — tag it
            ghost.invalidated(unit, _REASON_PROMOTION)
        self._frame_of[unit] = start
        self._promoted.add(region)
        self._resident_in_region[region] = set(
            range(region * self.h, (region + 1) * self.h)
        )
        self._lru.insert(unit, ledger.accesses)
        ledger.extra["promotions"] += 1

    def translation_alignment(self) -> int:
        return self.h

    def attribution_sites(self) -> tuple:
        h = self.h

        def page_of(unit, _h=h):
            kind, key = unit
            return key * _h if kind == _HUGE else key

        return (("tlb", self.tlb, page_of),)

    def shootdown(self, lo: int, hi: int) -> int:
        h = self.h
        victims = []
        for unit in self.tlb.resident():
            kind, key = unit
            span_lo, span_hi = (
                (key * h, (key + 1) * h) if kind == _HUGE else (key, key + 1)
            )
            if span_lo < hi and span_hi > lo:
                victims.append(unit)
        ghost = self.tlb._ghost
        for unit in victims:
            if ghost is not None:
                ghost.invalidated(unit)
            self.tlb.remove(unit)
        return len(victims)

    # ------------------------------------------------------------ diagnostics

    def _eviction_count(self) -> int:
        return self._evicted_units

    def inspector(self) -> MMInspector:
        return _THPInspector(self)

    @property
    def promoted_regions(self) -> int:
        return len(self._promoted)

    @property
    def resident_pages(self) -> int:
        """Frames in use (huge units count all h of their frames)."""
        return self.memory.frames - self.memory.free_frames

    @property
    def fragmentation(self) -> float:
        """Current external fragmentation of the frame space."""
        return self.memory.external_fragmentation()

    def check_invariants(self) -> None:
        """Assert the bookkeeping is self-consistent (test/debug helper).

        * frames in use = Σ sizes of live mapping units;
        * every promoted region has a huge unit and vice versa;
        * resident base pages per region match live base units;
        * every live unit is tracked by the replacement policy.
        """
        used = self.memory.frames - self.memory.free_frames
        unit_frames = sum(
            self.h if kind == _HUGE else 1 for (kind, _key) in self._frame_of
        )
        assert used == unit_frames, f"frame leak: {used} used vs {unit_frames} mapped"
        for unit in self._frame_of:
            assert unit in self._lru, f"unit {unit} not tracked by LRU"
        assert len(self._frame_of) == len(self._lru)
        huge_units = {key for (kind, key) in self._frame_of if kind == _HUGE}
        assert huge_units == self._promoted
        for region, pages in self._resident_in_region.items():
            assert pages, f"empty resident set kept for region {region}"
            if region in self._promoted:
                assert len(pages) == self.h
            else:
                for vpn in pages:
                    assert (_BASE, vpn) in self._frame_of
