"""Nested (virtualized) address translation — the intro's "squared" miss cost.

Under virtualization every guest memory reference undergoes two
translations: guest-virtual → guest-physical (the guest's page table) and
guest-physical → host-physical (the host's). Hardware caches the *combined*
translation in the regular TLB, but a miss triggers a two-dimensional walk:
each of the guest's ``L_g`` page-table reads is itself a guest-physical
address that the host must translate — ``(L_g+1)(L_h+1) − 1`` memory
touches in the worst case. A host-side *nested TLB* (caching
guest-physical → host-physical for page-table pages) absorbs most of the
blow-up in practice; this model measures how much survives.

The model reports the **effective ε multiplier** — mean memory touches per
guest-TLB miss relative to a native walk — which is exactly the factor by
which virtualization scales the paper's ε, and hence scales the value of
every TLB miss that huge pages or decoupling eliminate.
"""

from __future__ import annotations

from .._util import check_positive_int
from ..paging import LRUPolicy, PageCache
from .base import MMInspector
from .hugepage import PhysicalHugePageMM, _PhysicalInspector

__all__ = ["NestedTranslationMM"]


class _NestedInspector(_PhysicalInspector):
    """Physical-huge-page surface (the combined TLB and host RAM) plus the
    nested TLB's own structural check."""

    def deep_check(self) -> None:
        super().deep_check()
        self.mm.nested_tlb.check_invariants()


class NestedTranslationMM(PhysicalHugePageMM):
    """Trace-driven model of two-dimensional translation.

    The combined TLB and the host RAM are the Section 6 simulator's
    (:class:`~repro.mmu.hugepage.PhysicalHugePageMM`); a combined-TLB miss
    additionally pays the nested walk. The nested TLB is deliberately left
    out of miss attribution: its misses charge ledger extras
    (``host_tlb_misses``), not the ``tlb_misses`` counter the conservation
    pins sum against.

    Parameters
    ----------
    guest_tlb_entries:
        Combined (gVA → hPA) TLB size; misses here cost a nested walk.
    host_tlb_entries:
        Nested TLB size (gPA → hPA entries used during walks).
    ram_pages:
        Host RAM in base pages (host-level paging of guest pages).
    huge_page_size:
        Guest huge-page size ``h`` (coverage of a combined-TLB entry; the
        physical-huge-page semantics of the Section 6 simulator apply).
    guest_levels / host_levels:
        Page-table depths (4 + 4 models x86-64 under EPT/NPT).

    Ledger extras: ``host_tlb_misses``, ``walk_touches`` (total memory
    reads spent in nested walks).
    """

    name = "nested"

    def __init__(
        self,
        guest_tlb_entries: int,
        host_tlb_entries: int,
        ram_pages: int,
        huge_page_size: int = 1,
        guest_levels: int = 4,
        host_levels: int = 4,
        bits_per_level: int = 9,
    ) -> None:
        super().__init__(guest_tlb_entries, ram_pages, huge_page_size)
        check_positive_int(host_tlb_entries, "host_tlb_entries")
        self.guest_levels = check_positive_int(guest_levels, "guest_levels")
        self.host_levels = check_positive_int(host_levels, "host_levels")
        self.bits_per_level = check_positive_int(bits_per_level, "bits_per_level")
        self.nested_tlb = PageCache(host_tlb_entries, LRUPolicy())
        self._extra_defaults = dict(host_tlb_misses=0, walk_touches=0)
        self.ledger.extra.update(self._extra_defaults)

    # ------------------------------------------------------------------ api

    def access(self, vpn: int) -> None:
        ledger = self.ledger
        ledger.accesses += 1
        hpn = vpn // self.huge_page_size
        if self.tlb.access(hpn):
            ledger.tlb_hits += 1
        else:
            ledger.tlb_misses += 1
            self._nested_walk(vpn)
        if not self.ram.access(hpn):
            ledger.ios += self.huge_page_size

    def shootdown(self, lo: int, hi: int) -> int:
        dropped = super().shootdown(lo, hi)
        # nested entries: data-page translations (depth 0) are keyed by the
        # full vpn; page-table nodes at depth d cover an aligned prefix
        # range. Nodes wholly inside the range are tenant-private and
        # flushed with it; nodes straddling the boundary are shared
        # upper-level structure and survive (as cached EPT interior nodes
        # survive a guest address-space teardown).
        top = self.guest_levels * self.bits_per_level
        nested_victims = []
        for depth, prefix in self.nested_tlb.resident():
            span = 1 << (top - depth * self.bits_per_level) if depth else 1
            if prefix * span >= lo and (prefix + 1) * span <= hi:
                nested_victims.append((depth, prefix))
        for key in nested_victims:
            self.nested_tlb.remove(key)
        return dropped + len(nested_victims)

    def inspector(self) -> MMInspector:
        return _NestedInspector(self)

    def _nested_walk(self, vpn: int) -> None:
        """Charge the 2-D walk: guest levels × (host translation + read).

        Each guest page-table node lives at a guest-physical page keyed by
        its (level, address-prefix); translating that page costs a nested
        TLB lookup and, on a miss, a full host walk. The final data page's
        host translation rides along the same way.
        """
        ledger = self.ledger
        top = self.guest_levels * self.bits_per_level
        touches = 0
        for depth in range(1, self.guest_levels + 1):
            prefix = vpn >> (top - depth * self.bits_per_level)
            touches += 1  # reading the guest page-table node itself
            if not self.nested_tlb.access((depth, prefix)):
                ledger.extra["host_tlb_misses"] += 1
                touches += self.host_levels  # host walk for the node's gPA
        # host translation of the data page (the +1 in (g+1)(h+1)-1)
        if not self.nested_tlb.access((0, vpn)):
            ledger.extra["host_tlb_misses"] += 1
            touches += self.host_levels
        ledger.extra["walk_touches"] += touches

    # ------------------------------------------------------------ diagnostics

    @property
    def effective_epsilon_multiplier(self) -> float:
        """Mean nested-walk memory touches per guest miss, relative to a
        native ``guest_levels``-touch walk. 1.0 = no virtualization tax;
        the worst case is ``((g+1)(h+1) − 1) / g``."""
        misses = self.ledger.tlb_misses
        if misses == 0:
            return 1.0
        native = self.guest_levels
        return (self.ledger.extra["walk_touches"] / misses) / native
