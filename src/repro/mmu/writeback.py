"""Write-back extension: dirty evictions cost IOs too.

The address-translation cost model makes evictions free — correct for
clean pages, optimistic for dirty ones, which must be written to storage
before the frame is reused. Write-back is huge pages' *fourth* cost: a
dirty physical huge page writes back all ``h`` constituent pages even if
one byte changed, so write amplification scales with ``h`` exactly like
fault amplification.

:class:`WritebackHugePageMM` extends the Section 6 simulator with a
Bernoulli write model (each access dirties its unit with probability
``write_fraction``) and accounts write-back IOs separately in
``ledger.extra["writeback_ios"]`` so the classic read-IO series stays
comparable with the paper's.
"""

from __future__ import annotations

from functools import partial

from .._util import as_rng, check_probability
from ..paging import ReplacementPolicy
from .base import MMInspector
from .hugepage import PhysicalHugePageMM, _PhysicalInspector

__all__ = ["WritebackHugePageMM"]


def _flush_if_dirty(dirty: set, ledger, h: int, hpn: int) -> None:
    """RAM ``on_evict`` hook: an evicted dirty unit writes back ``h`` pages."""
    if hpn in dirty:
        dirty.remove(hpn)
        ledger.extra["writeback_ios"] += h
        ledger.extra["writebacks"] += 1


class _WritebackInspector(_PhysicalInspector):
    """Physical-huge-page surface plus the write-back invariant: only
    resident units can be dirty (an evicted unit must have been flushed)."""

    def deep_check(self) -> None:
        super().deep_check()
        mm = self.mm
        stray = mm._dirty - set(mm.ram.resident())
        assert not stray, f"dirty units not resident (missed flush): {sorted(stray)[:8]}"


class WritebackHugePageMM(PhysicalHugePageMM):
    """Physical-huge-page management with dirty-page write-back accounting.

    Parameters
    ----------
    write_fraction:
        Probability that an access is a store (dirties its mapping unit).
    seed:
        Seed for the store-sampling RNG (deterministic traces stay
        deterministic).

    Other parameters as in :class:`~repro.mmu.hugepage.PhysicalHugePageMM`.
    """

    name = "physical-huge+wb"

    def __init__(
        self,
        tlb_entries: int,
        ram_pages: int,
        huge_page_size: int = 1,
        write_fraction: float = 0.3,
        tlb_policy: ReplacementPolicy | None = None,
        ram_policy: ReplacementPolicy | None = None,
        seed=None,
    ) -> None:
        super().__init__(
            tlb_entries, ram_pages, huge_page_size, tlb_policy, ram_policy
        )
        self.write_fraction = check_probability(write_fraction, "write_fraction")
        self._rng = as_rng(seed)
        self._dirty: set[int] = set()
        self._extra_defaults = dict(writeback_ios=0, writebacks=0)
        self.ledger.extra.update(self._extra_defaults)
        # intercept RAM evictions to flush dirty huge units (bound to the
        # state it touches, not to self: no reference cycle)
        self.ram.on_evict = partial(
            _flush_if_dirty, self._dirty, self.ledger, huge_page_size
        )

    def access(self, vpn: int) -> None:
        super().access(vpn)
        if self.write_fraction and self._rng.random() < self.write_fraction:
            self._dirty.add(vpn // self.huge_page_size)

    def inspector(self) -> MMInspector:
        return _WritebackInspector(self)

    @property
    def dirty_units(self) -> int:
        """Resident units currently dirty."""
        return len(self._dirty)

    @property
    def total_ios(self) -> int:
        """Read (fault) IOs plus write-back IOs — the full device traffic."""
        return self.ledger.ios + self.ledger.extra["writeback_ios"]
