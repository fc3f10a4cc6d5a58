"""The Section 8 hybrid: decoupled huge pages over moderate physical runs.

If the coverage-optimal virtual huge page has ``q ≫ h_max`` base pages, pure
decoupling cannot reach it (the ``w``-bit value holds only ``h_max``
fields). The paper's hybrid makes each *field* point at a physically
contiguous run of ``chunk = q / h_max`` base pages: a TLB entry then covers
``q`` pages, while each fault moves only ``chunk`` pages — coverage of
size-``q`` huge pages with amplification capped at ``q/h_max`` instead of
``q``.

Implementation: :class:`~repro.mmu.decoupled.DecoupledMM` over the
``P/chunk`` chunk frames. Its system's "pages" are the chunks (allocation,
replacement and encoding all operate on chunk ids) and its ``io_unit`` is
the chunk size.
"""

from __future__ import annotations

from .._util import check_positive_int, is_power_of_two
from ..paging import ReplacementPolicy
from .decoupled import DecoupledMM

__all__ = ["HybridMM"]


class HybridMM(DecoupledMM):
    """Decoupled virtual huge pages of ``q = hmax · chunk`` base pages.

    Parameters
    ----------
    tlb_entries:
        ``ℓ``.
    ram_pages:
        Physical memory ``P`` in base pages.
    chunk:
        Physical run length ``q / h_max`` in base pages (power of two).
        ``chunk = 1`` degenerates to plain decoupling.
    w:
        TLB value width; the Theorem 3 parameters are computed over the
        ``P/chunk`` chunk frames.
    """

    name = "hybrid"

    def __init__(
        self,
        tlb_entries: int,
        ram_pages: int,
        chunk: int,
        *,
        w: int = 64,
        tlb_policy: ReplacementPolicy | None = None,
        ram_policy: ReplacementPolicy | None = None,
        seed=None,
    ) -> None:
        check_positive_int(ram_pages, "ram_pages")
        self.chunk = check_positive_int(chunk, "chunk")
        if not is_power_of_two(chunk):
            raise ValueError(f"chunk must be a power of two, got {chunk}")
        if ram_pages % chunk:
            raise ValueError(
                f"ram_pages ({ram_pages}) must be divisible by chunk ({chunk})"
            )
        # hmax is rounded down to a power of two, which keeps q = hmax · chunk
        # one too (Section 5's alignment rule)
        super().__init__(
            tlb_entries,
            ram_pages // chunk,
            w=w,
            tlb_policy=tlb_policy,
            ram_policy=ram_policy,
            seed=seed,
        )

    @property
    def coverage(self) -> int:
        """Base pages covered by one TLB entry: ``q = hmax · chunk``."""
        return self.translation_alignment()

    def access(self, vpn: int) -> None:
        self.system.access(vpn // self.chunk)
