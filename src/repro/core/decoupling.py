"""The huge-page decoupling scheme (paper Section 3).

A decoupling scheme glues together three parts:

* a **RAM-allocation scheme** choosing ``φ(v)`` (here: any
  :class:`~repro.core.allocation.RAMAllocationScheme`);
* a **TLB-encoding scheme** maintaining the ``w``-bit value ``ψ(u)`` of
  every virtual huge page ``u`` (here: a
  :class:`~repro.core.encoding.TLBValueCodec` plus a hash map from huge
  pages to their current value — the constant-time bookkeeping of
  Theorem 1's proof). A TLB entry's payload is ``ψ(u)`` and updating it
  is free, so this map is the only copy: the TLB itself stores no values;
* a **TLB-decoding function** ``f(v, ψ(u))`` returning ``φ(v)`` when
  ``v ∈ A`` and −1 otherwise — eq. (4).

The scheme is *driven* by two oblivious input policies: the
RAM-replacement policy (which pages are in the active set ``A``) and the
TLB-replacement policy (which huge pages are in ``T``). Those policies call
the ``ram_insert`` / ``ram_evict`` / ``tlb_insert`` / ``tlb_evict`` hooks;
the scheme never second-guesses them.

Pages the allocator cannot place join the failure set ``F`` (they are in
``A`` from the replacement policy's point of view but hold no frame); a
failure lasts until the replacement policy evicts the page, exactly as the
paper specifies.
"""

from __future__ import annotations

from .allocation import RAMAllocationScheme
from .encoding import TLBValueCodec

__all__ = ["DecouplingScheme", "NOT_PRESENT"]

#: Sentinel returned by the decoding function for pages not in RAM.
NOT_PRESENT = -1


class DecouplingScheme:
    """Maintains ``φ``, ``ψ``, and the failure set ``F`` under policy events.

    Parameters
    ----------
    allocator:
        The RAM-allocation scheme (owns ``φ``).
    codec:
        The value codec; ``codec.hmax`` fixes the huge-page size.
    """

    def __init__(self, allocator: RAMAllocationScheme, codec: TLBValueCodec) -> None:
        if codec.max_code < allocator.associativity - 1:
            raise ValueError(
                f"codec fields ({codec.field_bits} bits, max code {codec.max_code}) "
                f"cannot address associativity {allocator.associativity}"
            )
        self.allocator = allocator
        self.codec = codec
        self.hmax = codec.hmax
        # ψ(u) for every huge page with at least one present page; absent
        # entries implicitly hold codec.empty. This map is what makes the
        # scheme constant-time: a TLB insert just reads one dict entry.
        self._psi: dict[int, int] = {}
        self._tlb_resident: set[int] = set()  # T
        self._failed: set[int] = set()  # F
        self._active: set[int] = set()  # A (placed pages ∪ F)

    # ----------------------------------------------------------- RAM events

    def ram_insert(self, vpn: int) -> int | None:
        """RAM-replacement policy added *vpn* to ``A``; place it.

        Returns the frame, or None on a paging failure (the page joins
        ``F`` and stays in ``A`` unplaced).
        """
        if vpn in self._active:
            raise ValueError(f"vpn {vpn} is already active")
        self._active.add(vpn)
        frame = self.allocator.allocate(vpn)
        if frame is None:
            self._failed.add(vpn)
            return None
        self._set_psi_field(vpn, self.allocator.encode(vpn))
        return frame

    def ram_evict(self, vpn: int) -> None:
        """RAM-replacement policy removed *vpn* from ``A``."""
        self._active.remove(vpn)  # raises KeyError if not active
        if vpn in self._failed:
            self._failed.remove(vpn)  # the failure ends with the eviction
            return
        self.allocator.free(vpn)
        self._clear_psi_field(vpn)

    def apply_events(
        self, inserts: list[int], evicts: list[int], first_evt: int = 0
    ) -> int | None:
        """Bulk-apply an interleaved ``ram_evict``/``ram_insert`` stream.

        Equivalent to the per-event calls under the batch interleave
        convention (eviction ``k - first_evt`` immediately before insert
        ``k``), with ψ maintenance folded into **one** pass over each
        touched page's final state — a page placed and evicted five times
        in the stream gets one field update, not ten.

        Returns the index of the first failing insert — that insert is
        applied (the page joins ``F``) and everything after it is not —
        ``-1`` for a clean run, or None to decline: pre-existing failures
        (mid-stream evictions of unplaced pages need per-event handling)
        or an allocator without a bulk path.
        """
        if self._failed:
            return None
        bulk = getattr(self.allocator, "bulk_replay", None)
        if bulk is None:
            return None
        out = bulk(inserts, evicts, first_evt)
        if out is None:
            return None
        codes, failed = out
        # last applied event per page wins: a location code (placed),
        # -1 (evicted), or -2 (failed insert)
        last: dict[int, int] = {}
        for k, code in enumerate(codes):
            if k >= first_evt:
                last[evicts[k - first_evt]] = -1
            last[inserts[k]] = -2 if code is None else code
        active = self._active
        for vpn, state in last.items():
            if state >= 0:
                active.add(vpn)
                self._set_psi_field(vpn, state)
            elif state == -1:
                active.discard(vpn)
                self._clear_psi_field(vpn)
            else:
                active.add(vpn)
                self._failed.add(vpn)
                self._clear_psi_field(vpn)
        return failed

    # ----------------------------------------------------------- TLB events

    def tlb_insert(self, hpn: int) -> int:
        """TLB-replacement policy added huge page *hpn* to ``T``; return ψ."""
        if hpn in self._tlb_resident:
            raise ValueError(f"huge page {hpn} is already in the TLB")
        self._tlb_resident.add(hpn)
        return self._psi.get(hpn, self.codec.empty)

    def tlb_evict(self, hpn: int) -> None:
        """TLB-replacement policy removed huge page *hpn* from ``T``."""
        self._tlb_resident.remove(hpn)  # raises KeyError if absent

    # ------------------------------------------------------------- decoding

    def psi(self, hpn: int) -> int:
        """Current encoded value ``ψ(u)`` for huge page *hpn*."""
        return self._psi.get(hpn, self.codec.empty)

    def f(self, vpn: int, value: int) -> int:
        """The TLB-decoding function of eq. (4).

        Pure given the scheme's hash seeds: recomputes the candidate bucket
        from *vpn* and the stored choice/slot code. Returns the frame or
        :data:`NOT_PRESENT`.
        """
        code = self.codec.field(value, vpn % self.hmax)
        if code is None:
            return NOT_PRESENT
        return self.allocator.decode(vpn, code)

    def decode(self, vpn: int) -> int:
        """Translate *vpn* through the TLB: ``f(v, ψ(r(v)))``.

        Raises LookupError if *vpn*'s huge page is not in ``T`` (a real TLB
        would simply miss; callers model that separately).
        """
        hpn = vpn // self.hmax
        if hpn not in self._tlb_resident:
            raise LookupError(f"huge page {hpn} is not in the TLB")
        return self.f(vpn, self.psi(hpn))

    # -------------------------------------------------------------- queries

    @property
    def active_set(self) -> frozenset[int]:
        """The active set ``A`` (placed pages plus failures)."""
        return frozenset(self._active)

    @property
    def tlb_set(self) -> frozenset[int]:
        """The TLB set ``T``."""
        return frozenset(self._tlb_resident)

    @property
    def failure_set(self) -> frozenset[int]:
        """The failure set ``F ⊆ A``."""
        return frozenset(self._failed)

    def is_failed(self, vpn: int) -> bool:
        return vpn in self._failed

    def frame_of(self, vpn: int) -> int | None:
        """``φ(v)`` — the frame of *vpn*, or None (not active, or failed)."""
        return self.allocator.frame_of(vpn)

    # ------------------------------------------------------------ internals

    def _set_psi_field(self, vpn: int, code: int) -> None:
        hpn, idx = divmod(vpn, self.hmax)
        self._psi[hpn] = self.codec.set_field(self._psi.get(hpn, 0), idx, code)

    def _clear_psi_field(self, vpn: int) -> None:
        hpn, idx = divmod(vpn, self.hmax)
        value = self.codec.clear_field(self._psi.get(hpn, 0), idx)
        if value:
            self._psi[hpn] = value
        else:
            self._psi.pop(hpn, None)

    # ------------------------------------------------------------ validation

    def check_invariants(self) -> None:
        """Assert the Section 3 requirements hold (test/debug helper).

        * ``F ⊆ A``;
        * ``φ`` is injective over placed pages;
        * eq. (4): for every active page whose huge page we probe,
          ``f(v, ψ(r(v)))`` equals ``φ(v)`` (or −1 for failed pages), and
          non-active covered pages decode to −1;
        * every stored ψ fits the ``w``-bit TLB payload.
        """
        assert self._failed <= self._active, "F must be a subset of A"
        frames: dict[int, int] = {}
        for vpn in self._active:
            if vpn in self._failed:
                assert self.allocator.frame_of(vpn) is None
                continue
            frame = self.allocator.frame_of(vpn)
            assert frame is not None, f"active page {vpn} has no frame"
            assert frame not in frames, (
                f"φ not injective: frame {frame} held by {frames[frame]} and {vpn}"
            )
            frames[frame] = vpn
            decoded = self.f(vpn, self.psi(vpn // self.hmax))
            assert decoded == frame, f"f({vpn}) = {decoded} != φ = {frame}"
        # every stored ψ fits in w bits, and every present field belongs
        # to an active, placed page
        limit = 1 << self.codec.w
        for hpn, value in self._psi.items():
            assert 0 <= value < limit, (
                f"ψ({hpn}) = {value} does not fit in w = {self.codec.w} bits"
            )
            for idx, _code in self.codec.present_fields(value):
                vpn = hpn * self.hmax + idx
                assert vpn in self._active and vpn not in self._failed, (
                    f"ψ field set for non-present page {vpn}"
                )
