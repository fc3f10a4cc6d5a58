"""Theorem 4 (the Simulation Theorem): building ``Z`` from ``X``, ``Y``, ``D``.

Given a TLB-replacement policy ``X`` (how an arbitrary TLB-optimizing
algorithm manages its ``ℓ`` entries), a RAM-replacement policy ``Y``
operating on ``(1−δ)P`` frames (how an IO-optimizing algorithm manages
RAM), and a huge-page decoupling scheme ``D``, the combined algorithm ``Z``

* keeps ``T_Z = { r(v) : v ∈ T_X }`` — size-``h_max`` huge pages mirroring
  ``X``'s TLB decisions;
* keeps its active set equal to ``Y``'s;
* services a request to a page in ``D``'s failure set with one temporary
  IO plus a decoding miss (cost ``1 + ε``), never encoding it in the TLB.

The cost guarantee (eq. 3)::

    C(Z, σ) ≤ C_TLB(X, σ) + C_IO(Y, σ) + n/poly(P)    w.h.p. in P.

:class:`DecoupledSystem` is the executable construction; its counters feed
a :class:`~repro.core.model.CostLedger` so benches can verify eq. (3)
directly against independently-run ``X`` and ``Y``.
"""

from __future__ import annotations

from .._util import as_int_list, check_positive_int
from ..paging import PageCache, ReplacementPolicy
from .decoupling import DecouplingScheme
from .model import CostLedger

__all__ = ["DecoupledSystem"]


class DecoupledSystem:
    """The memory-management algorithm ``Z`` of Theorem 4.

    Parameters
    ----------
    tlb_entries:
        ``ℓ``. The TLB is a :class:`~repro.paging.PageCache` over huge-page
        numbers (size ``scheme.hmax``) run by *tlb_policy* (``X``'s
        replacement rule). A resident entry's payload is ``ψ(u)``, which
        lives in the scheme alone: updating it is free, so the TLB never
        holds a copy.
    ram_capacity:
        ``m = (1−δ)P`` — the occupancy cap ``Y`` must respect. Must not
        exceed the allocator's ``frames_used`` (else failures are
        guaranteed rather than unlikely).
    tlb_policy / ram_policy:
        Fresh replacement-policy instances for ``X`` and ``Y``.
    scheme:
        The decoupling scheme ``D`` (owns the allocator and the codec).

    Notes
    -----
    ``Z`` is online iff both policies are online; with a
    :class:`~repro.paging.BeladyOPT` policy it realizes the offline bound.
    """

    def __init__(
        self,
        tlb_entries: int,
        ram_capacity: int,
        tlb_policy: ReplacementPolicy,
        ram_policy: ReplacementPolicy,
        scheme: DecouplingScheme,
        *,
        io_unit: int = 1,
    ) -> None:
        check_positive_int(tlb_entries, "tlb_entries")
        check_positive_int(ram_capacity, "ram_capacity")
        check_positive_int(io_unit, "io_unit")
        if ram_capacity > scheme.allocator.total_frames:
            raise ValueError(
                f"ram_capacity ({ram_capacity}) exceeds physical frames "
                f"({scheme.allocator.total_frames}); Y must run on (1-δ)P"
            )
        self.scheme = scheme
        self.hmax = scheme.hmax
        #: pages moved per RAM fault. 1 for plain decoupling; the Section 8
        #: hybrid allocates physically-contiguous runs of io_unit base pages,
        #: so each fault costs io_unit IOs.
        self.io_unit = io_unit
        # X drives T; every eviction immediately leaves D's T set.
        self.tlb = PageCache(tlb_entries, tlb_policy, on_evict=scheme.tlb_evict)
        # Y drives RAM; every eviction immediately releases the frame in D.
        self.ram = PageCache(ram_capacity, ram_policy, on_evict=scheme.ram_evict)
        self.ledger = CostLedger()

    # ------------------------------------------------------------------ api

    def access(self, vpn: int) -> None:
        """Service one virtual-page request through ``Z``."""
        ledger = self.ledger
        ledger.accesses += 1
        scheme = self.scheme

        # --- TLB step: ensure a huge page covering vpn is in T_Z.
        hpn = vpn // self.hmax
        if self.tlb.access(hpn):
            ledger.tlb_hits += 1
        else:
            # X has already evicted (the callback removed its victim from
            # T) and recorded hpn as resident; now add it to T in D.
            ledger.tlb_misses += 1
            scheme.tlb_insert(hpn)

        # --- RAM step: ensure vpn is in Y's active set.
        if self.ram.access(vpn):
            # Y considers the page resident. If D failed to place it, every
            # request is serviced with a temporary IO + a decoding miss.
            if scheme.is_failed(vpn):
                ledger.ios += self.io_unit
                ledger.decoding_misses += 1
                ledger.paging_failures += 1
            return
        # Fault in Y: Y has already evicted (callback released the frame)
        # and recorded vpn as resident; now place it in D.
        frame = scheme.ram_insert(vpn)
        ledger.ios += self.io_unit
        if frame is None:
            # Paging failure on arrival: the temporary IO is the one we just
            # counted; the request additionally suffers a decoding miss.
            ledger.decoding_misses += 1
            ledger.paging_failures += 1

    def run(self, trace) -> CostLedger:
        """Service every request in *trace*; return the ledger."""
        access = self.access
        for vpn in as_int_list(trace):
            access(vpn)
        return self.ledger

    def bucket_loads(self):
        """Per-bucket load vector of the underlying allocator (None when the
        allocator is not bucketed) — the observability layer's source for
        ``bucket_load`` histograms."""
        allocator = self.scheme.allocator
        if hasattr(allocator, "bucket_loads"):
            return allocator.bucket_loads()
        return None

    # ------------------------------------------------------------ validation

    def check_invariants(self) -> None:
        """Cross-check Z's components (test helper).

        The TLB's resident set must equal ``T``; Y's resident set must equal
        ``A``; and the scheme's own invariants (eq. 4, injectivity, every
        stored ψ within ``w`` bits) must hold.
        """
        assert set(self.tlb.resident()) == set(self.scheme.tlb_set)
        assert set(self.ram.resident()) == set(self.scheme.active_set)
        self.scheme.check_invariants()
