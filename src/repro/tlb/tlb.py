"""Software model of a translation lookaside buffer.

The TLB is a small key-value cache: keys are virtual huge-page addresses,
values are ``w``-bit payloads (a physical huge-page address, or a packed
decoupled encoding). The paper models it as a fully-associative cache of
``ℓ`` entries with an arbitrary replacement policy (Section 6 uses LRU with
``ℓ = 1536``); real TLBs are set-associative, so a set-associative variant
is provided for ablations.

Updating a resident entry's value (``ψ(u)``) is free in the
address-translation cost model — only *adding* an entry costs ε.
"""

from __future__ import annotations

from typing import Iterator

from .._util import check_positive_int
from ..paging import LRUPolicy, ReplacementPolicy

__all__ = ["TLB", "SetAssociativeTLB"]


class TLB:
    """Fully-associative TLB with a pluggable replacement policy.

    Parameters
    ----------
    entries:
        Number of entries ``ℓ``.
    value_bits:
        Payload width ``w`` in bits; values are range-checked against it.
    policy:
        Replacement policy over huge-page keys (default: a fresh LRU).
    """

    __slots__ = (
        "entries",
        "value_bits",
        "policy",
        "_values",
        "_get",
        "_record",
        "hits",
        "misses",
        "fills",
        "_clock",
        "_last_stamp",
    )

    def __init__(
        self,
        entries: int,
        value_bits: int = 64,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        self.entries = check_positive_int(entries, "entries")
        self.value_bits = check_positive_int(value_bits, "value_bits")
        self.policy = policy if policy is not None else LRUPolicy()
        if len(self.policy) != 0:
            raise ValueError("policy must start empty")
        self.policy.bind(self.entries)
        self._values: dict[int, int] = {}
        # bound once: neither the value dict nor the policy object is ever
        # replaced, so the hot lookup pays two calls and no attribute hops
        self._get = self._values.get
        self._record = self.policy.record_access
        self.hits = 0
        self.misses = 0
        self.fills = 0
        # 0-based index of the current lookup; policies that need trace
        # positions (BeladyOPT) rely on it being exactly the access index.
        self._clock = 0
        # recency stamp of the most recent fill (strict monotonicity floor).
        self._last_stamp = -1

    # ------------------------------------------------------------------ api

    def lookup(self, hpn: int) -> int | None:
        """Translate huge page *hpn*: its value on a hit, None on a miss."""
        t = self._clock
        self._clock = t + 1
        value = self._get(hpn)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._record(hpn, t)
        return value

    def fill(self, hpn: int, value: int = 0) -> int | None:
        """Install (*hpn* → *value*), evicting if full; return the victim hpn.

        Raises ValueError if *hpn* is already resident (use :meth:`update`)
        or *value* does not fit in ``value_bits``.
        """
        if hpn in self._values:
            raise ValueError(f"huge page {hpn} already resident; use update()")
        self._check_value(value)
        victim = None
        if len(self._values) >= self.entries:
            victim = self.policy.evict(hpn)
            del self._values[victim]
        # a fill normally follows a missing lookup for the same huge page
        # and is attributed to that access's index — but an access that
        # installs several entries (prefetch, promotion) must not stamp
        # ties: recency-stamped policies would otherwise order the extra
        # entries arbitrarily, so later fills bump strictly past the last
        t = self._clock - 1
        if t <= self._last_stamp:
            t = self._last_stamp + 1
        self._last_stamp = t
        self.policy.insert(hpn, t)
        self._values[hpn] = value
        self.fills += 1
        return victim

    def update(self, hpn: int, value: int) -> None:
        """Rewrite the value of resident *hpn* — free in the cost model."""
        if hpn not in self._values:
            raise KeyError(f"huge page {hpn} not resident")
        self._check_value(value)
        self._values[hpn] = value

    def invalidate(self, hpn: int) -> None:
        """Drop resident *hpn* (a TLB shootdown). KeyError if absent."""
        del self._values[hpn]
        self.policy.remove(hpn)

    def peek(self, hpn: int) -> int | None:
        """Read *hpn*'s value without touching stats or recency."""
        return self._values.get(hpn)

    def _check_value(self, value: int) -> None:
        if not (0 <= value < (1 << self.value_bits)):
            raise ValueError(
                f"value {value} does not fit in w={self.value_bits} bits"
            )

    # --------------------------------------------------------------- queries

    def __contains__(self, hpn: int) -> bool:
        return hpn in self._values

    def __len__(self) -> int:
        return len(self._values)

    def resident(self) -> Iterator[int]:
        """Iterate over resident huge-page numbers."""
        return iter(self._values)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 when no lookups yet)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0

    def check_invariants(self) -> None:
        """Assert the TLB's structural invariants (test/oracle helper).

        At most ``ℓ`` entries are resident, the value map and the
        replacement policy track exactly the same key set, and every stored
        value fits in ``w`` bits.
        """
        assert len(self._values) <= self.entries, (
            f"TLB over capacity: {len(self._values)} > {self.entries}"
        )
        policy_keys = set(self.policy.resident())
        assert policy_keys == set(self._values), (
            "TLB value map and replacement policy disagree: "
            f"{sorted(set(self._values) ^ policy_keys)[:8]} …"
        )
        limit = 1 << self.value_bits
        for hpn, value in self._values.items():
            assert 0 <= value < limit, (
                f"stored value {value} for huge page {hpn} exceeds w={self.value_bits} bits"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TLB entries={self.entries} w={self.value_bits} size={len(self)} "
            f"hits={self.hits} misses={self.misses}>"
        )


class SetAssociativeTLB:
    """Set-associative TLB: ``entries / associativity`` sets, each a small
    fully-associative TLB indexed by the huge page's low-order bits.

    Hardware TLBs have associativity 4–12; this variant quantifies the gap
    to the paper's fully-associative model.

    The counter/inspection surface mirrors :class:`TLB` (``hits`` /
    ``misses`` / ``fills`` aggregates, ``value_bits``,
    ``check_invariants()``, ``reset_stats()``), so memory-management code
    written against the fully-associative model — including ``validate=True``
    audits and reset-stats sweeps — runs unchanged over either.
    """

    __slots__ = ("entries", "associativity", "n_sets", "value_bits", "_sets")

    def __init__(
        self,
        entries: int,
        associativity: int,
        value_bits: int = 64,
        policy_factory=LRUPolicy,
    ) -> None:
        self.entries = check_positive_int(entries, "entries")
        self.associativity = check_positive_int(associativity, "associativity")
        if entries % associativity != 0:
            raise ValueError(
                f"entries ({entries}) must be divisible by associativity ({associativity})"
            )
        self.n_sets = entries // associativity
        self.value_bits = check_positive_int(value_bits, "value_bits")
        self._sets = [
            TLB(associativity, value_bits, policy_factory()) for _ in range(self.n_sets)
        ]

    def _set_of(self, hpn: int) -> TLB:
        return self._sets[hpn % self.n_sets]

    def lookup(self, hpn: int) -> int | None:
        return self._set_of(hpn).lookup(hpn)

    def fill(self, hpn: int, value: int = 0) -> int | None:
        return self._set_of(hpn).fill(hpn, value)

    def update(self, hpn: int, value: int) -> None:
        self._set_of(hpn).update(hpn, value)

    def invalidate(self, hpn: int) -> None:
        self._set_of(hpn).invalidate(hpn)

    def peek(self, hpn: int) -> int | None:
        return self._set_of(hpn).peek(hpn)

    def __contains__(self, hpn: int) -> bool:
        return hpn in self._set_of(hpn)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident(self) -> Iterator[int]:
        for s in self._sets:
            yield from s.resident()

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._sets)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._sets)

    @property
    def fills(self) -> int:
        return sum(s.fills for s in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        for s in self._sets:
            s.reset_stats()

    def check_invariants(self) -> None:
        """Assert the TLB's structural invariants (test/oracle helper).

        Every set holds :class:`TLB`'s invariants, every resident key
        actually indexes to the set holding it, and the aggregate occupancy
        never exceeds ``entries``.
        """
        n_sets = self.n_sets
        for i, s in enumerate(self._sets):
            s.check_invariants()
            for hpn in s.resident():
                assert hpn % n_sets == i, (
                    f"huge page {hpn} stored in set {i}, indexes to set {hpn % n_sets}"
                )
        assert len(self) <= self.entries, (
            f"TLB over capacity: {len(self)} > {self.entries}"
        )
