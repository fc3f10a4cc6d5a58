"""TLB substrate: fully-associative, set-associative, multi-size, and
coalescing models."""

from .asid import AsidTaggedTLB, FlushingTLB
from .coalescing import CoalescingTLB
from .multi import CASCADE_LAKE_L2, MultiSizeTLB
from .tlb import TLB, SetAssociativeTLB

__all__ = [
    "TLB",
    "SetAssociativeTLB",
    "MultiSizeTLB",
    "CASCADE_LAKE_L2",
    "CoalescingTLB",
    "AsidTaggedTLB",
    "FlushingTLB",
]
