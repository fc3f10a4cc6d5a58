"""Page-table substrate: sparse radix tree, walker, and walk-cost models."""

from .radix import RadixPageTable, Translation
from .walk import PageWalker, WalkResult, nested_walk_cost

__all__ = [
    "RadixPageTable",
    "Translation",
    "PageWalker",
    "WalkResult",
    "nested_walk_cost",
]
