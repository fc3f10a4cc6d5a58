"""Small shared helpers used across the :mod:`repro` package.

These are deliberately dependency-free (stdlib + numpy only) and kept out of
the public API; everything here is an implementation detail.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_positive_int",
    "check_in_range",
    "check_probability",
    "is_power_of_two",
    "next_power_of_two",
    "ceil_div",
    "ceil_log2",
    "as_rng",
    "as_int_list",
    "unit_list",
]


def as_int_list(trace) -> list:
    """Materialize *trace* as a list of plain Python ints — the hot-loop
    contract (see ``docs/API.md``).

    Numpy arrays convert in one C-level ``tolist()`` call, which is what
    makes the per-access loops cheap: iterating an ndarray directly boxes a
    fresh ``np.int64`` per element and every downstream dict probe pays its
    slower ``__hash__``. Lists whose elements are already ints pass through
    unchanged (no copy); anything else is converted element-wise once.
    """
    if isinstance(trace, np.ndarray):
        return trace.tolist()
    if isinstance(trace, list) and all(type(v) is int for v in trace):
        return trace
    return [int(v) for v in trace]


def unit_list(trace, unit: int) -> list:
    """``[vpn // unit for vpn in trace]`` as plain Python ints.

    The static vpn→translation-unit map (huge page, hybrid chunk, THP
    region) of a whole trace; *unit* is a power of two. Integer ndarrays
    take one vectorized shift (vpns are non-negative, so the floor
    division is a shift) and one ``tolist()``.
    """
    if unit == 1:
        return as_int_list(trace)
    if isinstance(trace, np.ndarray) and trace.dtype.kind in "iu":
        return (trace >> (unit.bit_length() - 1)).tolist()
    return [vpn // unit for vpn in as_int_list(trace)]


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive ``int`` and return it.

    numpy integer scalars are accepted and converted; ``bool`` is rejected
    (it subclasses ``int`` but is never what a caller means by a count).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_in_range(value: int, name: str, lo: int, hi: int) -> int:
    """Validate ``lo <= value < hi`` for an integer *value* and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if not (lo <= value < hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {value}")
    return value


def check_probability(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that *value* lies in ``[0, 1]`` (or ``(0, 1)``) and return it."""
    value = float(value)
    if inclusive:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def is_power_of_two(value: int) -> bool:
    """Return True iff *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= *value* (value must be positive)."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    return 1 << (value - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative *a* and positive *b*."""
    return -(-a // b)


def ceil_log2(value: int) -> int:
    """``ceil(log2(value))`` for a positive integer, with ``ceil_log2(1) == 0``."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    return (value - 1).bit_length()


def as_rng(seed) -> np.random.Generator:
    """Coerce *seed* (None, int, or Generator) into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
