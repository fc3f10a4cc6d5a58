"""Denning working-set statistics (paper citation [18]).

The working set ``W(t, τ)`` is the set of distinct pages referenced in the
window ``(t−τ, t]``. Its size over time characterizes a workload's memory
demand independently of any replacement policy — the quantity the paper's
introduction appeals to when it says TLBs are "too small to cache the
working sets of modern parallel programs".
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive_int
from .stackdist import prev_occurrence

__all__ = [
    "working_set_sizes",
    "average_working_set",
    "working_set_profile",
    "window_distinct",
]


def window_distinct(prev: np.ndarray, w: int) -> np.ndarray:
    """``DW[j]`` = #distinct keys in ``[max(0, j-w+1), j]`` (int32), from
    the previous-occurrence links *prev* of a stream
    (:func:`~repro.analysis.stackdist.prev_occurrence`).

    Position ``j`` is the first in-window occurrence of its key for
    window ends in ``[max(j, prev[j]+w), j+w)``; the window-end markers
    ``j+w`` form a shifted identity, so one bincount of the starts plus a
    ramp subtraction gives the whole array.
    """
    n = prev.size
    w = min(w, max(n, 1))  # a wider window is clipped at 0 for every end
    pos = np.arange(n, dtype=np.int32)
    # first occurrences count for every window end >= j (their prev is
    # outside any window); repeats only once the window end passes
    # prev[j] + w
    starts = np.where(prev >= 0, np.maximum(pos, prev + np.int32(w)), pos)
    b = np.bincount(starts, minlength=n)[:n]
    got = np.cumsum(b, dtype=np.int32)
    ramp = pos - np.int32(w - 1)
    np.subtract(got, np.maximum(ramp, np.int32(0)), out=got)
    return got


def working_set_sizes(trace, tau: int) -> np.ndarray:
    """``|W(t, τ)|`` for every ``t`` in ``[0, n)`` (windows clipped at 0).

    One :func:`window_distinct` pass over the trace's previous-occurrence
    links.
    """
    check_positive_int(tau, "tau")
    return window_distinct(prev_occurrence(trace), tau).astype(np.int64)


def average_working_set(trace, tau: int) -> float:
    """Mean ``|W(t, τ)|`` over the steady part of the trace (t ≥ τ)."""
    sizes = working_set_sizes(trace, tau)
    steady = sizes[tau:] if len(sizes) > tau else sizes
    return float(steady.mean()) if len(steady) else 0.0


def working_set_profile(trace, taus) -> dict[int, float]:
    """Average working-set size for each window length in *taus* — the
    classic knee-finding curve for sizing caches (RAM or TLB coverage)."""
    return {int(tau): average_working_set(trace, int(tau)) for tau in taus}
