"""Wall-clock run profiling: a reusable timer and throughput.

``time.perf_counter`` based, so results are monotonic and sub-microsecond;
nothing here touches the simulated cost model — this measures the
*simulator itself* (accesses/second per MM algorithm and per sweep point),
the number the ROADMAP's hot-path work optimizes.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["Timer", "accesses_per_second"]


class Timer:
    """Context-manager stopwatch; reusable (``elapsed`` accumulates).

    >>> with Timer() as t:
    ...     work()
    >>> t.elapsed  # seconds
    """

    __slots__ = ("elapsed", "_t0")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._t0: float | None = None

    def __enter__(self) -> "Timer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += perf_counter() - self._t0
        self._t0 = None


def accesses_per_second(accesses: int, seconds: float) -> float:
    """Throughput with a zero-duration guard (0.0 when nothing ran)."""
    return accesses / seconds if seconds > 0 and accesses else 0.0
