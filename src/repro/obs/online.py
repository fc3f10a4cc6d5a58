"""Streaming online analyses: working-set size and stack distance, live.

The offline tools in :mod:`repro.analysis` (``workingset.py``,
``stackdist.py``) answer "what is this workload's reuse structure?" but
need the whole trace in RAM. The probes here compute the same quantities
*online* — one bounded-state pass, batch-safe, results folded into
mergeable :class:`~repro.obs.hist.LogHistogram`\\ s — so a production-scale
stream can be characterized while it plays, and live telemetry
(:mod:`repro.obs.live`) can report reuse structure mid-run.

Both probes declare ``batch_safe = True`` and consume :meth:`on_batch`
only, so :meth:`~repro.mmu.base.MemoryManagementAlgorithm.run` keeps its
segments on the array engine under them (the same contract as
:class:`~repro.obs.sampling.SamplingProbe`, and gated by the same
``check_bench.py --probe-tolerance`` floor).  Each batch is a handful of
numpy passes over the offline tools' own primitives:
:func:`~repro.analysis.workingset.window_distinct` over the carried window
plus the batch, and :func:`~repro.analysis.stackdist.stack_distances` over
the batch with the live keys it touches as prefix.

Fidelity contract (pinned by ``tests/obs/test_online.py`` over the golden
streams):

* :class:`OnlineWorkingSet` with ``rate=1, sample_every=1`` records
  exactly :func:`repro.analysis.workingset.working_set_sizes` — every
  ``|W(t, τ)|``, windows clipped at 0.
* :class:`OnlineStackDistance` with ``rate=1`` records exactly the warm
  distances of :func:`repro.analysis.stackdist.stack_distances` (cold
  first-touches are counted in ``cold_accesses`` instead, mirroring the
  offline ``COLD`` sentinel).
* With ``rate < 1`` both use the SHARDS-style hashed-VPN scheme of
  ``SamplingProbe`` (page ``v`` tracked iff ``splitmix64(v ⊕ salt) <
  rate · 2⁶⁴``) and scale recorded values by ``1/rate`` — unbiased in
  expectation, exact to within the histogram's factor-of-two buckets.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .._util import check_positive_int
from ..analysis.stackdist import COLD, prev_occurrence, stack_distances
from ..analysis.workingset import window_distinct
from .events import Probe
from .hist import LogHistogram
from .sampling import _MASK64, _splitmix64_many, splitmix64

__all__ = ["OnlineWorkingSet", "OnlineStackDistance"]


def _hash_threshold(rate: float) -> int | None:
    """Hashed-VPN keep threshold, or ``None`` for the track-everything case.

    ``rate=1`` is special-cased to ``None`` (track all pages exactly)
    rather than ``2⁶⁴ − 1`` so the exactness contract holds with
    probability 1, not ``1 − 2⁻⁶⁴`` per page.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if rate >= 1.0:
        return None
    return min(_MASK64, int(rate * 2.0**64))


def _tracked(vpns: np.ndarray, salt: int, threshold: int) -> np.ndarray:
    """Hashed-VPN mask: ``splitmix64(v ⊕ salt) < threshold`` per VPN."""
    keys = vpns.astype(np.uint64) ^ np.uint64(salt)
    return _splitmix64_many(keys) < np.uint64(threshold)


def _record(hist: LogHistogram, values: np.ndarray) -> None:
    """Record every value in *values*, one ``record`` per distinct value."""
    for v, c in Counter(values.tolist()).items():
        hist.record(v, c)


class OnlineWorkingSet(Probe):
    """Streaming Denning working-set sizes ``|W(t, τ)|``.

    Parameters
    ----------
    tau:
        Window length ``τ`` in accesses (the window is ``(t−τ, t]``,
        clipped at the trace start, exactly as in
        :func:`~repro.analysis.workingset.working_set_sizes`).
    sample_every:
        Evaluate the window at every ``sample_every``-th access (those
        ``t`` with ``(t+1) % sample_every == 0``). ``1`` evaluates every
        access (exact offline parity).
    rate, seed:
        Hashed-VPN sampling: distinct *tracked* pages in the window,
        scaled by ``round(1/rate)``. ``rate=1`` counts every page.

    State is one carry buffer of the last ``τ − 1`` VPNs (and, when
    sampling, which of them are tracked) plus the histogram — independent
    of stream length.
    """

    __slots__ = (
        "tau",
        "sample_every",
        "rate",
        "seed",
        "hists",
        "windows",
        "tracked_accesses",
        "_salt",
        "_threshold",
        "_scale",
        "_carry",
        "_carry_tracked",
        "_t",
    )

    batch_safe = True

    def __init__(
        self,
        tau: int,
        *,
        sample_every: int = 1,
        rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.tau = check_positive_int(tau, "tau")
        self.sample_every = check_positive_int(sample_every, "sample_every")
        self.rate = float(rate)
        self.seed = int(seed)
        self._salt = splitmix64(self.seed)
        self._threshold = _hash_threshold(self.rate)
        self._scale = max(1, round(1 / self.rate))
        self.hists: dict[str, LogHistogram] = {}
        self.windows = 0
        self.tracked_accesses = 0
        self._carry = np.empty(0, dtype=np.int64)
        self._carry_tracked = np.empty(0, dtype=bool)
        self._t = 0
        self.reset()

    # -------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Drop all collected state (fires automatically at ``measure``)."""
        self.hists = {"working_set": LogHistogram()}
        self.windows = 0
        self.tracked_accesses = 0
        self._carry = np.empty(0, dtype=np.int64)
        self._carry_tracked = np.empty(0, dtype=bool)
        self._t = 0

    def on_phase(self, t: int, name: str) -> None:
        if name == "measure":
            self.reset()

    # ------------------------------------------------------------- batch path

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        arr = np.asarray(vpns, dtype=np.int64)
        n = arr.size
        if n == 0:
            return
        m = self._carry.size
        concat = np.concatenate((self._carry, arr))
        cut = max(0, concat.size - self.tau + 1)  # the next carry's start
        # t = self._t + p is sampled iff (t+1) % sample_every == 0
        first = (-(self._t + 1)) % self.sample_every
        ends = np.arange(m + first, m + n, self.sample_every)
        if self._threshold is None:
            self.tracked_accesses += n
            if ends.size:
                sizes = window_distinct(prev_occurrence(concat), self.tau)[ends]
        else:
            fresh = _tracked(arr, self._salt, self._threshold)
            self.tracked_accesses += int(np.count_nonzero(fresh))
            tracked = np.concatenate((self._carry_tracked, fresh))
            if ends.size:
                # over the tracked positions only: their links are exact
                # (tracking is per VPN), and a tracked position counts for
                # the window ends in [max(j, prev + tau), j + tau)
                tp = tracked.nonzero()[0]
                link = prev_occurrence(concat[tp])
                enter = np.where(link >= 0, np.maximum(tp, tp[link] + self.tau), tp)
                enter.sort()
                leave = tp + self.tau
                sizes = enter.searchsorted(ends, "right") - leave.searchsorted(
                    ends, "right"
                )
            self._carry_tracked = tracked[cut:].copy()
        if ends.size:
            _record(self.hists["working_set"], sizes.astype(np.int64) * self._scale)
            self.windows += ends.size
        self._t += n
        self._carry = concat[cut:].copy()

    # -------------------------------------------------------------- summaries

    def as_dict(self) -> dict:
        """JSON-ready summary (configuration, tallies, histogram)."""
        return {
            "tau": self.tau,
            "sample_every": self.sample_every,
            "rate": self.rate,
            "seed": self.seed,
            "windows": self.windows,
            "tracked_accesses": self.tracked_accesses,
            "hists": {name: h.as_dict() for name, h in self.hists.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OnlineWorkingSet tau={self.tau} every={self.sample_every} "
            f"rate={self.rate:g} windows={self.windows}>"
        )


class OnlineStackDistance(Probe):
    """Streaming Mattson/LRU stack distances over a sampled page population.

    Each batch is one :func:`~repro.analysis.stackdist.stack_distances`
    call over its tracked accesses, with the live pages it touches as the
    prefix, oldest first.  A distance that reaches back into that prefix
    must also count the live pages the batch leaves untouched but that
    were seen after the page's own last touch; one ``searchsorted`` on the
    sorted array of live stamps counts them.  State is one stamp (the
    index of its last tracked access) per tracked distinct page, kept in
    ``_last_seen`` and in that array: O(distinct tracked pages), not
    O(stream length), and a batch costs O(batch) beyond copying the array.

    With ``rate < 1`` this is the SHARDS estimator: distances are computed
    among tracked pages only and scaled by ``1/rate`` before recording.
    First-ever touches of a tracked page are counted in ``cold_accesses``
    (the offline ``COLD`` rows), not recorded in the histogram.
    """

    __slots__ = (
        "rate",
        "seed",
        "hists",
        "cold_accesses",
        "tracked_accesses",
        "_salt",
        "_threshold",
        "_last_seen",
        "_stamps",
        "_n",
    )

    batch_safe = True

    def __init__(self, rate: float = 1.0, *, seed: int = 0) -> None:
        self.rate = float(rate)
        self.seed = int(seed)
        self._salt = splitmix64(self.seed)
        self._threshold = _hash_threshold(self.rate)
        self.hists: dict[str, LogHistogram] = {}
        self.cold_accesses = 0
        self.tracked_accesses = 0
        self._last_seen: dict[int, int] = {}
        self._stamps = np.empty(0, dtype=np.int64)
        self._n = 0
        self.reset()

    # -------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Drop all collected state (fires automatically at ``measure``)."""
        self.hists = {"stack_distance": LogHistogram()}
        self.cold_accesses = 0
        self.tracked_accesses = 0
        self._last_seen = {}
        self._stamps = np.empty(0, dtype=np.int64)
        self._n = 0

    def on_phase(self, t: int, name: str) -> None:
        if name == "measure":
            self.reset()

    # ------------------------------------------------------------- batch path

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        arr = np.asarray(vpns, dtype=np.int64)
        if self._threshold is not None:
            arr = arr[_tracked(arr, self._salt, self._threshold)]
        n = arr.size
        if n == 0:
            return
        self.tracked_accesses += n
        # the batch's distinct pages, with their first and last positions
        order = arr.argsort(kind="stable")
        srt = arr[order]
        head = np.ones(n, dtype=bool)
        np.not_equal(srt[1:], srt[:-1], out=head[1:])
        head = head.nonzero()[0]
        pages, first = srt[head], order[head]
        last = order[np.append(head[1:], n) - 1]
        plist = pages.tolist()
        get = self._last_seen.get
        stamp = np.array([get(p, -1) for p in plist], dtype=np.int64)
        live = (stamp >= 0).nonzero()[0]
        live = live[stamp[live].argsort()]  # touched live pages, oldest first
        d = stack_distances(arr, prefix=pages[live])
        # at its first batch access, a touched live page's distance also
        # counts the untouched live pages seen after it: all untouched
        # ones but those older than it (pos - r of them, pos being its rank
        # among all live stamps and r among the touched ones)
        stamps = self._stamps
        pos = stamps.searchsorted(stamp[live])
        d[first[live]] += stamps.size - live.size - pos + np.arange(live.size)
        cold = d == COLD
        self.cold_accesses += int(np.count_nonzero(cold))
        scaled = np.rint(d[~cold] / self.rate).astype(np.int64)
        _record(self.hists["stack_distance"], scaled)
        # every page the batch touched now carries its last batch access
        keep = np.ones(stamps.size, dtype=bool)
        keep[pos] = False
        new = last + self._n
        self._stamps = np.concatenate((stamps[keep], np.sort(new)))
        self._last_seen.update(zip(plist, new.tolist()))
        self._n += n

    # -------------------------------------------------------------- summaries

    def estimates(self) -> dict[str, float]:
        """Unbiased scale-ups: cold (compulsory) accesses and distinct pages."""
        return {
            "cold_accesses_scaled": self.cold_accesses / self.rate,
            "distinct_pages_from_hash": len(self._last_seen) / self.rate,
        }

    def as_dict(self) -> dict:
        """JSON-ready summary (configuration, tallies, estimates, histogram)."""
        return {
            "rate": self.rate,
            "seed": self.seed,
            "cold_accesses": self.cold_accesses,
            "tracked_accesses": self.tracked_accesses,
            "tracked_pages": len(self._last_seen),
            "estimates": self.estimates(),
            "hists": {name: h.as_dict() for name, h in self.hists.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OnlineStackDistance rate={self.rate:g} seed={self.seed} "
            f"tracked={self.tracked_accesses} cold={self.cold_accesses}>"
        )
