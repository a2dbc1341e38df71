"""Statistics helpers shared by the benchmark worker and its tests."""

from __future__ import annotations

from array import array
from typing import NamedTuple, Sequence

# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = TAIL_BEYOND + 1


class Tail(NamedTuple):
    value: float
    percentile: float  # share of samples at or below ``value``, in percent
    samples: int


def tail(samples: Sequence[float]):
    """The sample at the highest percentile with TAIL_BEYOND samples above
    it, or ``None`` when there are fewer than TAIL_MIN_SAMPLES samples."""
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    k = n - 1 - TAIL_BEYOND
    return Tail(sorted(samples)[k], 100.0 * (k + 1) / n, n)


def fail_frac(statuses: Sequence[str]) -> float:
    """Share of items whose status is not "ok": items that raised and items
    whose output failed the check both count."""
    if not statuses:
        raise ValueError("no items attempted")
    return sum(s != "ok" for s in statuses) / len(statuses)


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> array:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Spans
    on one thread nest, so the direct children cover disjoint parts of the
    parent's interval.
    """
    own = array("d", (e - s for s, e in zip(starts, ends)))
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own
