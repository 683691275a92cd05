"""Order statistics under the benchmark's sample-count rule.

A percentile is only reported when at least :data:`MIN_BEYOND` samples rank
above it; otherwise a tail figure would be set by one or two outliers and
would not repeat from run to run.  :func:`summarize_ms` picks the highest
percentile in :data:`TAIL_LEVELS` the sample supports and says which one it
picked, falling back to the maximum for samples too small for any.

The machine a run shares slows down now and then, for a fraction of a
second up to minutes, by as much as half, which moves every time measured
meanwhile; it never speeds the program up.  So the benchmark reports each
figure over the quieter half of a run.  :func:`summarize_slices` groups
latencies into slices of the run (one-second windows, or scan passes) and
keeps the half with the lowest medians: its median is the median of the
kept slice medians and its tail is taken over the kept samples.
:func:`faster_half` does the same for rates measured once per slice.  A
slow episode covering less than half of a run moves neither, while a
change to the program moves every slice and so every figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import percentile

#: Samples that must rank above a reported percentile.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_LEVELS = (99.0, 90.0, 50.0)


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked strictly above the interpolated ``q``-th percentile."""
    if count <= 0:
        return 0
    return count - 1 - math.floor((count - 1) * q / 100.0)


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples leave :data:`MIN_BEYOND` beyond ``q``."""
    return samples_beyond(count, q) >= MIN_BEYOND


@dataclass(frozen=True)
class Summary:
    """Median and supported tail of one latency sample, in milliseconds."""

    count: int
    p50_ms: float
    tail_ms: float
    tail_label: str

    def describe(self) -> str:
        return (f"p50 {self.p50_ms:.2f} ms, {self.tail_label} "
                f"{self.tail_ms:.2f} ms (n={self.count})")


def summarize_ms(seconds: list[float],
                 levels: tuple[float, ...] = TAIL_LEVELS) -> Summary:
    """Summarize latency samples given in seconds; the tail is the highest
    of ``levels`` the sample supports."""
    if not seconds:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(s * 1000.0 for s in seconds)
    for q in levels:
        if supports(len(ordered), q):
            tail, label = percentile(ordered, q), f"p{q:g}"
            break
    else:
        tail, label = ordered[-1], "max"
    return Summary(count=len(ordered), p50_ms=percentile(ordered, 50.0),
                   tail_ms=tail, tail_label=label)


#: Share of slices, lowest median first, that the figures are taken over.
KEEP_SHARE = 0.5


def kept_slices(slices: dict[object, list[float]]) -> set:
    """Slices left after dropping the half with the highest medians."""
    ranked = sorted(slices, key=lambda key: median(slices[key]))
    return set(ranked[:math.ceil(KEEP_SHARE * len(ranked))])


def summarize_slices(slices: dict[object, list[float]],
                     kept: set | None = None,
                     levels: tuple[float, ...] = TAIL_LEVELS) -> Summary:
    """Median of the slice medians and the tail of the samples, both over
    the ``kept`` slices (by default :func:`kept_slices`); samples in
    seconds.  ``count`` covers every slice."""
    slices = {key: values for key, values in slices.items() if values}
    if not slices:
        raise ValueError("cannot summarize an empty sample")
    if kept is None:
        kept = kept_slices(slices)
    tail = summarize_ms([v for key in slices if key in kept
                         for v in slices[key]], levels)
    return Summary(
        count=sum(len(values) for values in slices.values()),
        p50_ms=median([median(slices[key]) for key in slices
                       if key in kept]) * 1000.0,
        tail_ms=tail.tail_ms, tail_label=f"{tail.tail_label} of {tail.count}")


def faster_half(rates: list[float]) -> float:
    """Median of the highest :data:`KEEP_SHARE` of ``rates``, one per
    slice of a run."""
    ranked = sorted(rates, reverse=True)
    return median(ranked[:math.ceil(KEEP_SHARE * len(ranked))])


def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    return percentile(sorted(values), 50.0)
