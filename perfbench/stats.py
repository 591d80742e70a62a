"""The benchmark's own arithmetic: percentiles, spreads, self time.

Kept free of any ``repro`` import so the self-tests can check it on its
own.
"""

from __future__ import annotations

import math

__all__ = [
    "percentile", "beyond", "ten_beyond", "quantile_summary",
    "interval_union", "self_times", "unattributed",
]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a *q*
    share of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q* percentile."""
    return n - max(math.ceil(q * n), 1)


def ten_beyond(n: int, q: float) -> bool:
    """The ten-beyond rule: a percentile is reported as measured only
    when at least ten samples lie beyond it (p90 needs 100 samples)."""
    return beyond(n, q) >= 10


def quantile_summary(samples) -> dict:
    """Median and p90 with the sample counts behind them."""
    n = len(samples)
    return {
        "n": n,
        "p50": percentile(samples, 0.5),
        "p90": percentile(samples, 0.9),
        "p90_beyond": beyond(n, 0.9),
        "p90_ten_beyond": ten_beyond(n, 0.9),
    }


def interval_union(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``{span id: self time}`` for spans given as ``(id, start, end,
    parent id)``.

    A span's self time is its duration minus the part of that interval
    its child spans cover; children are clipped to the parent, and
    overlapping children (another thread's spans never share a parent
    here, but a clock step could) are counted once.
    """
    by_id = {}
    children: dict = {}
    for sid, start, end, parent in spans:
        by_id[sid] = (start, end)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in by_id.items():
        covered = interval_union(
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        )
        out[sid] = max(end - start - covered, 0.0)
    return out


def unattributed(end_to_end_s: float, layer_self_s) -> float:
    """End-to-end time minus the sum of layer self times (may be
    negative when work overlaps across processes)."""
    return end_to_end_s - sum(layer_self_s)
