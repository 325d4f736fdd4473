"""Summaries of timing samples: the median, the sample count, and the highest
tail percentile that still has enough samples beyond it to mean something."""

from __future__ import annotations

import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(samples, min_beyond: int = MIN_BEYOND) -> tuple[float, float] | None:
    """(p, value) for the highest p in TAIL_PERCENTILES whose nearest-rank
    value has at least ``min_beyond`` samples above its rank, else None."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n) in integers
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1]
    return None


def summarize(samples) -> dict:
    """Median and sample count, plus the tail percentile when one qualifies."""
    xs = list(samples)
    if not xs:
        raise ValueError("no samples")
    out = {"median": statistics.median(xs), "samples": len(xs)}
    tail = tail_percentile(xs)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out
