"""The benchmark's arithmetic: percentiles under the ten-beyond rule,
ratios that carry their base, and the self time of nested spans.

Kept free of I/O so test_metrics.py can check it in isolation.
"""

import math
from collections import defaultdict, namedtuple

# A percentile is reported only when at least this many samples lie beyond
# it; with fewer, the sample cannot tell the percentile from the maximum.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile of `values` and how many samples rank
    above it. Returns (None, 0) for an empty sample."""
    if not values:
        return None, 0
    xs = sorted(values)
    rank = min(len(xs), max(1, math.ceil(q / 100.0 * len(xs))))
    return xs[rank - 1], len(xs) - rank


def supported_percentile(values, q, min_beyond=MIN_BEYOND):
    """The q-th percentile, or None when fewer than `min_beyond` samples
    lie beyond it."""
    value, beyond = percentile(values, q)
    if value is None or beyond < min_beyond:
        return None
    return value


def highest_supported(values, candidates=(99.9, 99, 95, 90, 75, 50),
                      min_beyond=MIN_BEYOND):
    """(q, value) for the highest candidate percentile the sample supports,
    or (None, None) when it supports none of them."""
    for q in candidates:
        value = supported_percentile(values, q, min_beyond)
        if value is not None:
            return q, value
    return None, None


def windowed_percentile(values, q, parts=5, min_beyond=MIN_BEYOND):
    """The q-th percentile of a time-ordered sample, made robust to bursts:
    when each of `parts` consecutive slices supports the percentile on its
    own, the median of the slices' percentiles; otherwise the percentile of
    the whole sample, or None when even that is not supported. A stall
    that recurs throughout the run shows in every slice and is kept; a
    burst confined to one slice, such as the host descheduling the run for
    a moment, is voted out."""
    n = len(values)
    slices = [values[i * n // parts:(i + 1) * n // parts] for i in range(parts)]
    per_slice = [supported_percentile(s, q, min_beyond) for s in slices]
    if all(v is not None for v in per_slice):
        return median(per_slice)
    return supported_percentile(values, q, min_beyond)


def median(values):
    """Nearest-rank median (the lower middle of an even-sized sample)."""
    return percentile(values, 50)[0]


class Ratio(namedtuple("Ratio", ["hits", "base"])):
    """A ratio that keeps its base: `hits` out of `base` attempts."""

    @property
    def value(self):
        return self.hits / self.base if self.base else 0.0


def per(total, count):
    """`total` per unit of `count`; 0 when nothing was counted."""
    return total / count if count else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. Children may overlap one another (work in
    parallel) or stick out of the parent; only the covered part of the
    parent's own interval is subtracted.

    `spans` maps span id -> (parent id or -1, start, end). Returns
    {span id: self time}, in the spans' time unit."""
    children = defaultdict(list)
    for sid, (parent, start, end) in spans.items():
        if parent in spans:
            children[parent].append((start, end))
    out = {}
    for sid, (_, start, end) in spans.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out
