"""Arithmetic behind the benchmark's figures: medians, the tail rule,
span self time and the error rate. Pure functions, no votephase import."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# A tail figure must have at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The tail latency with the percentile it sits at and the sample count."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(latencies: list) -> Tail:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest sample, at percentile
    100 * (N - TAIL_BEYOND) / N. With fewer samples no percentile
    qualifies, and the median is reported instead, with the number of
    samples actually beyond it.
    """
    if not latencies:
        raise ValueError("tail of no samples")
    xs = sorted(latencies)
    n = len(xs)
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return Tail(xs[rank - 1], 100.0 * rank / n, n, TAIL_BEYOND)
    rank = (n + 1) // 2
    return Tail(xs[rank - 1], 100.0 * rank / n, n, n - rank)


def self_time(start: float, end: float, children: list) -> float:
    """Span duration minus the part of [start, end] its children cover.

    Children are (start, end) pairs; they may overlap (threads) or
    stick out of the parent, and only their union inside it counts.
    """
    covered = 0.0
    reach = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, reach), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            reach = c1
    return (end - start) - covered


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; an empty run is all failure."""
    if attempted < 1:
        return 1.0
    return failed / attempted


def median(values: list) -> float:
    return float(statistics.median(values))


def quartile_spread(values: list) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
