"""Latency percentiles and the seeded load schedules."""

from __future__ import annotations

import math
import random
import statistics

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Below this many samples only the median is reported.
MIN_TAIL_RUN = 40


def percentile(samples: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples*, linearly interpolated."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(samples: list[float]) -> dict[str, float]:
    """Median always; p90 only when at least ten samples lie beyond it.

    With fewer than forty samples the median is reported alone, since no
    percentile above it would be a tail.
    """
    if not samples:
        raise ValueError("no latency samples")
    summary = {"p50": statistics.median(samples)}
    if len(samples) >= MIN_TAIL_RUN and len(samples) * 0.1 >= TAIL_SAMPLES:
        summary["p90"] = percentile(samples, 0.9)
    return summary


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def zipf_draws(ranking: list, draws: int, exponent: float, seed: int) -> list:
    """Items of *ranking* drawn with Zipf-skewed popularity.

    The item at rank ``r`` (1-based, most popular first) has weight
    ``r ** -exponent``.
    """
    weights = [(rank + 1) ** -exponent for rank in range(len(ranking))]
    return random.Random(seed).choices(ranking, weights=weights, k=draws)


def poisson_arrivals(count: int, seconds: float, seed: int) -> list[float]:
    """Send offsets of a Poisson stream with *count* arrivals in *seconds*.

    Given its count, a Poisson process's arrival times are sorted
    independent uniforms over the window, so every round sends the same
    number of requests at the rate ``count / seconds``.
    """
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, seconds) for __ in range(count))
