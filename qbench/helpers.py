"""Pure helpers of the benchmark: percentiles, spreads and round composition.

Nothing here imports the program under test, so the unit tests in
``test_helpers.py`` run without it.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Hashable, Mapping, Sequence

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_samples: Sequence[float], percentile: float) -> int:
    """1-based nearest-rank index of ``percentile`` in ``sorted_samples``."""
    n = len(sorted_samples)
    return max(1, math.ceil(percentile / 100.0 * n))


def tail_percentile(samples: Sequence[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least 10 samples beyond it.

    Returns ``(percentile, value, samples_beyond)``.  The value is taken
    by nearest rank, so exactly ``samples_beyond`` samples sit above the
    reported rank.  Raises ValueError when fewer than 20 samples exist,
    because not even the median has 10 samples beyond it then.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = nearest_rank(ordered, percentile)
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1], beyond
    raise ValueError(
        f"{n} samples: no percentile >= 50 has {TAIL_MIN_BEYOND} beyond it"
    )


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def round_median_mean(rounds: Sequence[Sequence[float]]) -> float:
    """The median latency of each round, averaged over the rounds.

    Every round has the same class mix, so each round's median falls in
    the same request class.  Averaged over a run, it moves in proportion
    to the share of the run the machine spent in a slow stretch, whereas
    the median of the whole run's samples jumps from the fast to the slow
    cluster once that share passes one half.
    """
    return statistics.fmean(statistics.median(r) for r in rounds)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for constants)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Split ``total`` into whole counts proportional to ``weights``.

    Hamilton's method: floor every quota, then hand the leftover units to
    the largest fractional remainders (ties to the lower index), so the
    counts always sum to ``total`` and depend on nothing but the weights.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    weight_sum = float(sum(weights))
    if weight_sum <= 0 or any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative with a positive sum")
    quotas = [total * w / weight_sum for w in weights]
    counts = [math.floor(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for index in order[:leftover]:
        counts[index] += 1
    return counts


def zipf_counts(num_entries: int, exponent: float, total: int) -> list[int]:
    """Per-rank request counts of one round under Zipf popularity."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, num_entries + 1)]
    return largest_remainder(weights, total)


def compose_round(
    class_counts: Mapping[Hashable, int], rng: random.Random
) -> list[Hashable]:
    """One round: each class repeated its count, in seeded order.

    The counts fix the class proportions of every round; the seed only
    changes the order (and whatever per-request inputs the caller draws).
    """
    round_classes = [
        cls for cls, count in class_counts.items() for _ in range(count)
    ]
    rng.shuffle(round_classes)
    return round_classes


def seeded_flags(count: int, true_count: int, rng: random.Random) -> list[bool]:
    """``count`` booleans with exactly ``true_count`` True, in seeded order."""
    if not 0 <= true_count <= count:
        raise ValueError("true_count must lie in [0, count]")
    flags = [True] * true_count + [False] * (count - true_count)
    rng.shuffle(flags)
    return flags
