"""Unit tests of the benchmark's pure helpers.

    python3 -m pytest qbench/test_helpers.py -q
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import (  # noqa: E402
    compose_round,
    largest_remainder,
    nearest_rank,
    quartiles,
    relative_spread,
    round_median_mean,
    seeded_flags,
    tail_percentile,
    zipf_counts,
)


class TestTailPercentile:
    def test_ten_samples_beyond_for_a_hundred(self):
        samples = list(range(1, 101))
        percentile, value, beyond = tail_percentile(samples)
        assert (percentile, value, beyond) == (90, 90, 10)

    @pytest.mark.parametrize("n", [20, 21, 37, 99, 100, 101, 250, 999, 1000, 5000])
    def test_highest_percentile_with_ten_beyond(self, n):
        samples = [float(i) for i in range(n)]
        random.Random(n).shuffle(samples)
        percentile, value, beyond = tail_percentile(samples)
        ordered = sorted(samples)
        assert beyond >= 10
        assert sum(1 for x in samples if x > value) == beyond
        assert value == ordered[nearest_rank(ordered, percentile) - 1]
        if percentile < 99:
            # One percentile higher would leave fewer than 10 beyond.
            assert n - nearest_rank(ordered, percentile + 1) < 10

    def test_large_runs_reach_p99(self):
        assert tail_percentile(list(range(2000)))[0] == 99

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_percentile(list(range(19)))

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0] * 10
        assert tail_percentile(samples) == tail_percentile(sorted(samples))


class TestSpread:
    def test_quartiles_match_statistics(self):
        import statistics

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_constant_series_has_zero_spread(self):
        assert relative_spread([7, 7, 7, 7]) == 0.0

    def test_relative_spread(self):
        q1, q2, q3 = quartiles([10.0, 11.0, 12.0, 13.0, 14.0])
        assert relative_spread([10.0, 11.0, 12.0, 13.0, 14.0]) == (q3 - q1) / q2


class TestRoundMedianMean:
    def test_mean_of_each_rounds_median(self):
        assert round_median_mean([[1.0, 2.0, 9.0], [4.0, 5.0, 6.0]]) == 3.5

    def test_moves_with_the_share_of_slow_rounds(self):
        # Eight rounds, k of them slow (median 20 instead of 10): the
        # whole run's median jumps once slow rounds are the majority; the
        # mean of round medians rises by the same step for each one.
        fast, slow = [9.0, 10.0, 11.0], [18.0, 20.0, 22.0]
        values = [
            round_median_mean([fast] * (8 - k) + [slow] * k) for k in range(9)
        ]
        steps = {round(b - a, 9) for a, b in zip(values, values[1:])}
        assert steps == {1.25}


class TestLargestRemainder:
    def test_sums_to_total(self):
        for total in range(0, 60):
            assert sum(largest_remainder([0.5, 0.3, 0.2], total)) == total

    def test_remainders_go_to_largest_fractions(self):
        # Quotas 3.5, 2.1, 1.4 -> floors 3, 2, 1; one unit left goes to 3.5.
        assert largest_remainder([5, 3, 2], 7) == [4, 2, 1]

    def test_ties_go_to_lower_index(self):
        assert largest_remainder([1, 1, 1], 4) == [2, 1, 1]

    def test_exact_quotas_are_kept(self):
        assert largest_remainder([1, 2, 1], 8) == [2, 4, 2]

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            largest_remainder([0, 0], 3)
        with pytest.raises(ValueError):
            largest_remainder([1, -1], 3)


class TestZipf:
    def test_counts_fall_with_rank(self):
        counts = zipf_counts(10, 1.1, 40)
        assert sum(counts) == 40
        assert counts == sorted(counts, reverse=True)

    def test_known_split(self):
        # Weights 1, 1/2, 1/3 of 11/6: quotas 6, 3, 2 exactly.
        assert zipf_counts(3, 1.0, 11) == [6, 3, 2]


class TestRoundComposition:
    MIX = {"a": 1, "b": 2, "c": 4, "d": 3}

    def test_class_proportions_are_fixed_per_round(self):
        for seed in range(20):
            round_ = compose_round(self.MIX, random.Random(seed))
            assert Counter(round_) == Counter(self.MIX)

    def test_seed_changes_order_not_proportions(self):
        rounds = [compose_round(self.MIX, random.Random(seed)) for seed in range(10)]
        assert len({tuple(r) for r in rounds}) > 1
        assert all(Counter(r) == Counter(self.MIX) for r in rounds)

    def test_same_seed_same_round(self):
        assert compose_round(self.MIX, random.Random(3)) == compose_round(
            self.MIX, random.Random(3)
        )

    def test_seeded_flags_have_fixed_count(self):
        for seed in range(10):
            flags = seeded_flags(9, 4, random.Random(seed))
            assert len(flags) == 9 and sum(flags) == 4
        with pytest.raises(ValueError):
            seeded_flags(3, 4, random.Random(0))
