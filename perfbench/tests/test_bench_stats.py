import pytest
from lqbench.stats import (
    MIN_TAIL_SAMPLES,
    Tally,
    median_of_medians,
    min_samples_for,
    percentile,
    samples_beyond,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7.0], 90) == 7.0

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSampleRule:
    def test_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert samples_beyond(175, 90) == 17

    def test_p90_needs_one_hundred_samples(self):
        assert min_samples_for(90) == 100
        assert samples_beyond(min_samples_for(90), 90) >= MIN_TAIL_SAMPLES
        assert samples_beyond(min_samples_for(90) - 1, 90) < MIN_TAIL_SAMPLES

    def test_median_needs_twenty(self):
        assert min_samples_for(50) == 20


def test_median_of_medians():
    assert median_of_medians([[1, 100, 2], [10], [5, 6]]) == 5.5


class TestTally:
    def test_counts_every_record(self):
        tally = Tally()
        assert tally.record(True, "a")
        assert not tally.record(False, "b")
        tally.record(True, "c")
        tally.record(False, "d")
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.error_rate == 0.5
        assert tally.failures == ["b", "d"]

    def test_nothing_attempted_is_no_error(self):
        assert Tally().error_rate == 0.0
