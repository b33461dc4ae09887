import pytest

import stats


def test_tail_leaves_ten_samples_beyond():
    for n in (11, 12, 24, 48, 100, 1000):
        values = list(range(n))
        pct, value = stats.tail(values)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100.0 * (n - 11) / (n - 1))


def test_tail_is_the_highest_such_percentile():
    values = [5.0, 1.0, 3.0] * 8  # 24 samples, unsorted, with ties
    pct, value = stats.tail(values)
    assert stats.tail_rank(24) == 13
    assert value == sorted(values)[13]
    assert pct == pytest.approx(100.0 * 13 / 23)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_percentile_interpolates():
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert stats.percentile([0.0, 10.0], 25) == 2.5
    assert stats.percentile([7.0], 90) == 7.0
