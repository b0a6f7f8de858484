import pytest

import quantiles


@pytest.mark.parametrize(
    "n, pct",
    [
        (1000, 99.0),   # rank 990: exactly 10 beyond
        (999, 95.0),    # p99 would leave 9 beyond
        (10_000, 99.9),
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(1, n + 1)]
    got_pct, value = quantiles.tail(values)
    assert got_pct == pct
    assert sum(v > value for v in values) >= quantiles.MIN_BEYOND


def test_tail_none_below_twenty_samples():
    assert quantiles.tail([1.0] * 19) is None


def test_tail_ignores_input_order():
    values = [float(i) for i in range(1000)]
    assert quantiles.tail(values[::-1]) == quantiles.tail(values)


def test_quartiles_match_statistics_and_single_value():
    assert quantiles.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, med, q3 = quantiles.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert quantiles.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def scaled(factor):
    return [v * factor for v in BASE]


@pytest.mark.parametrize(
    "new, bound, better, want",
    [
        (scaled(1.0), 0.1, "lower", "unchanged"),
        (scaled(1.05), 0.1, "lower", "unchanged"),   # worse, within bound
        (scaled(1.2), 0.1, "lower", "regressed"),
        (scaled(0.8), 0.1, "lower", "improved"),
        (scaled(1.2), 0.1, "higher", "improved"),
        (scaled(0.8), 0.1, "higher", "regressed"),
        # Wider apart than the base spread but quartiles overlap.
        ([90.0, 95.0, 100.0, 105.0, 99.0, 98.0, 101.0, 97.0], 0.1, "lower",
         "unchanged"),
        # Spread wider than the bound.
        ([50.0, 150.0, 80.0, 120.0, 100.0], 0.1, "lower", "unresolved"),
    ],
)
def test_verdicts(new, bound, better, want):
    assert quantiles.verdict(BASE, new, bound, better) == want


def test_noisy_but_every_run_better_is_improved():
    noisy_base = [100.0, 140.0, 90.0, 130.0]
    assert quantiles.verdict(noisy_base, [40.0, 50.0, 45.0], 0.1, "lower") == "improved"


def test_median_only_verdict_ignores_the_spread():
    noisy = [70.0, 130.0, 85.0, 115.0, 100.0, 95.0, 105.0, 60.0, 140.0, 100.0]
    assert quantiles.verdict(noisy, noisy, 0.25, "lower") == "unresolved"
    assert quantiles.verdict(noisy, noisy, 0.25, "lower",
                             judge_spread=False) == "unchanged"
    worse = [v * 1.3 for v in noisy]
    assert quantiles.verdict(noisy, worse, 0.25, "lower",
                             judge_spread=False) == "regressed"


def test_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError):
        quantiles.verdict(BASE, BASE, 0.1, "sideways")
