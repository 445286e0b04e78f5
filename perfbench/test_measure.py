"""The percentile rule, due-time latency arithmetic, and outcome accounting."""

import math

import numpy as np
import pytest

from measure import (
    SAMPLES_BEYOND,
    Outcomes,
    due_latencies,
    generator_lags,
    mean_of_medians,
    percentile,
    required_samples,
    samples_beyond,
    tail_summary,
)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    values = rng.exponential(size=257).tolist()
    for pct in (0, 10, 50, 90, 99, 100):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_percentile_keeps_failed_requests_infinite():
    assert percentile([1.0, math.inf, math.inf], 99.0) == math.inf
    assert percentile([1.0, 2.0, math.inf], 50.0) == 2.0


@pytest.mark.parametrize("pct, needed", [(90.0, 100), (99.0, 1000), (50.0, 20), (99.9, 10000)])
def test_required_samples_leave_ten_beyond(pct, needed):
    assert required_samples(pct) == needed
    assert samples_beyond(needed, pct) >= SAMPLES_BEYOND
    assert samples_beyond(needed - 1, pct) < SAMPLES_BEYOND


def test_samples_beyond_counts_the_top_share():
    assert samples_beyond(100, 90.0) == 10
    assert samples_beyond(99, 90.0) == 9
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(0, 90.0) == 0


def test_tail_summary_reports_count_and_refuses_thin_tails():
    values = list(range(1000))
    summary = tail_summary(values, 99.0)
    assert summary["count"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["p50"] == pytest.approx(499.5)
    assert summary["tail"] == pytest.approx(np.percentile(values, 99.0))
    with pytest.raises(ValueError, match="needs 1000 samples"):
        tail_summary(values[:999], 99.0)
    with pytest.raises(ValueError):
        tail_summary(list(range(99)), 90.0)


def test_mean_of_medians_moves_with_the_share_of_slow_rounds():
    fast, slow = [10.0, 10.0, 11.0], [14.0, 14.0, 15.0]
    # four rounds, one of them slow: the mean of medians sits a quarter of
    # the way from fast to slow, where a pooled median would read "fast"
    assert mean_of_medians([fast, fast, fast, slow]) == pytest.approx(11.0)
    assert percentile(fast * 3 + slow, 50.0) == 10.5
    assert mean_of_medians([fast, [], slow]) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        mean_of_medians([[], []])


def test_latency_runs_from_the_due_time_not_the_send():
    # request 1 was due at 0.1 but the generator stalled and sent it at 0.25;
    # its latency still starts at 0.1, so the stall is charged to it
    start = 100.0
    offsets = [0.0, 0.1, 0.2]
    completed = [100.05, 100.30, 100.26]
    assert due_latencies(start, offsets, completed) == pytest.approx([0.05, 0.20, 0.06])
    sent = [100.0, 100.25, 100.199]
    assert generator_lags(start, offsets, sent) == pytest.approx([0.0, 0.15, 0.0])


def test_latency_arithmetic_rejects_misaligned_inputs():
    with pytest.raises(ValueError):
        due_latencies(0.0, [0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        generator_lags(0.0, [0.0], [0.0, 1.0])


def test_outcomes_partition_failures_and_count_mismatched_columns():
    out = Outcomes(attempted=10, raised=1, rejected=2, incomplete=1)
    assert out.failed == 4
    assert out.error_rate == pytest.approx(0.4)
    out.record(columns=8, mismatched=2)
    out.record(columns=8, mismatched=0)
    assert out.completed_columns == 16
    assert out.mismatch_rate == pytest.approx(2 / 16)
    with pytest.raises(ValueError):
        out.record(columns=4, mismatched=5)


def test_outcomes_merge_and_empty_rates():
    empty = Outcomes()
    assert empty.error_rate == 0.0 and empty.mismatch_rate == 0.0
    a = Outcomes(attempted=3, raised=1, completed_columns=10, mismatched_columns=1)
    b = Outcomes(attempted=5, rejected=2, incomplete=1, completed_columns=30)
    merged = a.merge(b)
    assert (merged.attempted, merged.failed) == (8, 4)
    assert merged.mismatch_rate == pytest.approx(1 / 40)
