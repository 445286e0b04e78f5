"""Pure arithmetic of the benchmark: percentiles, due-time latency, accounting.

Kept free of numpy and of the program under test so the self-tests pin the
rules exactly and the rules cannot drift with the code they measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: a reported percentile must have at least this many samples beyond it
SAMPLES_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default ``'linear'`` method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or data[hi] == data[lo]:
        return data[lo]  # also keeps inf (a failed request) from becoming nan
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, pct: float) -> int:
    """Samples in the top ``100 - pct`` percent of ``n``: those the tail rests on.

    p90 of 100 samples and p99 of 1000 samples each rest on 10.
    """
    if n <= 0:
        return 0
    return math.floor(round(n * (100.0 - pct) / 100.0, 9))


def required_samples(pct: float, beyond: int = SAMPLES_BEYOND) -> int:
    """Smallest sample count whose ``pct``-th percentile has ``beyond`` after it."""
    n = 1
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


def tail_summary(values, tail_pct: float) -> dict:
    """Median plus the ``tail_pct``-th percentile, with the sample count.

    Raises ``ValueError`` when fewer than :data:`SAMPLES_BEYOND` samples lie
    beyond the tail percentile: such a tail is one or two outliers, not a
    measurement.
    """
    values = list(values)
    n = len(values)
    if samples_beyond(n, tail_pct) < SAMPLES_BEYOND:
        raise ValueError(
            f"p{tail_pct:g} of {n} samples has {samples_beyond(n, tail_pct)} beyond it; "
            f"needs {required_samples(tail_pct)} samples"
        )
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, tail_pct),
        "tail_pct": tail_pct,
        "count": n,
    }


def mean_of_medians(groups) -> float:
    """Mean over ``groups`` of each group's median.

    The host alternates between a fast and a slow speed for seconds at a
    time.  A median over a whole run jumps between the two speeds as their
    shares cross one half; the mean over short groups of consecutive
    samples (about a second of work each) moves only in proportion to the
    shares, so runs of the same code agree more closely.
    """
    medians = [percentile(group, 50.0) for group in groups if group]
    if not medians:
        raise ValueError("mean of medians of no samples")
    return sum(medians) / len(medians)


def due_latencies(start: float, offsets, completed) -> list[float]:
    """Open-loop latency of each request, from when it was due to be sent.

    ``start`` is the schedule's origin, ``offsets[i]`` request ``i``'s due
    time relative to it, and ``completed[i]`` when its result was ready (all
    on one clock).  Timing from the due time, not the actual send, charges a
    generator stall to every request it delayed.
    """
    if len(offsets) != len(completed):
        raise ValueError("offsets and completions differ in length")
    return [done - (start + off) for off, done in zip(offsets, completed)]


def generator_lags(start: float, offsets, sent) -> list[float]:
    """How late the generator sent each request (never negative)."""
    if len(offsets) != len(sent):
        raise ValueError("offsets and send times differ in length")
    return [max(0.0, at - (start + off)) for off, at in zip(offsets, sent)]


@dataclass
class Outcomes:
    """Failure and output-mismatch accounting for one run.

    ``attempted`` counts operations (blocks offline, requests when
    serving); ``raised``, ``rejected`` and ``incomplete`` partition the
    failed ones.  Columns are counted only for completed operations:
    ``mismatched_columns`` of ``completed_columns`` disagreed with the dense
    reference.
    """

    attempted: int = 0
    raised: int = 0
    rejected: int = 0
    incomplete: int = 0
    completed_columns: int = 0
    mismatched_columns: int = 0

    @property
    def failed(self) -> int:
        return self.raised + self.rejected + self.incomplete

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def mismatch_rate(self) -> float:
        if not self.completed_columns:
            return 0.0
        return self.mismatched_columns / self.completed_columns

    def record(self, columns: int, mismatched: int) -> None:
        """One completed operation of ``columns`` columns."""
        if not 0 <= mismatched <= columns:
            raise ValueError(f"{mismatched} mismatches in {columns} columns")
        self.completed_columns += columns
        self.mismatched_columns += mismatched

    def merge(self, other: "Outcomes") -> "Outcomes":
        return Outcomes(
            self.attempted + other.attempted,
            self.raised + other.raised,
            self.rejected + other.rejected,
            self.incomplete + other.incomplete,
            self.completed_columns + other.completed_columns,
            self.mismatched_columns + other.mismatched_columns,
        )
