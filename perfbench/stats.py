"""Pure helpers of the live-path benchmark: percentiles, digests, joins.

Nothing here touches the simulator or a clock, so every function is
unit-tested in ``perfbench/test_stats.py`` and reused unchanged by the
timed, traced and reference runs.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles considered for the tail of a timing, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.99)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Timing:
    """A timing summary: median, the reportable tail, and the counts."""

    count: int
    median: float
    #: Highest percentile of ``TAIL_PERCENTILES`` with at least
    #: ``MIN_BEYOND`` samples beyond it (None when there are too few).
    tail_pct: Optional[float]
    tail: Optional[float]

    def describe(self, unit: str, scale: float = 1.0) -> str:
        """One table cell: ``p50 1.234 ms, p99 2.345 ms (n=5000)``."""
        text = f"p50 {self.median * scale:.4g} {unit}"
        if self.tail_pct is not None:
            text += f", p{self.tail_pct:g} {self.tail * scale:.4g} {unit}"
        return text + f" (n={self.count})"


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of *pct* among *count* ordered samples.

    The product is rounded first so that, e.g., 99.9 % of 10 000 is
    rank 9990 and not 9991 through float error.
    """
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (``pct`` in [0, 100]).

    Nearest rank returns an observed sample, so a tail value is always a
    latency that actually happened.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie strictly above the nearest-rank
    *pct* percentile."""
    return count - _rank(count, pct)


def reportable_tail(count: int,
                    percentiles: Sequence[float] = TAIL_PERCENTILES,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest percentile with at least *min_beyond* samples beyond."""
    best = None
    for pct in percentiles:
        if pct > 50.0 and samples_beyond(count, pct) >= min_beyond:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Timing:
    """Median plus the reportable tail of a list of timings."""
    if not values:
        return Timing(0, math.nan, None, None)
    tail_pct = reportable_tail(len(values))
    return Timing(
        count=len(values),
        median=statistics.median(values),
        tail_pct=tail_pct,
        tail=None if tail_pct is None else percentile(values, tail_pct))


def report_key(report) -> Tuple:
    """The canonical, order-sensitive identity of one aggregated report.

    Floats go through ``repr`` so the key survives a JSON round trip
    (the telemetry wire) bit for bit; ``by_pid`` is sorted because the
    wire turns its keys into strings.
    """
    return (repr(float(report.time_s)), repr(float(report.period_s)),
            tuple((int(pid), repr(float(watts)))
                  for pid, watts in sorted(report.by_pid.items())),
            repr(float(report.idle_w)), str(report.formula),
            bool(report.gap))


def report_digest(reports: Iterable) -> str:
    """SHA-256 over the ordered sequence of report keys."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr(report_key(report)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def period_index(time_s: float, period_s: float) -> int:
    """The 1-based index of the period ending at *time_s*.

    Report timestamps are sums of float quanta, so they are matched to
    their period by rounding rather than by equality.
    """
    return int(round(time_s / period_s))


def join_latencies(due_s: Mapping[int, float],
                   arrivals: Iterable[Tuple[float, float]],
                   period_s: float) -> Dict[int, float]:
    """Seconds from each report's due time to its arrival, by period.

    *due_s* maps a period index to the wall time the drive loop was due to
    reach that period's end; *arrivals* yields ``(report time_s, wall
    arrival time)``.  A report whose period has no due time (it was
    never driven) raises, because it cannot be a report of this run.
    """
    latencies = {}
    for time_s, arrived in arrivals:
        index = period_index(time_s, period_s)
        if index not in due_s:
            raise KeyError(f"report at t={time_s} has no due time")
        latencies[index] = arrived - due_s[index]
    return latencies


def floor_by_key(rows: Sequence[Mapping[int, float]]) -> Dict[int, float]:
    """Key by key, the least value across *rows* (keys missing from any
    row are left out)."""
    if not rows:
        return {}
    common = set(rows[0]).intersection(*rows[1:])
    return {key: min(row[key] for row in rows) for key in sorted(common)}


def failed_periods(periods: int, period_s: float,
                   reports: Iterable,
                   received: Optional[Iterable] = None) -> int:
    """Periods of a run that did not yield a usable report.

    A period ``1..periods`` fails when no report carries its timestamp,
    when its report is a gap, or, for a streamed run, when *received*
    (the subscriber's reports) lacks it.  Reports outside the driven
    range are ignored here; the digest check catches them.
    """
    good = {period_index(r.time_s, r.period_s or period_s)
            for r in reports if not r.gap}
    if received is not None:
        good &= {period_index(r.time_s, r.period_s or period_s)
                 for r in received if not r.gap}
    return sum(1 for index in range(1, periods + 1) if index not in good)


def ape_pct(estimated: float, true: float) -> float:
    """Absolute percentage error of *estimated* against *true*."""
    return abs(estimated - true) / true * 100.0


def median_or_nan(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def merge_medians(rows: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median across rounds (keys missing from a round are
    skipped for that round)."""
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    return {key: statistics.median([row[key] for row in rows if key in row])
            for key in keys}
