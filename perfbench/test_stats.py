"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict

import pytest

from perfbench import tracing
from perfbench.stats import (failed_periods, floor_by_key, join_latencies,
                             percentile, period_index, report_digest,
                             reportable_tail, samples_beyond, summarize)
from perfbench.tracing import Tracer


@dataclass(frozen=True)
class Report:
    """Just the fields of an AggregatedPowerReport the helpers read."""

    time_s: float
    period_s: float = 1.0
    by_pid: Dict[int, float] = field(default_factory=dict)
    idle_w: float = 31.5
    formula: str = "m"
    gap: bool = False


# -- percentile with sample count -----------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_counts_strictly_greater_ranks():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 9
    assert samples_beyond(100, 50.0) == 50


def test_reportable_tail_needs_ten_samples_beyond():
    assert reportable_tail(1000) == 99.0
    assert reportable_tail(999) == 98.0
    assert reportable_tail(10_000) == 99.9
    assert reportable_tail(100) == 90.0
    assert reportable_tail(19) is None


def test_summarize_reports_median_tail_and_count():
    timing = summarize([float(v) for v in range(1, 1001)])
    assert timing.count == 1000
    assert timing.median == 500.5
    assert timing.tail_pct == 99.0
    assert timing.tail == 990.0
    assert "n=1000" in timing.describe("ms")
    assert summarize([1.0, 2.0]).tail_pct is None
    assert math.isnan(summarize([]).median)


# -- report-sequence digest -----------------------------------------------

def test_digest_is_order_sensitive_and_exact():
    a = Report(1.0, by_pid={1000: 2.5})
    b = Report(2.0, by_pid={1000: 3.5})
    assert report_digest([a, b]) == report_digest([a, b])
    assert report_digest([a, b]) != report_digest([b, a])
    nudged = Report(2.0, by_pid={1000: math.nextafter(3.5, 4.0)})
    assert report_digest([a, b]) != report_digest([a, nudged])
    assert report_digest([a]) != report_digest([Report(1.0, gap=True)])


def test_digest_survives_the_wire_round_trip():
    """JSON turns pid keys into strings and back; floats stay exact."""
    report = Report(0.30000000000000004, period_s=0.01,
                    by_pid={1002: 1 / 3, 1000: 2 / 7}, idle_w=31.48)
    wire = json.loads(json.dumps(
        {"by_pid": {str(p): w for p, w in report.by_pid.items()},
         "time_s": report.time_s, "idle_w": report.idle_w}))
    decoded = Report(wire["time_s"], period_s=0.01,
                     by_pid={int(p): w for p, w in wire["by_pid"].items()},
                     idle_w=wire["idle_w"])
    assert report_digest([decoded]) == report_digest([report])


# -- due-time latency join --------------------------------------------------

def test_period_index_tolerates_float_accumulation():
    time_s = sum([0.01] * 300)  # 3.0000000000000027
    assert period_index(time_s, 0.01) == 300


def test_join_latencies_matches_reports_to_their_due_time():
    due = {1: 10.0, 2: 10.002, 3: 10.004}
    arrivals = [(0.01, 10.0035), (0.02, 10.0051), (0.03, 10.0069)]
    latencies = join_latencies(due, arrivals, 0.01)
    assert latencies == pytest.approx({1: 0.0035, 2: 0.0031, 3: 0.0029})


def test_join_latencies_rejects_an_undriven_period():
    with pytest.raises(KeyError):
        join_latencies({1: 0.0}, [(0.02, 1.0)], 0.01)


def test_floor_by_key_takes_the_least_value_of_each_key():
    rows = [{1: 3.0, 2: 1.0, 3: 9.0}, {1: 2.0, 2: 4.0}, {1: 5.0, 2: 0.5}]
    assert floor_by_key(rows) == {1: 2.0, 2: 0.5}
    assert floor_by_key([]) == {}


# -- failed-period accounting -----------------------------------------------

def test_failed_periods_counts_missing_and_gap_periods():
    reports = [Report(1.0), Report(2.0, gap=True), Report(4.0)]
    assert failed_periods(4, 1.0, reports) == 2  # period 2 gap, 3 missing


def test_failed_periods_counts_published_but_not_received():
    reports = [Report(float(t)) for t in (1, 2, 3)]
    received = [Report(1.0), Report(3.0)]
    assert failed_periods(3, 1.0, reports, received) == 1
    assert failed_periods(3, 1.0, reports, reports) == 0


def test_failed_periods_ignores_reports_outside_the_run():
    reports = [Report(float(t)) for t in (1, 2, 3, 4)]
    assert failed_periods(3, 1.0, reports) == 0
    assert failed_periods(5, 1.0, reports) == 1


# -- span self time ---------------------------------------------------------

def test_self_time_excludes_child_spans(monkeypatch):
    tracer = Tracer()
    # outer starts, inner starts, inner ends, outer ends
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    inner = tracer._wrap(lambda: 7, "inner")
    outer = tracer._wrap(lambda: inner() + 1, "outer")

    assert outer() == 8
    stats = tracer.take()
    assert stats["outer"].total_s == 10.0
    assert stats["outer"].self_s == 8.0
    assert stats["inner"].self_s == 2.0
    assert stats["outer"].result_sum == 8
    assert tracer.edges() == {"inner<-outer": 1, "outer<-root": 1}
    assert tracer.take() == {}
