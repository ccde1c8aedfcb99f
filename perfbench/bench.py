"""Orchestration of one benchmark run: rounds, checks, metrics, output.

One run measures one workload in its own process:

1. a reference round (untimed, oracles attached) fixes the expected
   report digest and the accuracy figures;
2. timed rounds repeat until their drive time reaches ``--seconds``
   (at least ``MIN_ROUNDS``); every round re-learns the model, so each
   one contributes a set-up sample as well, and each is preceded by a
   host-speed calibration (``perfbench/calibration.py``);
3. with ``--trace 1`` the budget goes to pairs of one untraced and one
   traced round, each pair with bare-kernel twins of the same ticks, and
   the per-layer table replaces the end-to-end metrics in the result
   line.

The last line of standard output is the JSON result; everything above
it is the human-readable table and the host record.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import calibration, live
from perfbench.stats import (failed_periods, floor_by_key, join_latencies,
                             median_or_nan, merge_medians, percentile,
                             report_digest, samples_beyond, summarize)
from perfbench.tracing import Tracer, stat

#: Fewest timed rounds per run: the set-up and speed medians need three.
MIN_ROUNDS = 3
#: Stop adding rounds past this much wall time, whatever the budget.
MAX_RUN_S = 120.0
#: A paced period that starts more than this late counts as late.
LATE_S = 0.001

#: (name, unit) of every end-to-end metric in the result line.
END_TO_END = (
    ("setup_s", "s"), ("sim_speed", "sim_s/s"), ("cpu_per_sim_s", "s/sim_s"),
    ("stream_p50_ms", "ms"),
    ("median_ape_pct", "%"), ("attribution_ape_pct", "%"),
    ("peak_rss_mb", "MB"),
)

#: The latency tail is printed in the table but kept out of the result
#: line: on a shared host its run-to-run spread (0.31 of the median over
#: ten seeds) is wider than any bound a gate may use.
TAIL = (("stream_p99_ms", "ms"),)

#: (name, unit) of every per-layer metric in the result line.
PER_LAYER = (
    ("simcpu.step_calls", "count"), ("simcpu.step_s", "s"),
    ("simcpu.bare_step_s", "s"),
    ("os.tick_calls", "count"), ("os.tick_self_s", "s"),
    ("os.assign_s", "s"), ("os.demand_s", "s"), ("os.starved_pids", "count"),
    ("perf.observer_s", "s"), ("monitor.overhead_pct", "%"),
    ("perf.read_calls", "count"), ("perf.read_s", "s"),
    ("perf.mux_ratio", "ratio"),
    ("actors.dispatch_calls", "count"), ("actors.messages", "count"),
    ("actors.dispatch_s", "s"), ("actors.clock_s", "s"),
    ("core.predict_calls", "count"), ("core.predict_s", "s"),
    ("core.reports", "count"), ("core.gap_reports", "count"),
    ("telemetry.publish_calls", "count"),
    ("telemetry.queue_high_water", "count"), ("telemetry.stalls", "count"),
    ("telemetry.frames_dropped", "count"), ("telemetry.bytes_sent", "B"),
    ("learn.campaign_s", "s"), ("learn.fit_s", "s"),
    ("learn.points", "count"),
    ("driver.late_share", "fraction"),
    ("trace.overhead_pct", "%"),
)

#: Per-layer timings that exist only on the streamed workload; they are
#: printed in its table but kept out of the result line, where a
#: constant zero on the closed-loop workloads would read as a fake time.
STREAM_ONLY = (
    ("telemetry.publish_s", "s"), ("telemetry.hop_p50_ms", "ms"),
    ("telemetry.deliver_p50_ms", "ms"), ("driver.late_max_ms", "ms"),
)

OUT_DIR = ".perfbench_out"


def host_record(seed: int, sim_s: float, wall_s: float,
                cpu_s: float) -> Dict[str, object]:
    """Where and how long this run ran."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform(), "seed": seed,
            "simulated_s": round(sim_s, 6), "wall_s": round(wall_s, 3),
            "cpu_s": round(cpu_s, 3)}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RoundSummary:
    """What the metrics need from one timed round."""

    setup_s: float
    sim_s: float
    drive_wall_s: float
    drive_cpu_s: float
    periods: int
    failed: int
    #: Period index -> due-time-to-arrival latency of its report, seconds.
    latencies_s: Dict[int, float]
    #: Host-speed calibration just before the round (NaN if not taken).
    calibration_s: float = math.nan


class Run:
    """One workload, one seed: reference, timed rounds, checks."""

    def __init__(self, workload: live.Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.problems: List[str] = []
        #: Span aggregates of the last traced round, by phase.
        self.last_spans: Dict[str, Dict] = {}
        self.span_edges: Dict[str, int] = {}
        self.reference = live.run_round(workload, seed, reference=True)
        self.expected = report_digest(self.reference.reports)
        if len(self.reference.reports) != workload.periods:
            self.problems.append(
                f"reference run produced {len(self.reference.reports)} "
                f"reports for {workload.periods} periods")

    # -- rounds -----------------------------------------------------------

    def _keep_going(self, rounds: int, driven_s: float,
                    budget_s: float) -> bool:
        return rounds < MIN_ROUNDS or (
            driven_s < budget_s
            and time.perf_counter() - self.started < MAX_RUN_S)

    def timed_rounds(self, budget_s: float) -> List[RoundSummary]:
        """Untraced rounds until their drive time reaches *budget_s*,
        each one preceded by a host-speed calibration.

        Only a summary of each round is kept, so the reports of earlier
        rounds do not count towards the process's peak memory.
        """
        rounds: List[RoundSummary] = []
        driven = 0.0
        while self._keep_going(len(rounds), driven, budget_s):
            calibration_s = calibration.measure()
            result = live.run_round(self.workload, self.seed)
            self._check(result)
            rounds.append(self._summarize(result, calibration_s))
            driven += result.drive_wall_s
        return rounds

    def traced_pairs(self, budget_s: float
                     ) -> Tuple[List[RoundSummary], List[Dict]]:
        """Back-to-back untraced and traced rounds, each with its
        bare-kernel twin, until their drive time and the twins' reach
        *budget_s*.

        Overheads are ratios within one pair, so a host that speeds up
        or slows down during the run moves both sides alike.
        """
        rounds: List[RoundSummary] = []
        layers: List[Dict] = []
        tracer = Tracer()
        driven = 0.0
        while self._keep_going(len(layers), driven, budget_s):
            bare_wall, bare_cpu = live.run_bare(self.workload, self.seed)
            plain = live.run_round(self.workload, self.seed)
            self._check(plain)
            traced, layer, traced_bare_wall = self._traced_round(tracer)
            self._check(traced)
            layer["monitor.overhead_pct"] = (
                (plain.drive_cpu_s - bare_cpu) / bare_cpu * 100.0)
            layer["trace.overhead_pct"] = (
                (traced.drive_cpu_s / plain.drive_cpu_s - 1.0) * 100.0)
            layers.append(layer)
            rounds += [self._summarize(plain), self._summarize(traced)]
            # The twins count too, so a traced run lasts as long as an
            # untraced one.
            driven += (bare_wall + plain.drive_wall_s + traced.drive_wall_s
                       + traced_bare_wall)
        return rounds, layers

    def _summarize(self, result: live.RoundResult,
                   calibration_s: float = math.nan) -> RoundSummary:
        arrivals = (result.received_arrivals
                    if result.received is not None else result.arrivals)
        return RoundSummary(
            setup_s=result.setup_s, sim_s=result.sim_s,
            drive_wall_s=result.drive_wall_s,
            drive_cpu_s=result.drive_cpu_s, periods=result.periods,
            failed=failed_periods(result.periods, self.workload.period_s,
                                  result.reports, result.received),
            latencies_s=join_latencies(result.due_s, arrivals,
                                       self.workload.period_s),
            calibration_s=calibration_s)

    def _check(self, result: live.RoundResult) -> None:
        if report_digest(result.reports) != self.expected:
            self.problems.append("timed round's reports differ from the "
                                 "reference run")
        if result.received is not None:
            if report_digest(result.received) != self.expected:
                self.problems.append("subscriber's reports differ from "
                                     "the published ones")
            if len(result.received) != result.reports_published:
                self.problems.append(
                    f"subscriber got {len(result.received)} of "
                    f"{result.reports_published} published reports")
        self.problems.extend(result.stream_problems)

    def _traced_round(self, tracer: Tracer
                      ) -> Tuple[live.RoundResult, Dict[str, float], float]:
        """One traced round, then its traced bare-kernel twin.

        Returns the round, its per-layer figures and the twin's wall time.
        """
        stamps = {"origin": [], "relay": {}, "mux": {}}
        servers = {}

        def on_publish(args, _result, _start, end) -> None:
            server, _kind, payload = args[:3]
            if server is servers.get("origin"):
                stamps["origin"].append(end)
            elif "origin_seq" in payload:
                stamps["relay"][payload["origin_seq"]] = end

        def on_read(args, value, _start, _end) -> None:
            if value is not None:
                stamps["mux"][id(args[0])] = (value.time_enabled_s,
                                              value.time_running_s)

        phases = {}

        def on_phase(phase, origin, _relay) -> None:
            servers["origin"] = origin
            phases[phase] = tracer.take()
            if phase == "drive":
                # Counters the learning campaign read are not the
                # monitor's: the multiplex ratio covers the drive only.
                stamps["mux"].clear()

        tracer.hooks = {"telemetry.publish": on_publish,
                        "perf.read": on_read}
        with tracer:
            result = live.run_round(self.workload, self.seed,
                                    on_phase=on_phase)
            tracer.hooks = {}
            tracer.take()
            bare_wall, _ = live.run_bare(self.workload, self.seed)
            bare = tracer.take()
        setup, drive = phases["drive"], phases["teardown"]

        enabled = sum(e for e, _r in stamps["mux"].values())
        running = sum(r for _e, r in stamps["mux"].values())
        origin = stamps["origin"]
        hops = [stamps["relay"][seq] - origin[seq]
                for seq in stamps["relay"] if seq < len(origin)]
        delivers = [result.received_at[seq] - stamps["relay"][seq]
                    for seq in result.received_at if seq in stamps["relay"]]
        late = result.lateness_s
        layer = {
            "simcpu.step_calls": stat(drive, "simcpu.step", "calls"),
            "simcpu.step_s": stat(drive, "simcpu.step"),
            "simcpu.bare_step_s": stat(bare, "simcpu.step"),
            "perf.observer_s": (stat(drive, "simcpu.step")
                                - stat(bare, "simcpu.step")),
            "os.tick_calls": stat(drive, "os.tick", "calls"),
            "os.tick_self_s": stat(drive, "os.tick", "self_s"),
            "os.assign_s": stat(drive, "os.assign"),
            "os.demand_s": stat(drive, "os.demand"),
            "os.starved_pids": result.starved_pids,
            "perf.read_calls": stat(drive, "perf.read", "calls"),
            "perf.read_s": stat(drive, "perf.read"),
            "perf.mux_ratio": running / enabled if enabled else math.nan,
            "actors.dispatch_calls": stat(drive, "actors.dispatch", "calls"),
            "actors.messages": stat(drive, "actors.dispatch", "result_sum"),
            "actors.dispatch_s": stat(drive, "actors.dispatch"),
            "actors.clock_s": stat(drive, "actors.clock"),
            "core.predict_calls": stat(drive, "core.predict", "calls"),
            "core.predict_s": stat(drive, "core.predict"),
            "core.reports": len(result.reports),
            "core.gap_reports": sum(1 for r in result.reports if r.gap),
            "telemetry.publish_calls":
                stat(drive, "telemetry.publish", "calls"),
            "telemetry.publish_s": stat(drive, "telemetry.publish"),
            "learn.campaign_s": stat(setup, "learn.campaign"),
            "learn.fit_s": stat(setup, "learn.fit"),
            "learn.points": result.learn_points,
            "driver.late_share": (sum(1 for s in late if s > LATE_S)
                                  / len(late) if late else 0.0),
            "driver.late_max_ms": max(late) * 1e3 if late else 0.0,
        }
        if hops:
            layer["telemetry.hop_p50_ms"] = statistics.median(hops) * 1e3
        if delivers:
            layer["telemetry.deliver_p50_ms"] = \
                statistics.median(delivers) * 1e3
        stream = result.stream or live.StreamStats()
        layer.update({
            "telemetry.queue_high_water": stream.queue_high_water,
            "telemetry.stalls": stream.stalls,
            "telemetry.frames_dropped": stream.frames_dropped,
            "telemetry.bytes_sent": stream.bytes_sent,
        })
        self.last_spans = {"setup": setup, "drive": drive, "bare": bare}
        self.span_edges = tracer.edges()
        return result, layer, bare_wall

    # -- metrics ----------------------------------------------------------

    def accuracy(self) -> Tuple[float, float]:
        ref = self.reference
        machine = live.machine_ape(ref.reports, ref.machine_energy_j,
                                   self.workload.period_s)
        attribution = live.attribution_ape(ref.reports, ref.true_energy_j)
        return median_or_nan(machine), median_or_nan(attribution)

    def end_to_end(self, rounds: List[RoundSummary]
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """The result metrics of the timed *rounds*, and the timings as
        measured.

        Each timing is the median over rounds, so one disturbed round
        cannot move it.  In the result, the CPU-bound timings are scaled
        to the reference host by ``calibration.REFERENCE_S`` over the
        median calibration of the run: the set-up of every workload and
        the drive of a closed loop.  One calibration lasts 40 ms and is
        noisy on its own; the median over the run's rounds follows the
        host's speed from one run to the next.  A paced drive is left as
        measured: its speed is the pace, and its latency and CPU time
        follow thread wake-ups more than the CPU's speed.  Wake-ups that
        a busy host delays can last a whole run, so the paced p50 takes
        each period's latency at its best round, then the median over
        periods.
        """
        machine_ape, attribution_ape = self.accuracy()
        measured = {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "sim_speed": statistics.median(r.sim_s / r.drive_wall_s
                                           for r in rounds),
            "cpu_per_sim_s": statistics.median(r.drive_cpu_s / r.sim_s
                                               for r in rounds),
            "stream_p50_ms": statistics.median(
                statistics.median(r.latencies_s.values())
                for r in rounds) * 1e3,
            "stream_p99_ms": statistics.median(
                percentile(list(r.latencies_s.values()), 99.0)
                for r in rounds) * 1e3,
        }
        if self.workload.pace_hz is not None:
            measured["stream_p50_ms"] = statistics.median(floor_by_key(
                [r.latencies_s for r in rounds]).values()) * 1e3
        scale = calibration.REFERENCE_S / statistics.median(
            r.calibration_s for r in rounds)
        scaled = dict(measured, setup_s=measured["setup_s"] * scale)
        if self.workload.pace_hz is None:
            scaled.update({name: value / scale if name == "sim_speed"
                           else value * scale
                           for name, value in measured.items()})
        scaled.update({
            "median_ape_pct": machine_ape,
            "attribution_ape_pct": attribution_ape,
            "peak_rss_mb": peak_rss_mb(),
        })
        return scaled, measured

    @staticmethod
    def failures(rounds: List[RoundSummary]) -> Tuple[int, int]:
        return (sum(r.periods for r in rounds),
                sum(r.failed for r in rounds))


# -- output ---------------------------------------------------------------

def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "n/a"
    return f"{value:.6g}"


def print_table(title: str, rows, values: Dict[str, float],
                notes: Optional[Dict[str, str]] = None) -> None:
    print(f"== {title}")
    for name, unit in rows:
        if name not in values:
            continue
        note = (notes or {}).get(name, "")
        print(f"  {name:<28} {_fmt(values[name]):>14} {unit:<9} {note}")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float) -> int:
    """Run one workload; print the table and the result line."""
    workload = live.WORKLOADS[workload_name]
    cpu_start = time.process_time()
    bench = Run(workload, seed)
    print(f"perfbench {workload.name} (seed {seed}): {workload.why}")
    if trace:
        rounds, layers = bench.traced_pairs(seconds)
        layer = merge_medians(layers)
        print_table(f"per-layer (median of {len(layers)} traced rounds, "
                    "each paired with an untraced one)",
                    PER_LAYER + (STREAM_ONLY if workload.streamed else ()),
                    layer)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
        write_trace(workload.name, seed, layer, bench)
    else:
        rounds = bench.timed_rounds(seconds)
        e2e, measured = bench.end_to_end(rounds)
        pooled = summarize([x for r in rounds
                            for x in r.latencies_s.values()])
        per_round = min(len(r.latencies_s) for r in rounds)
        beyond = samples_beyond(per_round, 99.0)
        calibrations = [r.calibration_s for r in rounds]
        notes = {
            "setup_s": f"median of {len(rounds)} set-ups; imports "
                       f"{import_s:.3f} s once per process",
            "sim_speed": f"median of {len(rounds)} rounds of "
                         f"{workload.round_s:g} simulated s",
            "stream_p50_ms": ("median over periods of each one's best "
                              "round" if workload.pace_hz is not None
                              else "median over rounds")
                             + "; pooled as measured: "
                             + pooled.describe("ms", 1e3),
            "stream_p99_ms": f"median over rounds of each round's p99 "
                             f"({beyond} of {per_round} samples beyond it"
                             + ("" if beyond >= 10
                                else ", below the 10-sample floor") + ")",
        }
        for name, value in measured.items():
            if e2e[name] != value:
                notes[name] = (f"[as measured {_fmt(value)}] "
                               + notes.get(name, ""))
        print(f"host speed: calibration median "
              f"{statistics.median(calibrations) * 1e3:.4g} ms "
              f"(min {min(calibrations) * 1e3:.4g}, max "
              f"{max(calibrations) * 1e3:.4g}) against "
              f"{calibration.REFERENCE_S * 1e3:g} ms on the reference "
              "host; timings marked [as measured] are scaled to it")
        print_table("end-to-end", END_TO_END + TAIL, e2e, notes)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    attempted, failed = bench.failures(rounds)
    print(f"  {'failed_ratio':<28} {_fmt(failed / attempted):>14} "
          f"{'fraction':<9} {failed} of {attempted} periods")

    correct = not bench.problems
    for problem in sorted(set(bench.problems)):
        print(f"CHECK FAILED: {problem}")
    host = host_record(seed, sum(r.sim_s for r in rounds),
                       time.perf_counter() - bench.started,
                       time.process_time() - cpu_start)
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_trace(workload: str, seed: int, layer: Dict[str, float],
                bench: Run) -> None:
    """Persist the last traced round's spans and the per-layer medians."""
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    spans = {phase: {name: {"calls": s.calls, "total_s": s.total_s,
                            "self_s": s.self_s}
                     for name, s in stats.items()}
             for phase, stats in bench.last_spans.items()}
    path = out / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps({"per_layer": layer, "spans": spans,
                                "edges": bench.span_edges},
                               indent=1, sort_keys=True) + "\n")
