"""The benchmark's workloads and one *round* of the live monitoring path.

A round is one complete user run of the monitor: learn the model with
the paper's Figure-1 campaign, build the kernel, the PowerAPI pipeline
and (streamed workloads) the origin server, a relay hop and a
subscriber, then drive the simulated workload through a fixed
simulated length and tear everything down.  Every round of a workload
and seed produces the same report sequence, which is what the output
checks compare.

Two kinds of round exist:

* a *timed* round drives the pipeline with no oracle attached and
  records wall/CPU time, report arrivals and due times;
* the *reference* round runs the same inputs once, untimed and
  unstreamed, with :class:`~repro.simcpu.attribution.TrueProcessPower`
  attached and the machine energy read after every period, so the
  accuracy figures are computed off the timed path.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import ape_pct, period_index
from repro.core.monitor import PowerAPI
from repro.core.reporters import CallbackReporter
from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.os.kernel import SimKernel
from repro.simcpu import counters as ev
from repro.simcpu.attribution import TrueProcessPower
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.speccpu import spec_cpu_suite
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.stress import CpuStress, MemoryStress

#: Seconds to wait for a handshake or for the stream to drain.
STREAM_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    quantum_s: float
    period_s: float
    #: Simulated seconds per round.
    round_s: float
    #: ``spawn(kernel, seed) -> pids`` starts the monitored processes.
    spawn: Callable[[SimKernel, int], Tuple[int, ...]]
    #: HPC events the sensor opens (None: the model's generic trio).
    events: Optional[Tuple[str, ...]] = None
    #: Periods per wall second for an open-loop (paced) drive loop; None
    #: drives a closed loop as fast as the pipeline allows.
    pace_hz: Optional[float] = None
    #: Stream reports origin -> relay -> subscriber over loopback TCP.
    streamed: bool = False

    @property
    def periods(self) -> int:
        return int(round(self.round_s / self.period_s))

    @property
    def ticks(self) -> int:
        return int(round(self.round_s / self.quantum_s))


def _spawn_specjbb(round_s: float) -> Callable:
    def spawn(kernel: SimKernel, seed: int) -> Tuple[int, ...]:
        return (kernel.spawn(SpecJbbWorkload(duration_s=round_s, threads=4,
                                             seed=seed),
                             name="specjbb2013"),)
    return spawn


def _spawn_cpu_stress(round_s: float) -> Callable:
    def spawn(kernel: SimKernel, seed: int) -> Tuple[int, ...]:
        return (kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                       duration_s=round_s * 2),
                             name="cpu-stress"),)
    return spawn


def _spawn_tenants(round_s: float) -> Callable:
    def spawn(kernel: SimKernel, seed: int) -> Tuple[int, ...]:
        return tuple(kernel.spawn(app, name=app.name)
                     for app in spec_cpu_suite(duration_s=round_s * 2))
    return spawn


#: Six events on the i3-2120's four counter slots: multiplex pressure 1.5.
TENANT_EVENTS = ev.GENERIC_TRIO + (ev.CYCLES, ev.BRANCHES, ev.BRANCH_MISSES)

FIG3_ROUND_S = 120.0
OVERHEAD_ROUND_S = 40.0
TENANTS_ROUND_S = 10.0

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig3-jbb",
        why="Figure 3 on the live path: SPECjbb demand changes every "
            "quantum, so engine recompiles (simcpu) and thread placement "
            "(os) dominate",
        quantum_s=0.01, period_s=1.0, round_s=FIG3_ROUND_S,
        spawn=_spawn_specjbb(FIG3_ROUND_S)),
    Workload(
        name="overhead-1s",
        why="the paper's 1 s overhead setting: steady demand memoises "
            "engine and scheduler, so the per-tick perf and procfs "
            "observers carry the cost",
        quantum_s=0.001, period_s=1.0, round_s=OVERHEAD_ROUND_S,
        spawn=_spawn_cpu_stress(OVERHEAD_ROUND_S)),
    Workload(
        name="tenants-stream",
        why="six tenants sampled every tick, 6 events on 4 slots, "
            "streamed origin-relay-subscriber at a paced 500 periods/s: "
            "actors, pipeline and wire dominate",
        quantum_s=0.01, period_s=0.01, round_s=TENANTS_ROUND_S,
        spawn=_spawn_tenants(TENANTS_ROUND_S), events=TENANT_EVENTS,
        pace_hz=500.0, streamed=True),
)}


#: PowerSpy noise seed of the learning campaign.  It is fixed, not taken
#: from ``--seed``: with four 1 s windows per run the learned
#: coefficients follow the meter noise, and the accuracy figures of the
#: two steady workloads would then move with the seed by more than any
#: useful bound (see README.md).
CAMPAIGN_METER_SEED = 1234


def paper_campaign(spec) -> SamplingCampaign:
    """The Figure-1 campaign: three stressors at every frequency.

    The same grid as ``repro learn`` without ``--quick``.  It is spelled
    out here so that the benchmark's inputs cannot change when the CLI
    does.
    """
    threads = spec.num_threads
    return SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=threads),
                   MemoryStress(utilization=1.0, threads=threads,
                                working_set_bytes=64 * 1024 ** 2),
                   MemoryStress(utilization=1.0, threads=threads,
                                working_set_bytes=2 * 1024 ** 2)],
        window_s=1.0, windows_per_run=4, settle_s=0.5, quantum_s=0.05,
        meter_seed=CAMPAIGN_METER_SEED)


@dataclass
class StreamStats:
    """Delivery counters of the origin server and the relay's server."""

    queue_high_water: int = 0
    stalls: int = 0
    frames_dropped: int = 0
    bytes_sent: int = 0
    duplicates_dropped: int = 0


@dataclass
class RoundResult:
    """Everything one round measured or produced."""

    setup_s: float = 0.0
    learn_points: int = 0
    drive_wall_s: float = 0.0
    drive_cpu_s: float = 0.0
    sim_s: float = 0.0
    periods: int = 0
    #: Reports as the in-process reporter saw them, in order.
    reports: List = field(default_factory=list)
    #: (report time_s, wall arrival) at the in-process reporter.
    arrivals: List[Tuple[float, float]] = field(default_factory=list)
    #: Period index -> wall time the drive loop was due to reach its end.
    due_s: Dict[int, float] = field(default_factory=dict)
    #: Drive-loop lateness per period, seconds (paced runs only).
    lateness_s: List[float] = field(default_factory=list)
    #: Subscriber side of a streamed round (None otherwise).
    received: Optional[List] = None
    received_arrivals: List[Tuple[float, float]] = field(default_factory=list)
    #: origin_seq -> wall arrival at the subscriber.
    received_at: Dict[int, float] = field(default_factory=dict)
    reports_published: int = 0
    stream: Optional[StreamStats] = None
    #: Order/duplicate problems the subscriber saw (empty when clean).
    stream_problems: List[str] = field(default_factory=list)
    #: Monitored pids the scheduler never granted CPU time.
    starved_pids: int = 0
    # -- reference round only --
    machine_energy_j: List[float] = field(default_factory=list)
    true_energy_j: Dict[int, float] = field(default_factory=dict)


class _Subscriber:
    """The subscriber thread: drains a client, stamps every report."""

    def __init__(self, client) -> None:
        from repro.telemetry.wire import ReportEvent
        self._report_type = ReportEvent
        self.client = client
        self.events: List[Tuple[float, object]] = []
        self._cond = threading.Condition()
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._run,
                                       name="bench-subscriber", daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        try:
            for event in self.client:
                if type(event) is self._report_type:
                    arrived = clock()
                    with self._cond:
                        self.events.append((arrived, event))
                        self._cond.notify_all()
        except BaseException as exc:  # reported by the main thread
            self.error = exc
        finally:
            with self._cond:
                self._cond.notify_all()

    def wait_for(self, count: int, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(
                lambda: len(self.events) >= count or self.error is not None
                or not self.thread.is_alive(), timeout=timeout) \
                and len(self.events) >= count


def _stream_stats(servers, client) -> StreamStats:
    out = StreamStats(duplicates_dropped=client.duplicates_dropped)
    for server in servers:
        stats = server.stats()
        out.stalls += stats["stalls"]
        for sub in stats["subscribers"]:
            out.queue_high_water = max(out.queue_high_water,
                                       sub["queue_high_water"])
            out.frames_dropped += sub["frames_dropped"]
            out.bytes_sent += sub["bytes_sent"]
    return out


def run_round(workload: Workload, seed: int, reference: bool = False,
              on_phase: Optional[Callable] = None) -> RoundResult:
    """Run one round; *reference* attaches the oracles and skips the
    stream and the pacing.

    *on_phase* is called as ``on_phase("drive", origin, relay)`` right
    before the first tick and ``on_phase("teardown", origin, relay)``
    once the drive and drain are over (the servers are None when the
    round is not streamed); the traced run cuts its spans there.
    """
    # Garbage left by earlier rounds is collected here, not mid-drive.
    gc.collect()
    result = RoundResult()
    clock = time.perf_counter
    setup_start = clock()

    spec = intel_i3_2120()
    learned = learn_power_model(spec, campaign=paper_campaign(spec),
                                idle_duration_s=20.0)
    result.learn_points = len(learned.dataset)
    kernel = SimKernel(spec, quantum_s=workload.quantum_s)
    pids = workload.spawn(kernel, seed)
    api = PowerAPI(kernel, learned.model, period_s=workload.period_s)

    def on_report(report) -> None:
        result.arrivals.append((report.time_s, clock()))
        result.reports.append(report)

    builder = api.monitor(*pids).every(workload.period_s)
    if workload.events is not None:
        builder = builder.with_events(workload.events)
    builder.to(CallbackReporter(on_report))

    oracle = TrueProcessPower(kernel.machine) if reference else None
    relay = client = subscriber = origin = None
    try:
        if workload.streamed and not reference:
            origin, relay, client, subscriber = _start_stream(api, pids)
        result.setup_s = clock() - setup_start
        if on_phase is not None:
            on_phase("drive", origin, relay)
        cpu_start, wall_start = _drive(workload, api, result, reference,
                                       oracle is not None)
        if subscriber is not None:
            result.reports_published = origin.reports_published
            if not subscriber.wait_for(result.reports_published,
                                       STREAM_TIMEOUT_S):
                result.stream_problems.append(
                    f"received {len(subscriber.events)} of "
                    f"{result.reports_published} published reports "
                    f"({subscriber.error!r})")
        result.drive_cpu_s = time.process_time() - cpu_start
        result.drive_wall_s = clock() - wall_start
        if on_phase is not None:
            on_phase("teardown", origin, relay)
        result.sim_s = kernel.time_s
        result.periods = workload.periods
        result.starved_pids = sum(1 for pid in pids
                                  if kernel.process(pid).cpu_time_s == 0.0)
        if subscriber is not None:
            result.stream = _stream_stats((origin, relay.server), client)
    finally:
        if client is not None:
            client.close()
            subscriber.thread.join(timeout=STREAM_TIMEOUT_S)
        if relay is not None:
            relay.stop()
        if oracle is not None:
            oracle.detach()
        api.shutdown()
    if subscriber is not None:
        _check_stream(result, subscriber)
    if oracle is not None:
        result.true_energy_j = {pid: oracle.energy_j(pid) for pid in pids}
    return result


def _start_stream(api: PowerAPI, pids: Tuple[int, ...]):
    """Origin server, one relay hop and a subscribed client, all ready."""
    from repro.telemetry.client import TelemetryClient
    from repro.telemetry.relay import TelemetryRelay
    origin = api.serve_telemetry(overflow="block", pids=pids)
    relay = TelemetryRelay(("127.0.0.1", origin.port),
                           overflow="block").start()
    try:
        # The relay's uplink must be subscribed at the origin before the
        # first report, or the stream silently starts late.
        if not origin.wait_for_subscribers(1, timeout=STREAM_TIMEOUT_S):
            raise RuntimeError("relay uplink never subscribed to the origin")
        client = TelemetryClient("127.0.0.1", relay.port,
                                 read_timeout_s=None).connect()
    except BaseException:
        relay.stop()
        raise
    subscriber = _Subscriber(client)
    subscriber.thread.start()
    if not relay.wait_for_subscribers(1, timeout=STREAM_TIMEOUT_S):
        client.close()
        relay.stop()
        raise RuntimeError("subscriber never completed its handshake")
    return origin, relay, client, subscriber


def _drive(workload: Workload, api: PowerAPI, result: RoundResult,
           reference: bool, read_energy: bool) -> Tuple[float, float]:
    """Drive every period of the round, then flush the last report.

    Returns the CPU and wall clocks at the start of the drive; the
    caller ends the interval once a stream has drained.
    """
    clock = time.perf_counter
    period_s = workload.period_s
    pace = None if reference else workload.pace_hz
    machine = api.kernel.machine
    cpu_start = time.process_time()
    wall_start = clock()
    for index in range(1, workload.periods + 1):
        if pace is not None:
            due = wall_start + index / pace
            now = clock()
            if now < due:
                time.sleep(due - now)
            result.lateness_s.append(clock() - due)
            result.due_s[index] = due
            api.run(period_s)
        else:
            api.run(period_s)
            result.due_s[index] = clock()
        if read_energy:
            result.machine_energy_j.append(machine.energy_j)
    # The aggregator holds each period until the next one starts: the
    # last report only exists after a flush, before anything stops.
    api.flush()
    return cpu_start, wall_start


def _check_stream(result: RoundResult, subscriber: _Subscriber) -> None:
    """Collect the subscriber's reports and check order and duplicates."""
    received = []
    last_hop = last_origin = -1
    for arrived, event in subscriber.events:
        origin_seq = -1 if event.origin_seq is None else event.origin_seq
        if event.seq <= last_hop or origin_seq <= last_origin:
            result.stream_problems.append(
                f"out of order or duplicate frame: hop seq {event.seq}, "
                f"origin seq {event.origin_seq}")
        last_hop, last_origin = event.seq, origin_seq
        received.append(event.report)
        result.received_arrivals.append((event.report.time_s, arrived))
        if event.origin_seq is not None:
            result.received_at[event.origin_seq] = arrived
    result.received = received
    if subscriber.thread.is_alive():
        result.stream_problems.append("subscriber thread did not stop")
    if result.stream is not None and result.stream.duplicates_dropped:
        result.stream_problems.append(
            f"client dropped {result.stream.duplicates_dropped} duplicates")


def run_bare(workload: Workload, seed: int) -> Tuple[float, float]:
    """The same ticks on a bare kernel: no pipeline, records dropped.

    Returns (wall seconds, CPU seconds).  ``SimKernel.run`` would keep
    every tick record and inflate memory, so the twin calls ``tick``.
    """
    kernel = SimKernel(intel_i3_2120(), quantum_s=workload.quantum_s)
    workload.spawn(kernel, seed)
    tick = kernel.tick
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for _ in range(workload.ticks):
        tick()
    return time.perf_counter() - wall_start, time.process_time() - cpu_start


def machine_ape(reports: Sequence, energy_j: Sequence[float],
                period_s: float) -> List[float]:
    """Per-period APE (%) of the machine estimate against true power."""
    by_index = {period_index(r.time_s, period_s): r for r in reports
                if not r.gap}
    errors = []
    previous = 0.0
    for index, energy in enumerate(energy_j, start=1):
        true_w = (energy - previous) / period_s
        previous = energy
        report = by_index.get(index)
        if report is not None and true_w > 0.0:
            errors.append(ape_pct(report.total_w, true_w))
    return errors


def attribution_ape(reports: Sequence, true_energy_j: Dict[int, float]
                    ) -> List[float]:
    """Per-pid APE (%) of estimated vs true active energy (pids with
    non-zero true energy only)."""
    estimated: Dict[int, float] = {}
    for report in reports:
        for pid, watts in report.by_pid.items():
            estimated[pid] = estimated.get(pid, 0.0) + watts * report.period_s
    return [ape_pct(estimated.get(pid, 0.0), true)
            for pid, true in sorted(true_energy_j.items()) if true > 0.0]
