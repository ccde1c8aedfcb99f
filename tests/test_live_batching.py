"""Exact equivalence of the batched live path against per-quantum stepping.

``PowerAPI.run`` advances the kernel in segments that end at the next
deadline (clock boundary, due fault, end of run), ``SimKernel.advance``
coalesces quanta that resolve to the same compiled program into one
engine replay, and ``ProcFs``/``PerfSession`` fold whole segments at
once.  None of that may change a bit of what a user sees.  Every check
drives one scenario twice:

* **batched** — ``PowerAPI.run`` / ``run_until_idle`` as users call it;
* **reference** — a per-quantum loop (``kernel.tick()``, then the actor
  system's time, the injector, one clock step and a dispatch, every
  quantum) with :class:`LegacyObservers` attached: the per-tick procfs
  and perf-counter folds restated as plain tick observers.

Comparisons use ``==``, never ``approx``.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings

from repro.actors.supervision import RestartStrategy
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import MonitorHandle, PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.errors import ConfigurationError
from repro.faults import (ActorCrash, FaultPlan, PidExit, SampleLoss,
                          SlotStarvation)
from repro.os.governor import GOVERNORS
from repro.os.kernel import SimKernel
from repro.os.scheduler import Scheduler
from repro.perf.multiplex import MultiplexScheduler
from repro.simcpu.counters import ALL_EVENTS
from repro.simcpu.engine import BatchEngine
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.speccpu import spec_cpu_suite
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.stress import CpuStress, MemoryStress
from tests.strategies import LiveScenario, default_settings, live_scenarios
from tests.strategies.live import SIX_EVENTS

SPEC = intel_i3_2120()

MODEL = PowerModel(
    idle_w=31.48,
    formulas=[FrequencyFormula(frequency, {"instructions": 3e-9,
                                           "cache-references": 2e-8,
                                           "cache-misses": 2e-7})
              for frequency in SPEC.frequencies_hz],
    name="live-batching")


class LegacyObservers:
    """The per-tick ``ProcFs`` and ``PerfSession`` folds as tick observers.

    An executable statement of what the segment consumers must equal:
    each tick adds busy seconds per CPU, cycles over granted frequency
    per pid, and — for every enabled counter, scheduled by its own
    multiplexer mirroring the session's slot override — the matching
    (pid, cpu) deltas of its event.
    """

    def __init__(self, api: PowerAPI) -> None:
        self.machine = api.kernel.machine
        self.session = api.perf
        self.mux = MultiplexScheduler(slots=self.machine.spec.counter_slots)
        self.pid_cpu_time_s = defaultdict(float)
        self.cpu_busy_s = defaultdict(float)
        self.total_time_s = 0.0
        #: counter_id -> [raw, time_enabled_s, time_running_s]
        self.counters = {}
        self.machine.add_observer(self.on_tick)

    def on_tick(self, record) -> None:
        self.total_time_s += record.dt_s
        for cpu_id, busy in record.cpu_busy.items():
            self.cpu_busy_s[cpu_id] += busy * record.dt_s
        for (pid, cpu_id), delta in record.events.items():
            core = self.machine.topology.cpu(cpu_id)
            frequency = record.core_frequencies_hz[(core.package_id,
                                                    core.core_id)]
            if frequency > 0:
                self.pid_cpu_time_s[pid] += (delta.get("cycles", 0.0)
                                             / frequency)

        active = [counter for counter in self.session._counters.values()
                  if counter.enabled]
        self.mux.slot_override = self.session._mux.slot_override
        scheduled = self.mux.schedule(active)
        for counter in active:
            state = self.counters.setdefault(counter.counter_id,
                                             [0.0, 0.0, 0.0])
            state[1] += record.dt_s
            if counter.counter_id not in scheduled:
                continue
            state[2] += record.dt_s
            for (pid, cpu_id), delta in record.events.items():
                if ((counter.pid < 0 or counter.pid == pid)
                        and (counter.cpu < 0 or counter.cpu == cpu_id)):
                    state[0] += delta.get(counter.event, 0.0)

    def assert_matches(self, kernel: SimKernel) -> None:
        procfs = kernel.procfs
        assert dict(procfs._pid_cpu_time_s) == dict(self.pid_cpu_time_s)
        assert dict(procfs._cpu_busy_s) == dict(self.cpu_busy_s)
        assert procfs.uptime_s() == self.total_time_s
        for counter in self.session._counters.values():
            expected = self.counters.get(counter.counter_id, [0.0, 0.0, 0.0])
            assert [counter.raw, counter.time_enabled_s,
                    counter.time_running_s] == expected, counter.event


@dataclass
class Run:
    kernel: SimKernel
    api: PowerAPI
    handle: MonitorHandle
    reporter: InMemoryReporter
    legacy: Optional[LegacyObservers] = None


def spawn(kernel: SimKernel, scenario: LiveScenario):
    length_s = scenario.total_quanta * scenario.quantum_s
    if scenario.workload == "cpu-stress":
        return (kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                       duration_s=60.0), name="stress"),)
    if scenario.workload == "specjbb":
        return (kernel.spawn(SpecJbbWorkload(duration_s=60.0, threads=4,
                                             seed=3), name="specjbb"),)
    if scenario.workload == "tenants":
        return tuple(kernel.spawn(app, name=app.name)
                     for app in spec_cpu_suite(duration_s=60.0))
    # churn: two tenants exit a third and two thirds of the way in.
    return (
        kernel.spawn(CpuStress(utilization=0.7, threads=2,
                               duration_s=length_s / 3), name="short"),
        kernel.spawn(MemoryStress(utilization=0.5,
                                  duration_s=2 * length_s / 3), name="mid"),
        kernel.spawn(CpuStress(utilization=1.0, duration_s=60.0),
                     name="long"),
    )


def build(scenario: LiveScenario, legacy: bool = False) -> Run:
    kernel = SimKernel(SPEC, quantum_s=scenario.quantum_s,
                       governor_factory=GOVERNORS[scenario.governor])
    pids = spawn(kernel, scenario)
    api = PowerAPI(kernel, MODEL, period_s=scenario.period_s)
    if scenario.backoff_s:
        api.system.strategy = RestartStrategy(
            backoff_base_s=scenario.backoff_s)
    builder = api.monitor(*pids).every(scenario.period_s)
    if scenario.formula == "cpu-load":
        builder = builder.with_formula("cpu-load")
    if scenario.events is not None:
        builder = builder.with_events(scenario.events)
    if scenario.caps_w is not None:
        builder = builder.cap(scenario.caps_w[0])
    reporter = InMemoryReporter()
    handle = builder.to(reporter)
    if scenario.faults is not None:
        api.install_faults(scenario.faults)
    return Run(kernel, api, handle, reporter,
               LegacyObservers(api) if legacy else None)


def step_quantum(api: PowerAPI) -> None:
    """One quantum of the per-quantum reference loop."""
    kernel = api.kernel
    kernel.tick()
    api.system.advance_time(kernel.time_s)
    if api.injector is not None:
        api.injector.advance(kernel.time_s)
    api.clock.advance(kernel.quantum_s)
    api.system.dispatch()


def batched(api: PowerAPI, quanta: int) -> None:
    api.run(quanta * api.kernel.quantum_s)


def per_quantum(api: PowerAPI, quanta: int) -> None:
    for _ in range(quanta):
        step_quantum(api)


def drive(run: Run, scenario: LiveScenario, step) -> None:
    for index, quanta in enumerate(scenario.runs):
        if index and scenario.caps_w is not None:
            run.handle.set_cap(scenario.caps_w[index])
        step(run.api, quanta)
    run.api.flush()


def snapshot(run: Run) -> dict:
    """Everything a user (or a later sample) could observe."""
    kernel, api = run.kernel, run.api
    machine = kernel.machine
    return {
        "reports": list(run.reporter.aggregated),
        "energy_reports": list(run.reporter.energy_reports),
        "cap_events": list(run.reporter.cap_events),
        "health": [(event.time_s, event.component, event.kind,
                    event.detail) for event in run.handle.health],
        "counters": {
            counter.counter_id: (counter.event, counter.pid, counter.cpu,
                                 counter.enabled, counter.dead, counter.raw,
                                 counter.time_enabled_s,
                                 counter.time_running_s)
            for counter in api.perf._counters.values()},
        "procfs": (dict(kernel.procfs._pid_cpu_time_s),
                   dict(kernel.procfs._cpu_busy_s),
                   kernel.procfs.uptime_s()),
        "machine": (machine.time_s, machine.energy_j,
                    machine.thermal.temperature_c, machine.last_record,
                    {event: machine.counters.read(event)
                     for event in ALL_EVENTS}),
        "processes": {pid: (process.cpu_time_s, process.wall_time_s,
                            process.state)
                      for pid, process in kernel._processes.items()},
        "clock": (api.clock._time_s, api.clock._elapsed_s,
                  api.clock.ticks_emitted, api.system.clock_s),
        "injected": (None if api.injector is None
                     else list(api.injector.applied)),
    }


def assert_batched_equals_reference(scenario: LiveScenario) -> None:
    fast = build(scenario)
    drive(fast, scenario, batched)
    reference = build(scenario, legacy=True)
    drive(reference, scenario, per_quantum)
    assert snapshot(fast) == snapshot(reference)
    reference.legacy.assert_matches(reference.kernel)


CASES = {
    "steady-cpu-stress": LiveScenario(
        "cpu-stress", quantum_s=0.001, period_quanta=250,
        runs=(1000, 500)),
    # One-second periods: every segment is long enough for the engine,
    # perf and procfs to take the vectorised fold.
    "steady-long-segments": LiveScenario(
        "cpu-stress", quantum_s=0.001, period_quanta=1000,
        runs=(2500,)),
    "specjbb": LiveScenario(
        "specjbb", quantum_s=0.01, period_quanta=100, runs=(300,)),
    "six-events-on-four-slots": LiveScenario(
        "tenants", quantum_s=0.01, period_quanta=10, events=SIX_EVENTS,
        runs=(120, 80)),
    "fault-plan": LiveScenario(
        "tenants", quantum_s=0.01, period_quanta=25,
        faults=FaultPlan([PidExit(at_s=0.5, index=1),
                          SlotStarvation(at_s=0.8, duration_s=0.6, slots=0),
                          SlotStarvation(at_s=1.9, duration_s=0.3, slots=1),
                          SampleLoss(at_s=1.0, duration_s=0.4),
                          ActorCrash(at_s=1.2, actor="formula-0")]),
        backoff_s=0.15, runs=(150, 100)),
    "set-cap-mid-run": LiveScenario(
        "cpu-stress", quantum_s=0.01, period_quanta=50,
        caps_w=(500.0, 40.0, 500.0), runs=(200, 300, 100)),
    "pid-churn": LiveScenario(
        "churn", quantum_s=0.005, period_quanta=20, runs=(90, 210)),
    # The sensor restarts inside a sample-loss window: it must take its
    # baselines without reading the counters.
    "sensor-restart-in-sample-loss": LiveScenario(
        "cpu-stress", quantum_s=0.01, period_quanta=10,
        faults=FaultPlan([SampleLoss(at_s=0.5, duration_s=1.0),
                          ActorCrash(at_s=0.8, actor="sensor-0")]),
        runs=(200,)),
    # Conservative steps one P-state per quantum under the cap's
    # CeilingGovernor while demand stays the identical object: the
    # frequency generation alone must end the steady stretch.
    "conservative-ramp-under-cap": LiveScenario(
        "churn", quantum_s=0.005, period_quanta=40, governor="conservative",
        caps_w=(500.0, 45.0, 500.0), runs=(120, 150, 90)),
}


class TestBatchedEqualsPerQuantum:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_case(self, name):
        assert_batched_equals_reference(CASES[name])

    @given(scenario=live_scenarios())
    @settings(default_settings, max_examples=25)
    def test_random_scenarios(self, scenario):
        assert_batched_equals_reference(scenario)

    def test_run_until_idle(self):
        scenario = LiveScenario("churn", quantum_s=0.01, period_quanta=7,
                                runs=(300,))

        def until_idle(api, _quanta):
            api.run_until_idle(max_duration_s=2.0)

        def until_idle_per_quantum(api, _quanta):
            kernel = api.kernel
            while kernel.live_pids and kernel.time_s < 2.0:
                step_quantum(api)

        fast = build(scenario)
        drive(fast, scenario, until_idle)
        reference = build(scenario, legacy=True)
        drive(reference, scenario, until_idle_per_quantum)
        assert snapshot(fast) == snapshot(reference)
        reference.legacy.assert_matches(reference.kernel)

    def test_kernel_advance_equals_ticks(self):
        def stepped(batch: bool):
            kernel = SimKernel(SPEC, quantum_s=0.01)
            kernel.spawn(SpecJbbWorkload(duration_s=60.0, threads=4, seed=5))
            kernel.spawn(CpuStress(utilization=0.5, duration_s=0.7))
            if batch:
                record = kernel.run(1.5)
            else:
                record = [kernel.tick() for _ in range(150)][-1]
            machine = kernel.machine
            return (record, machine.time_s, machine.energy_j,
                    {event: machine.counters.read(event)
                     for event in ALL_EVENTS},
                    dict(kernel.procfs._pid_cpu_time_s),
                    [process.cpu_time_s
                     for process in kernel._processes.values()])

        assert stepped(batch=True) == stepped(batch=False)

    def test_failing_program_flushes_the_pending_segment(self):
        class FailsAt:
            def __init__(self, at_s):
                self.at_s = at_s
                self.inner = CpuStress(utilization=1.0, threads=2,
                                       duration_s=60.0)

            def demand(self, local_time_s):
                if local_time_s >= self.at_s:
                    raise ConfigurationError("program failed")
                return self.inner.demand(local_time_s)

        def state(batch: bool):
            kernel = SimKernel(SPEC, quantum_s=0.01)
            kernel.spawn(FailsAt(0.5))
            with pytest.raises(ConfigurationError):
                if batch:
                    kernel.run(1.0)
                else:
                    for _ in range(100):
                        kernel.tick()
            return (kernel.machine.time_s, kernel.machine.energy_j,
                    kernel.procfs.uptime_s(),
                    dict(kernel.procfs._pid_cpu_time_s))

        batched_state = state(batch=True)
        assert batched_state == state(batch=False)
        assert batched_state[0] > 0.0


class TestCoalescing:
    def _steady_api(self):
        kernel = SimKernel(SPEC, quantum_s=0.001)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60.0))
        api = PowerAPI(kernel, MODEL, period_s=1.0)
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        return api

    def test_default_hpc_pipeline_is_observer_free(self):
        api = self._steady_api()
        assert api.kernel.machine._observers == []

    def test_one_period_is_one_replay(self, monkeypatch):
        api = self._steady_api()
        calls = []
        replay = BatchEngine.replay

        def counting(engine, program, n_ticks):
            calls.append(n_ticks)
            return replay(engine, program, n_ticks)

        monkeypatch.setattr(BatchEngine, "replay", counting)
        api.run(1.0)
        assert calls == [1000]
        api.run(1.0)
        assert calls == [1000, 1000]

    @staticmethod
    def _count_placements(monkeypatch):
        """Count ``Scheduler.assign`` and ``BatchEngine.program`` calls."""
        calls = {"assign": 0, "program": 0}
        assign = Scheduler.assign
        program = BatchEngine.program

        def counting_assign(scheduler, demands):
            calls["assign"] += 1
            return assign(scheduler, demands)

        def counting_program(engine, assignments, dt_s):
            calls["program"] += 1
            return program(engine, assignments, dt_s)

        monkeypatch.setattr(Scheduler, "assign", counting_assign)
        monkeypatch.setattr(BatchEngine, "program", counting_program)
        return calls

    def test_steady_period_places_once(self, monkeypatch):
        api = self._steady_api()
        calls = self._count_placements(monkeypatch)
        api.run(1.0)
        assert calls == {"assign": 1, "program": 1}

    def test_changing_demand_is_placed_every_quantum(self, monkeypatch):
        kernel = SimKernel(SPEC, quantum_s=0.01)
        pid = kernel.spawn(SpecJbbWorkload(duration_s=60.0, threads=4,
                                           seed=3))
        api = PowerAPI(kernel, MODEL, period_s=1.0)
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        calls = self._count_placements(monkeypatch)
        api.run(1.0)
        assert calls == {"assign": 100, "program": 100}

    def test_pending_mail_steps_one_quantum(self, monkeypatch):
        kernel = SimKernel(SPEC, quantum_s=0.01)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60.0))
        api = PowerAPI(kernel, MODEL, period_s=1.0)
        handle = api.monitor(pid).every(1.0).cap(500.0).to(
            InMemoryReporter())
        api.run(1.0)
        calls = []
        advance = SimKernel.advance

        def counting(self, n_quanta, **kwargs):
            calls.append(n_quanta)
            return advance(self, n_quanta, **kwargs)

        monkeypatch.setattr(SimKernel, "advance", counting)
        handle.set_cap(40.0)
        api.run(1.0)
        assert calls == [1, 99]


def test_kernel_run_memory_is_bounded():
    """100k quanta keep no per-tick records: run returns the last one."""
    kernel = SimKernel(SPEC, quantum_s=0.001)
    kernel.spawn(CpuStress(utilization=1.0, duration_s=1000.0))
    kernel.run(0.01)  # compile the steady program outside the window
    tracemalloc.start()
    try:
        record = kernel.run(100.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record is kernel.machine.last_record
    assert kernel.machine.time_s > 100.0
    # The old list of 100k records alone was tens of megabytes.
    assert peak < 512 * 1024
