"""Generators for live monitoring scenarios (kernel + PowerAPI runs).

A :class:`LiveScenario` is everything needed to build one monitored
kernel and drive it the same way twice: the workload, the quantum and
sampling period, the HPC events, an optional fault plan with restart
backoff, an optional power cap changed between ``run`` calls, the
cpufreq governor, and the lengths of those calls.  Times are whole
multiples of the quantum, so fault and cap instants fall inside the run
whatever the quantum.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import strategies as st

from repro.faults import (ActorCrash, FaultPlan, PidExit, SampleLoss,
                          SlotStarvation)
from repro.simcpu import counters as ev

#: Six events on the i3-2120's four counter slots: every target rotates.
SIX_EVENTS = ev.GENERIC_TRIO + (ev.CYCLES, ev.BRANCHES, ev.BRANCH_MISSES)

WORKLOADS = ("cpu-stress", "specjbb", "tenants", "churn")

#: Names in ``repro.os.governor.GOVERNORS``; conservative and ondemand
#: move P-states mid-segment, so steady quanta must not be skipped then.
GOVERNOR_NAMES = ("performance", "powersave", "ondemand", "conservative")


@dataclass(frozen=True)
class LiveScenario:
    """One monitored run, described well enough to repeat it exactly."""

    workload: str = "cpu-stress"
    quantum_s: float = 0.01
    #: Sampling period as a whole number of quanta.
    period_quanta: int = 10
    #: HPC events (None: the model's generic trio).
    events: Optional[Tuple[str, ...]] = None
    #: ``"hpc"`` or ``"cpu-load"`` (the procfs sensor).
    formula: str = "hpc"
    faults: Optional[FaultPlan] = None
    #: Restart backoff of the actor system (0: immediate restarts).
    backoff_s: float = 0.0
    #: Initial cap and the cap set before each later run call (None:
    #: no control loop).
    caps_w: Optional[Tuple[float, ...]] = None
    #: Quanta per ``run`` call.
    runs: Tuple[int, ...] = (100,)
    #: One of :data:`GOVERNOR_NAMES`.
    governor: str = "performance"

    @property
    def period_s(self) -> float:
        return self.period_quanta * self.quantum_s

    @property
    def total_quanta(self) -> int:
        return sum(self.runs)


@st.composite
def live_fault_plans(draw, quantum_s: float, total_quanta: int):
    """1-4 kernel faults at whole quanta inside a run of *total_quanta*."""
    at = st.integers(0, total_quanta).map(lambda n: n * quantum_s)
    length = st.integers(1, max(1, total_quanta // 2)).map(
        lambda n: n * quantum_s)
    event = st.one_of(
        st.builds(PidExit, at_s=at, index=st.integers(0, 3)),
        st.builds(SlotStarvation, at_s=at, duration_s=length,
                  slots=st.integers(0, 3)),
        st.builds(SampleLoss, at_s=at, duration_s=length),
        st.builds(ActorCrash, at_s=at, actor=st.sampled_from(
            ["formula-0", "sensor-0", "timestamp-aggregator"])),
    )
    return FaultPlan(draw(st.lists(event, min_size=1, max_size=4)))


@st.composite
def live_scenarios(draw):
    """A scenario of at most a few hundred quanta, fast enough to run
    twice per example."""
    quantum_s = draw(st.sampled_from([0.001, 0.005, 0.01]))
    runs = tuple(draw(st.lists(st.integers(1, 150), min_size=1,
                               max_size=3)))
    formula = draw(st.sampled_from(["hpc", "cpu-load"]))
    events = None
    if formula == "hpc":
        events = draw(st.sampled_from([None, SIX_EVENTS]))
    faults = None
    if draw(st.booleans()):
        faults = draw(live_fault_plans(quantum_s, sum(runs)))
    caps_w = None
    if draw(st.booleans()):
        caps_w = tuple(draw(st.lists(st.floats(20.0, 80.0), min_size=len(runs),
                                     max_size=len(runs))))
    return LiveScenario(
        workload=draw(st.sampled_from(WORKLOADS)),
        quantum_s=quantum_s,
        period_quanta=draw(st.sampled_from([1, 2, 7, 25, 100])),
        events=events,
        formula=formula,
        faults=faults,
        backoff_s=draw(st.sampled_from([0.0, 0.0, 0.03, 0.2])),
        caps_w=caps_w,
        runs=runs,
        governor=draw(st.sampled_from(GOVERNOR_NAMES)),
    )
