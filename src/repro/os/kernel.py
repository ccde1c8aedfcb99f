"""The simulated kernel: process table, scheduling loop and time base.

:class:`SimKernel` glues the OS layer to the machine.  :meth:`advance`
is its one stepping loop.  Every quantum it polls each live process for
its demand, lets the governor adjust P-states from the previous
quantum's utilisation, lets the scheduler produce assignments, looks up
the machine's compiled :class:`~repro.simcpu.engine.TickProgram` for
them and updates process accounting.  Consecutive quanta that resolve
to the same program object are coalesced into one engine replay, so a
steady stretch costs one ``BatchEngine.replay(program, n)`` — the
machine state afterwards is bit-identical to replaying each quantum on
its own.

A *steady* quantum skips placement and the program lookup altogether:
when every live process returned the identical ``Demand`` object, in
the same order, as in the previous quantum of the same :meth:`advance`
call, and the governor left the frequency generation unchanged, the
scheduler would place the threads exactly as before and the engine
would return the pending program, so both are reused.  Nice levels,
affinities, kills, governor swaps and caps only change between calls,
which is why the comparison starts afresh with each call.

:meth:`tick` is ``advance(1)``; :meth:`run` advances for a duration and
:meth:`run_until_idle` until every process exits.  Both return only the
final :class:`~repro.simcpu.machine.TickRecord`, so memory does not
grow with the run.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, ProcessError
from repro.os.governor import Governor, PerformanceGovernor
from repro.os.process import Demand, Program, ProcessState, SimProcess
from repro.os.procfs import ProcFs
from repro.os.scheduler import Scheduler, SpreadScheduler
from repro.simcpu.machine import Machine, ThreadAssignment, TickRecord
from repro.simcpu.spec import CpuSpec

#: Default scheduling quantum, seconds (10 ms, a typical kernel tick).
DEFAULT_QUANTUM_S = 0.01


def _same_demands(demands: List[Tuple[SimProcess, Demand]],
                  previous: List[Tuple[SimProcess, Demand]]) -> bool:
    """Whether each process polled the identical Demand object, in the
    same order, as in the previous quantum."""
    if len(demands) != len(previous):
        return False
    index = 0
    for process, demand in demands:
        before = previous[index]
        if demand is not before[1] or process is not before[0]:
            return False
        index += 1
    return True


def _granted(assignments: List[ThreadAssignment]) -> Dict[int, float]:
    """CPU fraction granted per pid over one quantum's assignments."""
    granted: Dict[int, float] = {}
    for assignment in assignments:
        granted[assignment.pid] = (granted.get(assignment.pid, 0.0)
                                   + assignment.busy_fraction)
    return granted


class SimKernel:
    """Owns the machine, the process table and the scheduling loop."""

    def __init__(self, spec: CpuSpec,
                 scheduler_factory: Callable[..., Scheduler] = SpreadScheduler,
                 governor_factory: Callable[..., Governor] = PerformanceGovernor,
                 quantum_s: float = DEFAULT_QUANTUM_S) -> None:
        if quantum_s <= 0:
            raise ConfigurationError("quantum must be positive")
        self.machine = Machine(spec)
        self.scheduler = scheduler_factory(self.machine.topology)
        self.governor = governor_factory(
            spec, self.machine.topology, self.machine.frequency)
        self.procfs = ProcFs(self.machine)
        self.quantum_s = quantum_s
        self._processes: Dict[int, SimProcess] = {}
        self._next_pid = itertools.count(1000)
        self._last_busy: Dict[int, float] = {
            cpu_id: 0.0 for cpu_id in self.machine.topology.cpu_ids}

    # -- process management ---------------------------------------------

    def spawn(self, program: Program, name: str = "task",
              affinity: Optional[Set[int]] = None, nice: int = 0) -> int:
        """Create a process executing *program*; returns its pid."""
        pid = next(self._next_pid)
        self._processes[pid] = SimProcess(
            pid=pid, name=name, program=program, affinity=affinity, nice=nice)
        return pid

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid."""
        try:
            return self._processes[pid]
        except KeyError:
            raise ProcessError(f"no such pid {pid}") from None

    def kill(self, pid: int) -> None:
        """Force a process to exit immediately."""
        self.process(pid).state = ProcessState.EXITED

    @property
    def live_pids(self) -> Tuple[int, ...]:
        """Pids of processes that have not exited, ascending."""
        return tuple(sorted(pid for pid, proc in self._processes.items()
                            if proc.alive))

    # -- time base --------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Current simulated time."""
        return self.machine.time_s

    def advance(self, n_quanta: int, until_idle: bool = False,
                until_s: float = math.inf) -> int:
        """Run up to *n_quanta* scheduling quanta; returns how many ran.

        Stops early, before a quantum, once every process has exited
        (with *until_idle*) or simulated time has reached *until_s*.
        Runs of quanta that resolve to the same compiled program are
        replayed by the engine in one call; the pending run is flushed
        whenever the program changes and when the loop ends, also when
        it ends by an exception.  A steady quantum (identical demands,
        unchanged frequency generation; see the module docstring)
        reuses the pending program without asking the scheduler.
        """
        if n_quanta < 0:
            raise ConfigurationError("cannot advance a negative number "
                                     "of quanta")
        engine = self.machine._engine
        frequency = self.machine.frequency
        quantum = self.quantum_s
        processes = self._processes.values()
        time_s = self.machine.time_s
        live = not until_idle or any(process.alive for process in processes)
        pending = None
        run_length = 0
        done = 0
        granted: Dict[int, float] = {}
        # The previous quantum's (process, demand) pairs and frequency
        # generation; both describe the pending program.
        previous: List[Tuple[SimProcess, Demand]] = []
        generation = -1
        try:
            while done < n_quanta and live and time_s < until_s:
                demands: List[Tuple[SimProcess, Demand]] = []
                for process in processes:
                    if not process.alive:
                        continue
                    demand = process.poll_demand()
                    if demand is not None:
                        demands.append((process, demand))
                if until_idle:
                    live = bool(demands)

                self.governor.update(self._last_busy)
                if (frequency.generation != generation
                        or not _same_demands(demands, previous)):
                    generation = frequency.generation
                    assignments = self.scheduler.assign(demands)
                    program = engine.program(assignments, quantum)
                    if program is not pending:
                        if pending is not None:
                            flush, pending = pending, None
                            engine.replay(flush, run_length)
                        pending, run_length = program, 0
                        granted = _granted(assignments)
                        # The program owns its busy map and nothing
                        # mutates it.
                        self._last_busy = program.cpu_busy
                previous = demands
                run_length += 1
                for process, _demand in demands:
                    process.account(granted.get(process.pid, 0.0) * quantum,
                                    quantum)
                time_s += quantum
                done += 1
        finally:
            if pending is not None:
                engine.replay(pending, run_length)
        return done

    def tick(self) -> TickRecord:
        """Run one scheduling quantum."""
        self.advance(1)
        return self.machine.last_record

    def run(self, duration_s: float) -> Optional[TickRecord]:
        """Run for *duration_s* of simulated time.

        Returns the final quantum's record (None when no quantum ran).
        """
        if duration_s < 0:
            raise ConfigurationError("duration must be >= 0")
        steps = int(round(duration_s / self.quantum_s))
        if self.advance(steps) == 0:
            return None
        return self.machine.last_record

    def run_until_idle(self, max_duration_s: float = 3600.0
                       ) -> Optional[TickRecord]:
        """Run until every process has exited (bounded by *max_duration_s*).

        Returns the final quantum's record (None when no quantum ran).
        """
        deadline = self.time_s + max_duration_s
        if self.advance(sys.maxsize, until_idle=True, until_s=deadline) == 0:
            return None
        return self.machine.last_record
