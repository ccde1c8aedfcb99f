"""A ``/proc``-like statistics view over the simulated machine.

This is the interface the CPU-load baseline (Versick et al.) and the
PowerAPI ``ProcFsSensor`` read: cumulative per-process CPU time (as
``/proc/<pid>/stat`` utime) and per-CPU busy/idle time (as ``/proc/stat``).
It consumes the machine's replayed segments, so it sees exactly what the
simulated kernel sees — no access to the hidden power model.  A segment
adds the program's per-tick addends *n* times in tick order: with one
:class:`~repro.simcpu.engine.Fold` over all its cells where
``Fold.pays`` for the segment's length and cell count, else with plain
loops.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Dict, Tuple

from repro.errors import ProcessError
from repro.simcpu.engine import Fold, TickProgram
from repro.simcpu.machine import Machine


class ProcFs:
    """Cumulative CPU accounting, per process and per logical CPU."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._pid_cpu_time_s: Dict[int, float] = defaultdict(float)
        self._cpu_busy_s: Dict[int, float] = defaultdict(float)
        self._total_time_s = 0.0
        machine.add_consumer(self._on_segment)

    def _derive(self, program: TickProgram):
        """Per-tick addends: busy seconds per CPU, CPU seconds per pid.

        Per-pid CPU time is busy_fraction * dt; it is recovered from
        retired cycles at the core's granted frequency.  A pid running
        on several CPUs keeps its addends in the tick's event order.
        """
        cpu_addends = tuple((cpu_id, busy * program.dt_s)
                            for cpu_id, busy in program.cpu_busy.items())
        pid_addends: Dict[int, list] = {}
        topology = self._machine.topology
        for (pid, cpu_id), delta in program.events.items():
            core = topology.cpu(cpu_id)
            frequency = program.core_freqs[(core.package_id, core.core_id)]
            if frequency > 0:
                pid_addends.setdefault(pid, []).append(
                    delta.get("cycles", 0.0) / frequency)
        return cpu_addends, tuple((pid, tuple(addends))
                                  for pid, addends in pid_addends.items())

    def _on_segment(self, program: TickProgram, n_ticks: int) -> None:
        derived = program.derived.get("procfs")
        if derived is None:
            derived = program.derived["procfs"] = self._derive(program)
        cpu_addends, pid_addends = derived
        if Fold.pays(n_ticks, 1 + len(cpu_addends) + len(pid_addends)):
            self._fold(program, n_ticks, cpu_addends, pid_addends)
            return
        dt = program.dt_s
        total = self._total_time_s
        for _ in repeat(None, n_ticks):
            total += dt
        self._total_time_s = total
        cpu_busy_s = self._cpu_busy_s
        for cpu_id, addend in cpu_addends:
            value = cpu_busy_s[cpu_id]
            for _ in repeat(None, n_ticks):
                value += addend
            cpu_busy_s[cpu_id] = value
        pid_cpu_time_s = self._pid_cpu_time_s
        for pid, addends in pid_addends:
            value = pid_cpu_time_s[pid]
            for _ in repeat(None, n_ticks):
                for addend in addends:
                    value += addend
            pid_cpu_time_s[pid] = value

    def _fold(self, program: TickProgram, n_ticks: int, cpu_addends,
              pid_addends) -> None:
        """The whole segment as one vectorised fold over every cell."""
        fold = program.derived.get("procfs-fold")
        if fold is None:
            fold = program.derived["procfs-fold"] = Fold(
                [(program.dt_s,)]
                + [(addend,) for _cpu_id, addend in cpu_addends]
                + [addends for _pid, addends in pid_addends])
        cpus = [cpu_id for cpu_id, _addend in cpu_addends]
        pids = [pid for pid, _addends in pid_addends]
        cpu_busy_s = self._cpu_busy_s
        pid_cpu_time_s = self._pid_cpu_time_s
        values = fold.apply([self._total_time_s]
                            + [cpu_busy_s[cpu_id] for cpu_id in cpus]
                            + [pid_cpu_time_s[pid] for pid in pids],
                            n_ticks)
        self._total_time_s = values[0]
        cpu_busy_s.update(zip(cpus, values[1:]))
        pid_cpu_time_s.update(zip(pids, values[1 + len(cpus):]))

    # -- /proc/<pid>/stat ----------------------------------------------------

    def process_cpu_time_s(self, pid: int) -> float:
        """Cumulative CPU seconds consumed by *pid*."""
        if pid not in self._pid_cpu_time_s:
            raise ProcessError(f"pid {pid} has no recorded CPU time")
        return self._pid_cpu_time_s[pid]

    def known_pids(self) -> Tuple[int, ...]:
        """Pids with any recorded CPU time, ascending."""
        return tuple(sorted(self._pid_cpu_time_s))

    # -- /proc/stat ----------------------------------------------------------

    def cpu_busy_time_s(self, cpu_id: int) -> float:
        """Cumulative busy (non-idle) seconds of one logical CPU."""
        return self._cpu_busy_s[cpu_id]

    def uptime_s(self) -> float:
        """Seconds of simulated time observed."""
        return self._total_time_s

    def machine_load(self) -> float:
        """Machine-wide CPU load in [0, 1] since boot."""
        if self._total_time_s == 0.0:
            return 0.0
        cpus = len(self._machine.topology)
        busy = sum(self._cpu_busy_s.values())
        return busy / (cpus * self._total_time_s)
