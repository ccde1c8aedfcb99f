"""Virtual clock: periodic tick messages for monitoring pipelines.

PowerAPI sensors sample on a monitoring period.  The :class:`VirtualClock`
is driven by simulated time (the host calls :meth:`advance` as the kernel
steps, and asks :meth:`steps_to_next_tick` how far it may step before the
next sample is due) and publishes a :class:`ClockTick` on the event bus
whenever a period boundary passes, so every subscribed Sensor fires at
its configured rate regardless of the kernel quantum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from repro.actors.eventbus import EventBus
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ClockTick:
    """Published once per monitoring period."""

    #: Simulated time of the tick, seconds.
    time_s: float
    #: Length of the period that ended at ``time_s``.
    period_s: float


class VirtualClock:
    """Period generator over simulated time."""

    def __init__(self, bus: EventBus, period_s: float = 1.0) -> None:
        if period_s <= 0:
            raise ConfigurationError("clock period must be positive")
        self.bus = bus
        self.period_s = period_s
        self._elapsed_s = 0.0
        self._time_s = 0.0
        self.ticks_emitted = 0

    def advance(self, dt_s: float, steps: int = 1) -> int:
        """Advance simulated time by *steps* increments of *dt_s*;
        publish one tick per completed period.

        The increments are applied one at a time, exactly as *steps*
        separate calls would, so the tick times are bit-identical.
        Returns the number of ticks published for this advance.
        """
        if dt_s < 0:
            raise ConfigurationError("cannot advance time backwards")
        threshold = self.period_s - 1e-12
        published = 0
        for _ in repeat(None, steps):
            self._elapsed_s += dt_s
            self._time_s += dt_s
            while self._elapsed_s >= threshold:
                self._elapsed_s -= self.period_s
                self.ticks_emitted += 1
                published += 1
                self.bus.publish(ClockTick(
                    time_s=self._time_s - self._elapsed_s,
                    period_s=self.period_s,
                ))
        return published

    def steps_to_next_tick(self, dt_s: float, limit: int) -> int:
        """Increments of *dt_s* until the next tick publishes, at most
        *limit*.

        Repeats the float additions :meth:`advance` will perform, so the
        count is exact, not a rounded ``period / dt``.
        """
        elapsed = self._elapsed_s
        threshold = self.period_s - 1e-12
        steps = 0
        while steps < limit:
            steps += 1
            elapsed += dt_s
            if elapsed >= threshold:
                break
        return steps
