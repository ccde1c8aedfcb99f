"""cpufreq governors: choosing P-states from observed utilisation.

The sampling pipeline of the paper requires executing its workloads "for
each frequency made available by the processor" — that is the
:class:`UserspaceGovernor`.  The others model the standard Linux policies
so examples and the energy-aware-scheduling ablation can explore the
frequency/energy trade-off.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.errors import ConfigurationError, FrequencyError
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.spec import CpuSpec
from repro.simcpu.topology import Topology


class Governor:
    """Base class: called once per quantum with per-CPU utilisation."""

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain) -> None:
        self.spec = spec
        self.topology = topology
        self.domain = domain

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        """Adjust per-core frequency targets for the next quantum."""
        raise NotImplementedError

    def _core_utilisation(self, cpu_busy: Mapping[int, float]
                          ) -> Dict[Tuple[int, int], float]:
        """Max thread utilisation per physical core."""
        result: Dict[Tuple[int, int], float] = {}
        for package_id, core_id in self.topology.cores():
            cpus = self.topology.core_cpus(package_id, core_id)
            result[(package_id, core_id)] = max(
                cpu_busy.get(cpu_id, 0.0) for cpu_id in cpus)
        return result


class PerformanceGovernor(Governor):
    """Always run at the maximum sustained frequency (turbo if present)."""

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain) -> None:
        super().__init__(spec, topology, domain)
        # CpuSpec is frozen, so the target is fixed for the governor's life.
        self._target_hz = (spec.turbo_frequencies_hz[-1]
                           if spec.turbo_enabled else spec.max_frequency_hz)

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        self.domain.set_all_targets(self._target_hz)


class PowersaveGovernor(Governor):
    """Always run at the minimum frequency."""

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain) -> None:
        super().__init__(spec, topology, domain)
        self._target_hz = spec.min_frequency_hz

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        self.domain.set_all_targets(self._target_hz)


class UserspaceGovernor(Governor):
    """Pin all cores to an explicitly chosen frequency."""

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain, frequency_hz: int) -> None:
        super().__init__(spec, topology, domain)
        self.set_frequency(frequency_hz)

    def set_frequency(self, frequency_hz: int) -> None:
        """Change the pinned frequency.

        A frequency outside the topology's DVFS table is a user
        configuration mistake, not a simulation-internal inconsistency,
        so it surfaces as :class:`ConfigurationError` (the same way a
        bad pipeline spec does) rather than the internal FrequencyError.
        """
        try:
            self.spec.validate_frequency(frequency_hz)
        except FrequencyError as exc:
            raise ConfigurationError(str(exc)) from None
        self._frequency_hz = frequency_hz

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        self.domain.set_all_targets(self._frequency_hz)


class OndemandGovernor(Governor):
    """Linux ondemand: jump to max when busy, decay proportionally when not.

    A core above ``up_threshold`` utilisation is immediately raised to the
    maximum frequency; below it, the target scales with utilisation (with a
    floor at the minimum P-state).
    """

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain, up_threshold: float = 0.80) -> None:
        super().__init__(spec, topology, domain)
        if not 0.0 < up_threshold <= 1.0:
            raise FrequencyError("up_threshold must be within (0, 1]")
        self.up_threshold = up_threshold

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        ladder = self.spec.frequencies_hz
        for (package_id, core_id), util in self._core_utilisation(cpu_busy).items():
            if util >= self.up_threshold:
                target = self.spec.max_frequency_hz
            else:
                wanted = util * self.spec.max_frequency_hz / self.up_threshold
                target = ladder[0]
                for frequency in ladder:
                    if frequency >= wanted:
                        target = frequency
                        break
                else:
                    target = ladder[-1]
            self.domain.set_target(package_id, core_id, target)


class ConservativeGovernor(Governor):
    """Linux conservative: step the ladder gradually instead of jumping.

    One P-state up when a core exceeds ``up_threshold``, one down when it
    falls below ``down_threshold`` — smoother (and often more
    energy-proportional) than ondemand's jump-to-max on bursty loads.
    """

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain, up_threshold: float = 0.80,
                 down_threshold: float = 0.30) -> None:
        super().__init__(spec, topology, domain)
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise FrequencyError(
                "need 0 < down_threshold < up_threshold <= 1")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._ladder = list(spec.frequencies_hz)
        self._index: Dict[Tuple[int, int], int] = {
            core: 0 for core in
            ((p, c) for p in range(spec.packages)
             for c in range(spec.cores_per_package))}

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        for core, util in self._core_utilisation(cpu_busy).items():
            index = self._index[core]
            if util >= self.up_threshold and index < len(self._ladder) - 1:
                index += 1
            elif util <= self.down_threshold and index > 0:
                index -= 1
            self._index[core] = index
            self.domain.set_target(core[0], core[1], self._ladder[index])


GOVERNORS = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
}
