"""CPU specifications and presets.

A :class:`CpuSpec` is a static description of a simulated processor: its
topology (packages, cores, SMT threads), frequency ladder (P-states plus an
optional TurboBoost ladder), cache hierarchy and power envelope.  The presets
at the bottom of this module mirror the processors discussed in the paper:

* :func:`intel_i3_2120` — the evaluation machine of Table 1,
* :func:`intel_core2duo_e6600` — the "simple architecture" used in the
  Bertran et al. comparison (no SMT, no TurboBoost),
* :func:`intel_xeon_smt` — an SMT-heavy server part for the
  hyperthread-aware (HAPPY) comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError, FrequencyError
from repro.units import ghz, kib, mib


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of one cache level.

    ``size_bytes`` is per-instance (per core for L1/L2, per package for a
    shared L3), ``line_bytes`` the cache-line size, ``shared`` whether the
    instance is shared by all cores of a package, and ``latency_cycles`` the
    access latency used by the pipeline model.
    """

    level: int
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    shared: bool = False
    latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.level < 1 or self.level > 3:
            raise ConfigurationError(f"cache level must be 1..3, got {self.level}")
        if self.size_bytes <= 0:
            raise ConfigurationError("cache size must be positive")
        if self.line_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise ConfigurationError("cache size must be a multiple of the line size")
        if self.latency_cycles <= 0:
            raise ConfigurationError("cache latency must be positive")

    @property
    def lines(self) -> int:
        """Number of cache lines in one instance of this cache."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class PowerEnvelope:
    """Static power characteristics of the silicon.

    These drive the *hidden* ground-truth power model
    (:mod:`repro.simcpu.power`).  ``idle_w`` is the wall power of the whole
    machine with the CPU fully idle at the lowest P-state — the constant the
    paper's regression isolates (31.48 W on the i3-2120).
    """

    tdp_w: float
    idle_w: float
    #: Dynamic power of one fully-busy core at base frequency and nominal
    #: voltage, in watts.
    core_active_w: float
    #: Uncore/package power that scales with any package activity.
    uncore_active_w: float
    #: Additional watts drawn per 10^9 memory-controller transfers per second.
    dram_w_per_gtps: float

    def __post_init__(self) -> None:
        for name in ("tdp_w", "idle_w", "core_active_w", "uncore_active_w",
                     "dram_w_per_gtps"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class CpuSpec:
    """Full static description of a simulated processor."""

    vendor: str
    model: str
    packages: int
    cores_per_package: int
    threads_per_core: int
    #: Sustained P-state frequencies in hertz, ascending.
    frequencies_hz: Tuple[int, ...]
    #: TurboBoost ladder in hertz (empty when TurboBoost is absent),
    #: ascending and strictly above the highest sustained frequency.
    turbo_frequencies_hz: Tuple[int, ...]
    caches: Tuple[CacheSpec, ...]
    power: PowerEnvelope
    #: Base instructions-per-cycle of one thread running alone on a core.
    base_ipc: float = 1.6
    #: Number of programmable HPC slots per logical CPU (drives perf
    #: multiplexing).
    counter_slots: int = 4
    #: Supported C-states, deepest last, e.g. ("C0", "C1", "C3", "C6").
    cstates: Tuple[str, ...] = ("C0", "C1")

    def __post_init__(self) -> None:
        if self.packages < 1 or self.cores_per_package < 1:
            raise ConfigurationError("at least one package and one core required")
        if self.threads_per_core not in (1, 2, 4):
            raise ConfigurationError("threads_per_core must be 1, 2 or 4")
        if not self.frequencies_hz:
            raise ConfigurationError("at least one sustained frequency required")
        if list(self.frequencies_hz) != sorted(set(self.frequencies_hz)):
            raise ConfigurationError("frequencies must be ascending and unique")
        if self.turbo_frequencies_hz:
            if list(self.turbo_frequencies_hz) != sorted(set(self.turbo_frequencies_hz)):
                raise ConfigurationError("turbo frequencies must be ascending and unique")
            if self.turbo_frequencies_hz[0] <= self.frequencies_hz[-1]:
                raise ConfigurationError(
                    "turbo frequencies must exceed the highest sustained frequency")
        if self.base_ipc <= 0:
            raise ConfigurationError("base_ipc must be positive")
        if self.counter_slots < 1:
            raise ConfigurationError("at least one counter slot required")
        levels = [cache.level for cache in self.caches]
        if levels != sorted(levels) or len(set(levels)) != len(levels):
            raise ConfigurationError("caches must be ordered by unique level")
        # Governors re-request a P-state every quantum, so the membership
        # test behind validate_frequency is a set built once (not a field:
        # it stays out of equality, repr and asdict).
        object.__setattr__(self, "_frequency_set",
                           frozenset(self.all_frequencies_hz))

    # -- topology ----------------------------------------------------------

    @property
    def num_cores(self) -> int:
        """Total physical cores across all packages."""
        return self.packages * self.cores_per_package

    @property
    def num_threads(self) -> int:
        """Total logical CPUs (hardware threads) across all packages."""
        return self.num_cores * self.threads_per_core

    @property
    def smt_enabled(self) -> bool:
        """Whether Simultaneous Multi-Threading (HyperThreading) is present."""
        return self.threads_per_core > 1

    @property
    def turbo_enabled(self) -> bool:
        """Whether a TurboBoost ladder is present."""
        return bool(self.turbo_frequencies_hz)

    @property
    def dvfs_enabled(self) -> bool:
        """Whether more than one sustained P-state exists (SpeedStep)."""
        return len(self.frequencies_hz) > 1

    # -- frequencies -------------------------------------------------------

    @property
    def all_frequencies_hz(self) -> Tuple[int, ...]:
        """Sustained plus turbo frequencies, ascending."""
        return self.frequencies_hz + self.turbo_frequencies_hz

    @property
    def min_frequency_hz(self) -> int:
        """Lowest sustained frequency."""
        return self.frequencies_hz[0]

    @property
    def max_frequency_hz(self) -> int:
        """Highest sustained (non-turbo) frequency."""
        return self.frequencies_hz[-1]

    def validate_frequency(self, frequency_hz: int) -> int:
        """Return *frequency_hz* if supported, else raise FrequencyError."""
        if frequency_hz not in self._frequency_set:
            raise FrequencyError(
                f"{frequency_hz} Hz unsupported on {self.model}; "
                f"supported: {list(self.all_frequencies_hz)}")
        return frequency_hz

    # -- caches ------------------------------------------------------------

    def cache(self, level: int) -> CacheSpec:
        """Return the cache spec for *level*, raising if absent."""
        for spec in self.caches:
            if spec.level == level:
                return spec
        raise ConfigurationError(f"{self.model} has no L{level} cache")

    def specification_table(self) -> List[Tuple[str, str]]:
        """Render the Table 1 rows of the paper for this processor."""
        from repro.units import format_bytes, format_frequency

        def flag(enabled: bool) -> str:
            return "yes" if enabled else "no"

        rows = [
            ("Vendor", self.vendor),
            ("Processor", self.model.split()[0]),
            ("Model", self.model.split()[-1]),
            ("Design", f"{self.num_threads} threads"),
            ("Frequency", format_frequency(self.max_frequency_hz)),
            ("TDP", f"{self.power.tdp_w:.0f} W"),
            ("SpeedStep (DVFS)", flag(self.dvfs_enabled)),
            ("HyperThreading (SMT)", flag(self.smt_enabled)),
            ("TurboBoost (Overclocking)", flag(self.turbo_enabled)),
            ("C-states (Idle states)", flag(len(self.cstates) > 1)),
        ]
        for cache in self.caches:
            suffix = "" if cache.shared else " / core"
            rows.append((f"L{cache.level} cache",
                         f"{format_bytes(cache.size_bytes)}{suffix}"))
        return rows


def _dvfs_ladder(min_ghz: float, max_ghz: float, step_ghz: float) -> Tuple[int, ...]:
    """Build an ascending P-state ladder from *min_ghz* to *max_ghz*."""
    freqs = []
    value = min_ghz
    while value < max_ghz - 1e-9:
        freqs.append(ghz(value))
        value += step_ghz
    freqs.append(ghz(max_ghz))
    return tuple(freqs)


def intel_i3_2120() -> CpuSpec:
    """The paper's evaluation machine (Table 1): Intel Core i3-2120.

    2 cores x 2 HyperThreads = 4 threads, 3.30 GHz, TDP 65 W, SpeedStep and
    HyperThreading present, **no** TurboBoost, C-states present, 64 KB L1 and
    256 KB L2 per core, 3 MB shared L3.
    """
    return CpuSpec(
        vendor="Intel",
        model="i3 2120",
        packages=1,
        cores_per_package=2,
        threads_per_core=2,
        frequencies_hz=_dvfs_ladder(1.6, 3.3, 0.2),
        turbo_frequencies_hz=(),
        caches=(
            CacheSpec(level=1, size_bytes=kib(64), latency_cycles=4),
            CacheSpec(level=2, size_bytes=kib(256), latency_cycles=12),
            CacheSpec(level=3, size_bytes=mib(3), shared=True, latency_cycles=30),
        ),
        power=PowerEnvelope(
            tdp_w=65.0,
            idle_w=31.48,
            core_active_w=11.0,
            uncore_active_w=3.5,
            dram_w_per_gtps=18.0,
        ),
        base_ipc=1.6,
        counter_slots=4,
        cstates=("C0", "C1", "C3", "C6"),
    )


def intel_core2duo_e6600() -> CpuSpec:
    """A "simple architecture" akin to the Bertran et al. testbed.

    Intel Core 2 Duo: 2 cores, no HyperThreading, no TurboBoost — the paper
    notes decomposable models reach their best accuracy on such parts.
    """
    return CpuSpec(
        vendor="Intel",
        model="Core2Duo E6600",
        packages=1,
        cores_per_package=2,
        threads_per_core=1,
        frequencies_hz=_dvfs_ladder(1.6, 2.4, 0.2),
        turbo_frequencies_hz=(),
        caches=(
            CacheSpec(level=1, size_bytes=kib(64), latency_cycles=3),
            CacheSpec(level=2, size_bytes=mib(4), shared=True, latency_cycles=14),
        ),
        power=PowerEnvelope(
            tdp_w=65.0,
            idle_w=42.0,
            core_active_w=14.0,
            uncore_active_w=2.0,
            dram_w_per_gtps=14.0,
        ),
        base_ipc=1.3,
        counter_slots=2,
        cstates=("C0", "C1"),
    )


def intel_xeon_smt() -> CpuSpec:
    """An SMT-heavy server part for the HAPPY (hyperthread-aware) comparison.

    4 cores x 2 threads with TurboBoost, mirroring the class of machines used
    by Zhai et al. for hyperthread-aware power profiling.
    """
    return CpuSpec(
        vendor="Intel",
        model="Xeon E5-1620",
        packages=1,
        cores_per_package=4,
        threads_per_core=2,
        frequencies_hz=_dvfs_ladder(1.2, 3.6, 0.4),
        turbo_frequencies_hz=(ghz(3.7), ghz(3.8)),
        caches=(
            CacheSpec(level=1, size_bytes=kib(64), latency_cycles=4),
            CacheSpec(level=2, size_bytes=kib(256), latency_cycles=12),
            CacheSpec(level=3, size_bytes=mib(10), shared=True, latency_cycles=34),
        ),
        power=PowerEnvelope(
            tdp_w=130.0,
            idle_w=55.0,
            core_active_w=16.0,
            uncore_active_w=6.0,
            dram_w_per_gtps=22.0,
        ),
        base_ipc=1.8,
        counter_slots=4,
        cstates=("C0", "C1", "C3", "C6"),
    )


def amd_fx_8120() -> CpuSpec:
    """An AMD part, for the portability half of the paper's claim.

    The paper targets "any modern architectures (i.e. Intel, AMD)": AMD
    parts expose the same *generic* perf events but no RAPL, so the
    counter-based pipeline must work here unchanged while RAPL-based
    tooling cannot.  Modelled on the FX-8120: 4 modules x 2 clustered
    threads (treated as SMT pairs), no TurboBoost modelled.
    """
    return CpuSpec(
        vendor="AMD",
        model="FX 8120",
        packages=1,
        cores_per_package=4,
        threads_per_core=2,
        frequencies_hz=_dvfs_ladder(1.4, 3.1, 0.3),
        turbo_frequencies_hz=(),
        caches=(
            CacheSpec(level=1, size_bytes=kib(16), latency_cycles=4),
            CacheSpec(level=2, size_bytes=mib(2), latency_cycles=20),
            CacheSpec(level=3, size_bytes=mib(8), shared=True,
                      latency_cycles=40),
        ),
        power=PowerEnvelope(
            tdp_w=125.0,
            idle_w=48.0,
            core_active_w=15.0,
            uncore_active_w=5.0,
            dram_w_per_gtps=20.0,
        ),
        base_ipc=1.2,
        counter_slots=6,
        cstates=("C0", "C1", "C6"),
    )


#: Registry of named presets, for CLI/example lookups.
PRESETS: Dict[str, "CpuSpecFactory"] = {}


class CpuSpecFactory:
    """Callable wrapper that registers a preset under a stable name."""

    def __init__(self, name: str, factory) -> None:
        self.name = name
        self._factory = factory
        PRESETS[name] = self

    def __call__(self) -> CpuSpec:
        return self._factory()


i3_2120 = CpuSpecFactory("i3-2120", intel_i3_2120)
core2duo_e6600 = CpuSpecFactory("core2duo-e6600", intel_core2duo_e6600)
xeon_smt = CpuSpecFactory("xeon-e5-1620", intel_xeon_smt)
fx_8120 = CpuSpecFactory("amd-fx-8120", amd_fx_8120)


def preset(name: str) -> CpuSpec:
    """Instantiate a preset CPU spec by registry name."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown CPU preset {name!r}; available: {sorted(PRESETS)}") from None
