"""The vectorised segment fold against the nested Python loop it replaces.

``Fold(addends).apply(values, n)`` must return exactly what adding each
cell's addend tuple *n* times, in order, in plain Python returns: the
same floats bit for bit (``repr`` tells ``-0.0`` from ``0.0``) and an
untouched int where the loop never adds to it.  Comparisons use ``==``.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

from repro.os.kernel import SimKernel
from repro.perf.counting import PerfSession
from repro.simcpu.counters import GENERIC_TRIO
from repro.simcpu.engine import FOLD_CHUNK_TICKS, Fold
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress
from tests.strategies import default_settings, fold_cells, fold_lengths
from tests.strategies.folds import CHUNK_EDGES, EDGE_VALUES


def nested_loop(values, addends, n_ticks):
    result = []
    for value, cell in zip(values, addends):
        for _ in range(n_ticks):
            for addend in cell:
                value += addend
        result.append(value)
    return result


def assert_fold_equals_loop(values, addends, n_ticks):
    expected = nested_loop(values, addends, n_ticks)
    folded = Fold(addends).apply(values, n_ticks)
    assert folded == expected
    assert [repr(value) for value in folded] == [repr(value)
                                                 for value in expected]


@given(cells=fold_cells(), n_ticks=fold_lengths)
@settings(default_settings, max_examples=300)
def test_fold_equals_nested_loop(cells, n_ticks):
    values, addends = cells
    assert_fold_equals_loop(values, addends, n_ticks)


@pytest.mark.parametrize("n_ticks", CHUNK_EDGES)
def test_chunk_boundaries(n_ticks):
    values = [0.0, -0.0, 3, 2 ** 60 + 1, 1e308, -7.25, 0.1]
    addends = [(0.1,), (), (0.3, -0.0), (1.5, 2.5, 0.1), (1e307,),
               (-1e-3, 1e-3, 7.0), (0.2, 0.7)]
    assert_fold_equals_loop(values, addends, n_ticks)


def test_signed_zero_and_empty_cells():
    values = [-0.0, -0.0, 0.0, 5, 2 ** 70 + 1]
    addends = [(-0.0,), (), (-0.0, 0.0), (), (0.5,)]
    for n_ticks in (0, 1, 2, FOLD_CHUNK_TICKS + 1):
        assert_fold_equals_loop(values, addends, n_ticks)


def test_every_edge_value_pair():
    values = [value for value in EDGE_VALUES for _ in EDGE_VALUES]
    addends = [(addend,) for _ in EDGE_VALUES for addend in EDGE_VALUES]
    assert_fold_equals_loop(values, addends, 2 * FOLD_CHUNK_TICKS + 3)


def test_memory_does_not_grow_with_the_segment():
    addends = [(0.25,), (0.1, 0.2), (1.0, 2.0, 3.0)] * 8
    values = [0.0] * len(addends)
    fold = Fold(addends)
    peaks = []
    for n_ticks in (10 * FOLD_CHUNK_TICKS, 1000 * FOLD_CHUNK_TICKS):
        tracemalloc.start()
        try:
            fold.apply(values, n_ticks)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0] + 4096


class TestCutOver:
    """Long observer-free segments fold; ticks one by one keep the loop."""

    @staticmethod
    def _kernel(monkeypatch):
        calls = []
        apply = Fold.apply

        def counting(fold, values, n_ticks):
            calls.append(n_ticks)
            return apply(fold, values, n_ticks)

        monkeypatch.setattr(Fold, "apply", counting)
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.001)
        kernel.spawn(CpuStress(utilization=1.0, threads=4, duration_s=60.0))
        session = PerfSession(kernel.machine)
        session.open_group(GENERIC_TRIO)
        return kernel, calls

    def test_long_segment_folds_engine_perf_and_procfs(self, monkeypatch):
        kernel, calls = self._kernel(monkeypatch)
        kernel.run(1.0)
        # One segment: the engine, procfs and each of the three counters.
        assert calls == [1000] * 5

    def test_per_tick_consumer_calls_keep_the_loop(self):
        # Learning campaigns call perf (3 cells) and procfs (a handful)
        # with one tick thousands of times, and a monitored run at a
        # 5 ms period replays 5-tick segments; the fold's fixed cost
        # would dominate both.  Long segments fold.
        assert not Fold.pays(1, 3)
        assert not Fold.pays(1, 9)
        assert not Fold.pays(5, 64)
        assert Fold.pays(20, 64)
        assert Fold.pays(1000, 3)

    def test_single_ticks_keep_the_loop(self, monkeypatch):
        kernel, calls = self._kernel(monkeypatch)
        kernel.machine.add_observer(lambda record: None)
        kernel.run(1.0)
        for _ in range(10):
            kernel.tick()
        assert calls == []
