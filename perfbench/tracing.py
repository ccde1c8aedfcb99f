"""Spans around the public entry points of each layer, from outside.

The traced run installs :class:`Tracer` wrappers on a fixed list of
methods (kernel tick, machine step, scheduler, perf reads, actor
dispatch, the formula, telemetry publish, learning).  Each wrapper
records one span per call: its name, duration and the time its child
spans covered, so a layer's *self* time is the span's duration minus
its children.  Spans are aggregated per name, with a count per (name,
parent) edge, in memory and written out once when the run ends.  Nothing inside ``src/`` changes:
``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (owner import path, attribute, span name).  Methods are patched on
#: the class that defines them; ``fit`` is patched where the learning
#: pipeline looks it up.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.os.kernel:SimKernel", "tick", "os.tick"),
    ("repro.simcpu.machine:Machine", "step", "simcpu.step"),
    ("repro.os.scheduler:Scheduler", "assign", "os.assign"),
    ("repro.os.process:SimProcess", "poll_demand", "os.demand"),
    ("repro.perf.counting:PerfCounter", "read", "perf.read"),
    ("repro.actors.system:ActorSystem", "dispatch", "actors.dispatch"),
    ("repro.actors.clock:VirtualClock", "advance", "actors.clock"),
    ("repro.core.model:PowerModel", "predict_active", "core.predict"),
    ("repro.telemetry.server:TelemetryServer", "publish_frame",
     "telemetry.publish"),
    ("repro.core.sampling:SamplingCampaign", "run", "learn.campaign"),
    ("repro.core.sampling", "fit", "learn.fit"),
)


def _resolve(path: str) -> Any:
    module_name, _, attr = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, attr) if attr else module


class SpanStats:
    """Aggregate of every span sharing one name."""

    __slots__ = ("calls", "total_s", "self_s", "result_sum")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Sum of integer results (``dispatch`` returns messages handled).
        self.result_sum = 0


class Tracer:
    """Per-thread span stacks feeding per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        #: (child, parent) -> calls: which span caused which.
        self._edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Called as ``hook(args, result, start, end)`` after a span of
        #: that name; used for per-frame telemetry stamps and the last
        #: value of each perf counter.
        self.hooks: Dict[str, Callable] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        for owner_path, attr, name in ENTRY_POINTS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    def _stack(self) -> List[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, name: str) -> Callable:
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            # [name, time covered by children]
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    stats = tracer._stats[name]
                    stats.calls += 1
                    stats.total_s += duration
                    stats.self_s += duration - frame[1]
                    if type(result) is int:
                        stats.result_sum += result
                    tracer._edges[(name, parent)] += 1
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, result, start, end)
            return result

        span.__wrapped__ = original
        span.__name__ = getattr(original, "__name__", name)
        return span

    # -- results ---------------------------------------------------------

    def take(self) -> Dict[str, SpanStats]:
        """Return the aggregates so far and start a fresh phase."""
        with self._lock:
            stats, self._stats = self._stats, defaultdict(SpanStats)
        return dict(stats)

    def edges(self) -> Dict[str, int]:
        with self._lock:
            return {f"{child}<-{parent or 'root'}": calls
                    for (child, parent), calls in sorted(self._edges.items())}


def stat(stats: Dict[str, SpanStats], name: str,
         field: str = "total_s") -> float:
    """One field of a span aggregate, 0 when the span never ran."""
    entry: Optional[SpanStats] = stats.get(name)
    return 0.0 if entry is None else getattr(entry, field)
