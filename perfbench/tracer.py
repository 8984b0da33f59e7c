"""Outside-in tracing: wrap program functions by name and account, per
wrapped function, its calls, host self-time and the simulated time that
passed inside it.

Self-time is the wrapped call's host duration minus the part its wrapped
callees cover, so each host nanosecond inside the outermost wrapped call
lands in exactly one function. A wrapper's own cost, from its entry to its
last clock read, is charged to the call it wraps, not to the caller.
Generator functions (the event-loop task forms) are timed per resume; their
simulated time runs from the first resume to completion. Simulated time is read from a wrapped ``SimClock.advance``,
so the tracer needs no handle on any cluster.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

from perfbench.patching import Patches, resolve

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Probe:
    """One wrap target.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    ``sites`` name the modules that imported a module-level function by
    name; each binding is wrapped too. ``note(tracer, stats, args, kwargs,
    result)`` records counts beyond calls and times.
    """

    layer: str
    target: str
    sites: tuple[str, ...] = ()
    note: Callable | None = None

    @property
    def key(self) -> str:
        return self.target.partition(":")[2]


@dataclass
class Stats:
    layer: str
    calls: int = 0
    resumes: int = 0
    raised: int = 0
    self_ns: int = 0
    incl_ns: int = 0
    sim_ns: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def merge(self, other: "Stats") -> None:
        self.calls += other.calls
        self.resumes += other.resumes
        self.raised += other.raised
        self.self_ns += other.self_ns
        self.incl_ns += other.incl_ns
        self.sim_ns += other.sim_ns
        for name, amount in other.counts.items():
            self.add(name, amount)


class Tracer:
    def __init__(self, probes) -> None:
        self.probes = tuple(probes)
        self.stats: dict[str, Stats] = {}
        self.missing: list[str] = []
        #: Open frames: [callee ns, start ns, simulated start ns].
        self._stack: list[list[int]] = []
        #: Simulated ns advanced on any clock since install.
        self.sim_ns = 0
        self._patches = Patches()

    # -- accounting ------------------------------------------------------

    def reset(self, *_ignored) -> None:
        """Zero every count and restart the open frames' timers: what ran
        before this instant is set-up, not measurement."""
        for stats in self.stats.values():
            stats.calls = stats.resumes = stats.raised = 0
            stats.self_ns = stats.incl_ns = stats.sim_ns = 0
            stats.counts.clear()
        now = _now()
        for frame in self._stack:
            frame[0], frame[1], frame[2] = 0, now, self.sim_ns

    def _wrap_call(self, func, stats: Stats, note):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [0, _now(), tracer.sim_ns]
            stats.calls += 1
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                stats.sim_ns += tracer.sim_ns - frame[2]
                tracer._close(frame, stats)
                raise
            stats.sim_ns += tracer.sim_ns - frame[2]
            if note is not None:
                note(tracer, stats, args, kwargs, result)
            tracer._close(frame, stats)
            return result

        return traced

    def _wrap_generator(self, func, stats: Stats, note):
        stack = self._stack
        tracer = self

        def drive(gen, args, kwargs):
            value = exc = None
            sim_start = None
            while True:
                frame = [0, _now(), 0]
                stats.resumes += 1
                if sim_start is None:
                    sim_start = tracer.sim_ns
                stack.append(frame)
                try:
                    if exc is not None:
                        awaited = gen.throw(exc)
                    else:
                        awaited = gen.send(value)
                except StopIteration as stop:
                    stats.sim_ns += tracer.sim_ns - sim_start
                    if note is not None:
                        note(tracer, stats, args, kwargs, stop.value)
                    tracer._close(frame, stats)
                    return stop.value
                except BaseException:
                    stats.sim_ns += tracer.sim_ns - sim_start
                    stats.raised += 1
                    tracer._close(frame, stats)
                    raise
                tracer._close(frame, stats)
                try:
                    value, exc = (yield awaited), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # delivered into the generator
                    value, exc = None, err

        def traced(*args, **kwargs):
            stats.calls += 1
            return drive(func(*args, **kwargs), args, kwargs)

        return traced

    def _close(self, frame, stats: Stats) -> None:
        elapsed = _now() - frame[1]
        stack = self._stack
        stack.pop()
        stats.incl_ns += elapsed
        stats.self_ns += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every probe target; a target that no longer exists is
        recorded in :attr:`missing`, never skipped silently."""
        for probe in self.probes:
            try:
                owner, attr, func = resolve(probe.target)
            except LookupError as exc:
                self.missing.append(str(exc))
                continue
            stats = self.stats.setdefault(probe.key, Stats(probe.layer))
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(func)
                    else self._wrap_call)
            wrapped = wrap(func, stats, probe.note)
            wrapped.__name__ = getattr(func, "__name__", attr)
            wrapped.__qualname__ = getattr(func, "__qualname__", attr)
            wrapped.__doc__ = func.__doc__
            wrapped.__dict__.update(getattr(func, "__dict__", {}))
            self._patches.replace(owner, attr, wrapped)
            for site in probe.sites:
                try:
                    module = importlib.import_module(site)
                except ImportError:
                    module = None
                if module is None or getattr(module, attr, None) is not func:
                    self.missing.append(f"{site}:{attr}: not bound at site")
                    continue
                self._patches.replace(module, attr, wrapped)

    def uninstall(self) -> None:
        self._patches.undo()
        self._stack.clear()

    @property
    def installed(self) -> int:
        return len(self._patches)
