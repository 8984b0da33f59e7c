"""A deterministic cooperative event loop over :class:`SimClock`.

Python's ``asyncio`` cannot drive simulated time reproducibly: its ready
queue breaks ties by insertion order *of wall-clock callbacks* and its timers
read the host clock, so two runs of the same seed interleave differently.
This loop replaces both with simulation-native rules:

* **Time** is the cluster's single :class:`~repro.common.clock.SimClock`.
  An event scheduled for ``wake_ns`` runs after the clock has advanced to
  (at least) that instant; events that come due while the clock is already
  past them run immediately at the current time — simulated time never
  rewinds.
* **Tie-breaking is seeded.** Events at the same ``wake_ns`` are ordered by
  a random rank drawn from a dedicated RNG stream at *schedule* time, with
  a monotone sequence number as the final tiebreak. No wall clock, no
  ``id()``/hash order, no dict iteration order — the heap pop sequence is a
  pure function of the seed, which is what makes run-twice replay
  bit-identical even with hundreds of tasks in flight.
* **Tasks are generator coroutines.** A task ``yield``s either a
  :class:`Sleep` (suspend for a span of simulated time) or a
  :class:`Future`/:class:`Task` (suspend until it resolves); anything the
  task returns becomes its future's result. Sub-operations compose with
  ``yield from``, so one logical op forms a spine of resume points — which
  is also what lets :class:`TaskAttribution` account every nanosecond of an
  op's latency exactly.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Iterable

from repro.common.clock import SimClock
from repro.common.errors import ReproError
from repro.common.rng import DeterministicRng


class EventLoopError(ReproError):
    """Scheduler misuse, or a deadlock (an awaited future that can never resolve)."""


class Sleep:
    """Awaitable marker: suspend the yielding task for *delta_ns* of simulated time.

    Negative deltas clamp to zero; ``Sleep(0)`` yields the scheduler slot so
    other due events may run at the same instant (cooperative fairness).
    """

    __slots__ = ("delta_ns",)

    def __init__(self, delta_ns: float):
        self.delta_ns = float(delta_ns)

    def __repr__(self) -> str:
        return f"Sleep({self.delta_ns:.0f} ns)"


class Future:
    """A one-shot completion slot resolved by the loop or by another task.

    Waiter wake-ups are *scheduled* (at the current instant, with a fresh
    seeded tie rank), never run inline from ``set_result`` — resolution
    order therefore cannot leak the resolver's call stack into the
    interleaving.
    """

    __slots__ = ("_loop", "_done", "_value", "_exc", "_callbacks")

    def __init__(self, loop: "EventLoop"):
        self._loop = loop
        self._done = False
        self._value = None
        self._exc: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self):
        if not self._done:
            raise EventLoopError("future is not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self) -> BaseException | None:
        if not self._done:
            raise EventLoopError("future is not resolved yet")
        return self._exc

    def set_result(self, value) -> None:
        self._settle(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._settle(None, exc)

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            self._loop._schedule_now(lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def _settle(self, value, exc: BaseException | None) -> None:
        if self._done:
            raise EventLoopError("future resolved twice")
        self._done = True
        self._value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._loop._schedule_now(lambda fn=fn: fn(self))


class Task:
    """A spawned generator coroutine; ``future`` resolves with its return value."""

    __slots__ = ("name", "future", "_gen")

    def __init__(self, loop: "EventLoop", gen: Generator, name: str):
        self.name = name
        self.future = Future(loop)
        self._gen = gen

    def __repr__(self) -> str:
        state = "done" if self.future.done() else "running"
        return f"Task({self.name!r}, {state})"


class EventLoop:
    """The scheduler: a heap of ``(wake_ns, tie_rank, seq, callback)`` events."""

    __slots__ = ("_clock", "_rng", "_heap", "_seq", "_spawned", "_driving")

    def __init__(self, clock: SimClock, rng: DeterministicRng):
        self._clock = clock
        self._rng = rng.spawn("aio-loop")
        self._heap: list[tuple[int, int, int, Callable[[], None]]] = []
        self._seq = 0
        self._spawned = 0
        self._driving = False

    @property
    def driving(self) -> bool:
        """True while an event handler (i.e. task code) is on the stack.

        Synchronous facades check this to decide between *driving* the loop
        (top-level call: spawn the task form and run it to completion) and
        *executing inline* (already inside a task: blocking semantics are
        safe, re-entering ``run_until_complete`` is not).
        """
        return self._driving

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def now_ns(self) -> int:
        return self._clock.now_ns

    def pending(self) -> int:
        """Number of scheduled events not yet run."""
        return len(self._heap)

    # -- scheduling ----------------------------------------------------------

    def call_at(self, wake_ns: float, fn: Callable[[], None]) -> None:
        """Run *fn* once the clock reaches *wake_ns* (clamped to now)."""
        wake = max(int(wake_ns), self._clock.now_ns)
        tie = self._rng.integer(0, 1 << 30)
        heapq.heappush(self._heap, (wake, tie, self._seq, fn))
        self._seq += 1

    def call_later(self, delta_ns: float, fn: Callable[[], None]) -> None:
        self.call_at(self._clock.now_ns + max(0, int(round(delta_ns))), fn)

    def _schedule_now(self, fn: Callable[[], None]) -> None:
        self.call_at(self._clock.now_ns, fn)

    def spawn(self, gen: Generator, name: str | None = None) -> Task:
        """Schedule generator coroutine *gen* to start at the current instant."""
        task = Task(self, gen, name or f"task-{self._spawned}")
        self._spawned += 1
        self._schedule_now(lambda: self._step(task, None, None))
        return task

    # -- task stepping -------------------------------------------------------

    def _step(self, task: Task, value, exc: BaseException | None) -> None:
        gen = task._gen
        while True:
            try:
                if exc is not None:
                    pending_exc, exc = exc, None
                    awaited = gen.throw(pending_exc)
                else:
                    awaited = gen.send(value)
            except StopIteration as stop:
                task.future.set_result(stop.value)
                return
            except Exception as err:  # noqa: BLE001 — delivered via future.result()
                task.future.set_exception(err)
                return
            if isinstance(awaited, Sleep):
                self.call_later(max(0.0, awaited.delta_ns),
                                lambda: self._step(task, None, None))
                return
            if isinstance(awaited, Task):
                awaited = awaited.future
            if isinstance(awaited, Future):
                if awaited._done:
                    # Continue inline: a resolved await costs no scheduler hop.
                    value, exc = awaited._value, awaited._exc
                    continue
                awaited._callbacks.append(
                    lambda fut, task=task: self._step(task, fut._value, fut._exc))
                return
            raise EventLoopError(
                f"task {task.name!r} yielded {awaited!r}; tasks may only yield "
                f"Sleep, Future, or Task")

    # -- composition ---------------------------------------------------------

    def completed(self, value=None) -> Future:
        """An already-resolved future (awaiting it continues inline)."""
        fut = Future(self)
        fut._done = True
        fut._value = value
        return fut

    def gather(self, futures: Iterable[Future | Task]) -> Future:
        """Resolve with a list of results in input order once *all* resolve.

        A child's exception is captured *as its slot value* rather than
        failing the gather — scatter-gather callers inspect per-peer results
        (``isinstance(x, Exception)``) and decide what is fatal.
        """
        waits = [f.future if isinstance(f, Task) else f for f in futures]
        out = Future(self)
        results: list = [None] * len(waits)
        remaining = len(waits)
        if remaining == 0:
            out.set_result([])
            return out

        def _arm(i: int, fut: Future) -> None:
            def _on_done(done: Future) -> None:
                nonlocal remaining
                results[i] = done._exc if done._exc is not None else done._value
                remaining -= 1
                if remaining == 0:
                    out.set_result(results)

            fut.add_done_callback(_on_done)

        for i, fut in enumerate(waits):
            _arm(i, fut)
        return out

    def race(self, futures: Iterable[Future | Task]) -> Future:
        """Resolve with ``(index, result_or_exception)`` of the first to settle.

        Losers keep running harmlessly (hedged lookups are idempotent); their
        results are dropped.
        """
        waits = [f.future if isinstance(f, Task) else f for f in futures]
        if not waits:
            raise EventLoopError("race() needs at least one future")
        out = Future(self)

        def _arm(i: int, fut: Future) -> None:
            def _on_done(done: Future) -> None:
                if not out._done:
                    out.set_result(
                        (i, done._exc if done._exc is not None else done._value))

            fut.add_done_callback(_on_done)

        for i, fut in enumerate(waits):
            _arm(i, fut)
        return out

    # -- driving -------------------------------------------------------------

    def _run_next(self) -> None:
        wake, _tie, _seq, fn = heapq.heappop(self._heap)
        if wake > self._clock.now_ns:
            self._clock.advance(wake - self._clock.now_ns)
        prev, self._driving = self._driving, True
        try:
            fn()
        finally:
            self._driving = prev

    def run_until(self, deadline_ns: float) -> None:
        """Run every event due at or before *deadline_ns*, then advance to it.

        Events run inside handlers may advance the clock past their wake time;
        such past-due events still run (at the current instant) as long as
        their wake is within the deadline.
        """
        deadline = int(deadline_ns)
        while self._heap and self._heap[0][0] <= deadline:
            self._run_next()
        if self._clock.now_ns < deadline:
            self._clock.advance(deadline - self._clock.now_ns)

    def run_until_complete(self, awaitable: Future | Task):
        """Drive the loop until *awaitable* resolves; return (or raise) its result."""
        future = awaitable.future if isinstance(awaitable, Task) else awaitable
        while not future._done:
            if not self._heap:
                raise EventLoopError(
                    "deadlock: awaited future can never resolve (heap is empty)")
            self._run_next()
        return future.result()

    def drain(self, max_events: int = 5_000_000) -> int:
        """Run until no events remain; returns the number of events run."""
        ran = 0
        while self._heap:
            self._run_next()
            ran += 1
            if ran > max_events:
                raise EventLoopError(
                    f"drain exceeded {max_events} events; runaway task?")
        return ran


def run_inline(gen: Generator):
    """Drive an operation body to completion without the loop.

    Every op has one body, a generator. ``rpc_mode="sync"`` runs it through
    this driver: inline, its RPCs are blocking stub calls, so the body never
    suspends. A yield here is a programming error and raises at once (a
    ``RuntimeError``, never swallowed as an op failure) instead of hanging.
    """
    try:
        awaited = gen.send(None)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise RuntimeError(f"an inline-driven operation yielded {awaited!r}")


class TaskAttribution:
    """ns-exact latency attribution for one logical op run as a task tree.

    The sync runner attributes time through the global span stack, which
    assumes exactly one op is on the clock at a time. Under the event loop
    many ops advance the shared clock concurrently, so a stack cannot say
    whose wait a given advance was. Instead each op carries one of these:
    the op's ``yield from`` spine calls :meth:`settle` at its own resume
    points, and the elapsed lump since the previous settle is split between
    *hinted* waits recorded by children in the meantime (coalescing-buffer
    ``pipeline`` delay, ``retry`` backoff, ``hedge`` stagger — clamped so
    hints never overdraw the lump) and the caller's default component. The
    components therefore sum to the observed latency exactly, by
    construction rather than by measurement.
    """

    __slots__ = ("_clock", "_mark", "components", "_hints")

    HINTS = ("pipeline", "retry", "hedge")

    def __init__(self, clock: SimClock, issue_ns: int):
        self._clock = clock
        self._mark = int(issue_ns)
        self.components: dict[str, int] = {}
        self._hints: dict[str, int] = {}

    def charge(self, component: str, delta_ns: int) -> None:
        """Attribute *delta_ns* directly (used for pre-measured intervals)."""
        delta = int(delta_ns)
        if delta:
            self.components[component] = self.components.get(component, 0) + delta

    def hint(self, component: str, delta_ns: float) -> None:
        """Record that part of the lump in progress was spent on *component*."""
        delta = int(round(delta_ns))
        if delta > 0:
            self._hints[component] = self._hints.get(component, 0) + delta

    def settle(self, default: str) -> None:
        """Close the lump since the previous settle: hinted waits first (in
        fixed priority order), remainder to *default*."""
        now = self._clock.now_ns
        lump = max(0, now - self._mark)
        self._mark = now
        for name in self.HINTS:
            hinted = self._hints.get(name, 0)
            take = min(hinted, lump)
            if take:
                self.charge(name, take)
                lump -= take
        self._hints.clear()
        if lump:
            self.charge(default, lump)

    def total_ns(self) -> int:
        return sum(self.components.values())
