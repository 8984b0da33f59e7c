"""Deterministic cooperative event loop and async RPC core.

``repro.rpc`` reproduces the paper's synchronous unary gRPC stack: one
blocking request in flight per channel, so concurrent clients serialize
behind the fabric (the Fig 6 bottleneck). This package is the fix named by
ROADMAP item 1 — an event-driven scheduler on :class:`~repro.common.clock.SimClock`
that keeps many requests in flight per peer while staying **bit-exactly
deterministic**:

* :class:`EventLoop` — a heap of ``(wake_ns, tie, seq)``-ordered events over
  generator-coroutine tasks. Ties at the same simulated instant break by a
  seeded random rank (never wall-clock, never hash order), so two runs of
  the same seed interleave identically.
* :class:`AsyncChannel` — extends :class:`~repro.rpc.channel.Channel` with
  non-blocking task-based calls: pipelined unary calls, transparent
  coalescing of id-list RPCs into batched wire messages
  (:class:`CoalescingBuffer`), and chunked streaming pulls.

Each operation has one body, a generator: the event loop runs it as a task
in async mode, and ``rpc_mode="sync"`` drives it with :func:`run_inline`,
where every RPC is a blocking call — preserving the one-in-flight
semantics (and every standing BENCH/TRACE artifact) exactly.
"""

from repro.rpc.aio.loop import (
    EventLoop,
    EventLoopError,
    Future,
    Sleep,
    Task,
    TaskAttribution,
    run_inline,
)
from repro.rpc.aio.batch import CoalescingBuffer, BATCHABLE_METHODS
from repro.rpc.aio.channel import AsyncChannel
from repro.rpc.aio.streaming import stream_pull, stream_pull_task

__all__ = [
    "EventLoop",
    "EventLoopError",
    "Future",
    "Sleep",
    "Task",
    "TaskAttribution",
    "run_inline",
    "CoalescingBuffer",
    "BATCHABLE_METHODS",
    "AsyncChannel",
    "stream_pull",
    "stream_pull_task",
]
