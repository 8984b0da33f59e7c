"""The async side of the RPC client: pipelined task-based calls.

:class:`AsyncChannel` is a :class:`~repro.rpc.channel.Channel` whose calls
can also run as event-loop tasks. A unary call has one body, the generator
``Channel._unary``, with two drivers: ``unary_call`` runs it inline and
:meth:`AsyncChannel.unary_task` runs it on the loop. Everything observable
about an individual call is therefore shared — the retry/backoff ladder,
deadline clamping, retry-budget gate, breaker admission and outcome
feedback, chaos transport behaviour, counters and latency samples. The body
branches on its driver at three points:

* **Waiting.** Inline, the shared clock advances (which serializes every
  caller); on the loop the task ``yield``s a ``Sleep``, so many requests to
  the same peer overlap in simulated time. Both clamp at the deadline.
* **Cost split.** Inline, a call charges one lump
  ``(round_trip + bytes * per_byte) * jitter`` after dispatch. On the loop
  the same shape is split per direction —
  ``(round_trip/2 + dir_bytes * per_byte) * jitter`` for the request leg,
  then server dispatch, then the response leg — because the server must
  observe the request *before* the response travels back while other tasks
  interleave. Async throughput numbers are their own artifacts, so this
  split does not reproduce sync timings draw-for-draw.
* **Retry attribution.** Inline, the span sink's ``retry`` component takes
  backoff and failed repeat attempts; on the loop the op's
  :class:`~repro.rpc.aio.loop.TaskAttribution` gets the same waits as
  ``retry`` hints. Neither draws from the RNG, so attaching an attribution
  never changes simulated time.

A cluster in ``rpc_mode="sync"`` uses this class exactly as a ``Channel``
and stays byte-identical to the unary baseline.
"""

from __future__ import annotations

from repro.common.errors import RpcError
from repro.rpc.channel import Channel
# The call body encodes and decodes in repro.rpc.channel; the codec names
# stay bound here too, for tools that wrap the codec per calling module.
from repro.rpc.codec import decode_message, encode_message  # noqa: F401
from repro.rpc.aio.batch import BATCHABLE_METHODS, CoalescingBuffer
from repro.rpc.aio.loop import EventLoop, Future, TaskAttribution

#: Counters specific to the async plane. Kept out of the metrics-registry
#: counter group so a sync-mode scrape is byte-identical to the baseline.
AIO_COUNTER_NAMES = (
    "tasks_started",
    "tasks_completed",
    "in_flight_peak",
    "batches_sent",
    "batched_requests",
    "batched_ids",
    "batch_expired",
    "hedges_fired",
)


class AsyncChannel(Channel):
    """A :class:`Channel` that can also run its calls as event-loop tasks."""

    def __init__(self, *args, loop: EventLoop | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._loop = loop
        self._in_flight = 0
        self._buffers: dict[tuple[str, str], CoalescingBuffer] = {}
        self.aio_counters: dict[str, int] = {name: 0 for name in AIO_COUNTER_NAMES}

    @property
    def loop(self) -> EventLoop:
        if self._loop is None:
            raise RpcError(
                f"channel to {self._server.host} has no event loop attached")
        return self._loop

    @property
    def server_host(self) -> str:
        return self._server.host

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def hedge_stagger_ns(self) -> float:
        """Stagger before a scatter-gather lookup hedges to the next peer."""
        return self._config.hedge_stagger_ns

    @property
    def stream_chunk_bytes(self) -> int:
        """Chunk size for streaming bulk transfers in async mode."""
        return self._config.stream_chunk_bytes

    # -- pipelined unary ------------------------------------------------------

    def unary_task(self, service: str, method: str, request: dict | None = None,
                   *, deadline_ns: float | None = None,
                   attr: TaskAttribution | None = None):
        """Generator-coroutine form of :meth:`Channel.unary_call`: the same
        body (``Channel._unary``), driven by the event loop instead of
        inline. ``yield from`` it inside another task, or ``loop.spawn`` it
        directly. Raises exactly what the sync call raises; returns the
        response dict. Retry time is hinted to *attr*."""
        self._admit()
        self._in_flight += 1
        self.aio_counters["tasks_started"] += 1
        if self._in_flight > self.aio_counters["in_flight_peak"]:
            self.aio_counters["in_flight_peak"] = self._in_flight
        try:
            return (yield from self._unary(
                service, method, request, deadline_ns, inline=False, attr=attr))
        finally:
            self._in_flight -= 1
            self.aio_counters["tasks_completed"] += 1

    # -- coalesced id-list calls ----------------------------------------------

    def batched_call(self, service: str, method: str, object_ids: list, *,
                     deadline_ns: float | None = None,
                     attr: TaskAttribution | None = None) -> Future:
        """Submit an id-list call to this channel's coalescing buffer.

        Returns a future resolving with the caller's slice of the merged
        response. Calls landing within ``batch_window_ns`` of each other (or
        until ``max_batch`` ids accumulate) share one wire message.
        """
        if method not in BATCHABLE_METHODS:
            raise ValueError(f"method {method!r} is not batchable")
        key = (service, method)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = CoalescingBuffer(
                self, service, method,
                window_ns=self._config.batch_window_ns,
                max_batch=self._config.max_batch,
            )
            self._buffers[key] = buffer
        return buffer.submit(
            object_ids,
            deadline_ns=self._effective_deadline(deadline_ns),
            attr=attr,
        )

    def flush_batches(self) -> None:
        """Force-dispatch every coalescing buffer (drain-point hook)."""
        for buffer in self._buffers.values():
            buffer.flush_now()
