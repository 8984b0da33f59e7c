"""The client side of the RPC layer: channels and stubs.

A :class:`Channel` connects one host to one remote :class:`RpcServer` and
performs blocking unary calls, exactly the configuration the paper uses
("synchronous mode due to its favorable servicing latency ... unary mode to
minimize protocol overhead"). Each call:

1. encodes the request through the wire codec (real bytes),
2. advances the simulated clock by the calibrated round-trip + per-byte
   marshalling cost with log-normal jitter (the paper attributes its remote
   latency variance to "gRPC and its inherent network jitter"),
3. dispatches on the server and decodes the response,
4. raises :class:`~repro.common.errors.RpcStatusError` on non-OK status.

Resilience semantics (gRPC-shaped, used by repro.core.health / repro.chaos):

* **Retries with exponential backoff** — UNAVAILABLE outcomes (injected
  connection drops, chaos blackholes/partitions, a dead server process)
  are retried up to ``max_retries`` times; every attempt is charged in
  full and each backoff interval (initial x multiplier^n, capped,
  jittered) is charged to the waiting caller.
* **Deadlines** — ``deadline_ns`` (per call, or ``default_deadline_ns``
  from config) bounds the whole call including retries and backoff: the
  clock is only ever advanced up to the deadline, then the call raises
  DEADLINE_EXCEEDED. Without a deadline, a blackholed attempt still waits
  only the chaos runtime's connect timeout per attempt, so nothing hangs
  forever.
* **Circuit breaker** — an optional per-channel breaker is consulted
  before every call; while open, calls fail fast (~1 us) without a round
  trip, and the call's final outcome (success / unavailable / deadline)
  feeds back into the breaker state.

A unary call has one body, the generator :meth:`Channel._unary`.
:meth:`Channel.unary_call` drives it inline with ``run_inline``;
``AsyncChannel.unary_task`` (:mod:`repro.rpc.aio.channel`, which lists the
few points where the two drivers differ) drives it on the event loop.
"""

from __future__ import annotations

import contextlib

from repro.common.clock import SimClock
from repro.common.config import RpcConfig
from repro.common.errors import RpcError, RpcStatusError, ServerOverloadedError
from repro.common.rng import DeterministicRng
from repro.common.stats import Distribution
from repro.obs.metrics import CounterGroup
from repro.obs.spans import maybe_component, maybe_span
from repro.rpc.aio.loop import Sleep, run_inline
from repro.rpc.codec import decode_message, encode_message
from repro.rpc.overload import RetryBudget
from repro.rpc.server import RpcServer
from repro.rpc.status import StatusCode

# Outcomes that count against the circuit breaker: the peer is down,
# unreachable, or shedding load. RESOURCE_EXHAUSTED is deliberately in the
# list — a breaker that opens under sustained shedding stops the caller
# hammering a saturated peer, which is the backpressure the server's
# bounded queue is asking for.
_FAILURE_CODES = (
    StatusCode.UNAVAILABLE,
    StatusCode.DEADLINE_EXCEEDED,
    StatusCode.RESOURCE_EXHAUSTED,
)

# A call on the event loop opens no span: the sink's span stack assumes one
# operation on the clock at a time, which the loop's interleaving breaks.
_NO_SPAN = contextlib.nullcontext()


class Channel:
    """A blocking unary-call channel from *local_host* to a server."""

    def __init__(
        self,
        local_host: str,
        server: RpcServer,
        clock: SimClock,
        config: RpcConfig,
        rng: DeterministicRng,
        *,
        spans=None,
        breaker=None,
        chaos=None,
        correlation=None,
    ):
        self._local_host = local_host
        self._server = server
        self._clock = clock
        self._config = config
        self._rng = rng.spawn("rpc", local_host, server.host)
        self._spans = spans
        self._breaker = breaker
        self._chaos = chaos
        self._correlation = correlation
        self.counters = CounterGroup()
        self._latency = None  # per-(peer, method) histogram family
        self._closed = False
        # Retry amplification cap: a token bucket on simulated time shared
        # by every call on this channel. Rate 0 (default) disables the gate.
        self._retry_budget = RetryBudget(
            clock, config.retry_budget_per_s, config.retry_budget_burst
        )
        # Client-observed latency samples feeding the hedged-read delay
        # quantile. Only collected when hedging is configured, so the
        # default path allocates nothing per call.
        self._latency_samples = Distribution()

    def attach_metrics(self, registry) -> None:
        """Bind call counters, per-method latency, and breaker state."""
        if not getattr(registry, "enabled", True):
            return
        registry.register_group(
            self.counters, "rpc_client", peer=self._server.host
        )
        self._latency = registry.histogram(
            "rpc_client_latency_ns",
            "Simulated client-observed RPC latency incl. retries/backoff.",
            labels=("peer", "method"),
        )
        if self._breaker is not None:
            self._breaker.attach_metrics(registry, peer=self._server.host)

    @property
    def target(self) -> str:
        return self._server.host

    @property
    def local_host(self) -> str:
        return self._local_host

    @property
    def breaker(self):
        return self._breaker

    @property
    def retry_budget(self) -> RetryBudget:
        return self._retry_budget

    @property
    def default_deadline_ns(self) -> float:
        """The configured per-call deadline (0 = none) — the budget a
        multi-hop operation starts from (see DeadlineBudget.for_stub)."""
        return self._config.default_deadline_ns

    def hedge_delay_ns(self) -> float | None:
        """How long to wait on a read before hedging to another holder:
        the configured quantile of this channel's observed call latency.
        None until hedging is configured and enough samples exist."""
        q = self._config.hedge_quantile
        if q <= 0 or self._latency_samples.count < self._config.hedge_min_samples:
            return None
        return float(self._latency_samples.quantile(q))

    def close(self) -> None:
        self._closed = True

    # -- cost accounting -----------------------------------------------------------

    def _cost_ns(self, request_bytes: int, response_bytes: int) -> float:
        return (
            self._config.round_trip_ns
            + (request_bytes + response_bytes) * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _direction_cost_ns(self, nbytes: int) -> float:
        """One leg of a call on the event loop: half the round trip plus
        that direction's bytes, jittered like the inline lump."""
        return (
            self._config.round_trip_ns / 2.0
            + nbytes * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _wait(self, call: _Call, cost_ns: float):
        """Spend *cost_ns* of the call's simulated time: inline by advancing
        the clock, on the event loop by sleeping. Never past the call
        deadline: on expiry only the remainder is spent, then the call
        raises DEADLINE_EXCEEDED."""
        left = call.left_ns(self._clock.now_ns)
        expired = left is not None and cost_ns > left
        if expired:
            cost_ns = max(0.0, left)
        if call.inline:
            self._clock.advance(cost_ns)
        else:
            yield Sleep(cost_ns)
        if expired:
            self.counters.inc("deadline_exceeded")
            self.counters.inc("calls_failed")
            raise RpcStatusError(
                StatusCode.DEADLINE_EXCEEDED,
                f"deadline of {call.deadline_ns / 1e6:.3f} ms exceeded calling "
                f"{self._server.host}",
            )

    def _retry_wait(self, call: _Call, cost_ns: float):
        """:meth:`_wait`, charged to the ``retry`` component: backoff
        intervals and the transport cost of failed repeat attempts are retry
        amplification, not useful service time. Inline the span sink's
        component stack takes the charge; on the loop the op's
        ``TaskAttribution`` hint does — a component held open across a
        suspension would also capture other tasks' clock advances."""
        if call.attr is not None:
            call.attr.hint("retry", cost_ns)
        with maybe_component(self._spans if call.inline else None, "retry"):
            yield from self._wait(call, cost_ns)

    def _backoff_ns(self, retry_index: int) -> float:
        base = self._config.retry_initial_backoff_ns * (
            self._config.retry_backoff_multiplier**retry_index
        )
        base = min(base, self._config.retry_max_backoff_ns)
        return base * self._rng.lognormal_jitter(
            self._config.retry_backoff_jitter_sigma
        )

    def _attempt_fails(self) -> bool:
        rate = self._config.inject_failure_rate
        return rate > 0.0 and self._rng.uniform(0.0, 1.0) < rate

    def _transport_silent(self) -> bool:
        """True while a chaos partition/blackhole swallows our attempts."""
        if self._chaos is None:
            return False
        self._chaos.poll()
        return not self._chaos.rpc_allowed(self._local_host, self._server.host)

    def _effective_deadline(self, deadline_ns: float | None) -> float | None:
        if deadline_ns is not None:
            return deadline_ns if deadline_ns > 0 else None
        configured = self._config.default_deadline_ns
        return configured if configured > 0 else None

    # -- breaker gate ---------------------------------------------------------------

    def _admit(self) -> None:
        """Admission ahead of a unary call: a closed channel refuses it, an
        open breaker fails it fast."""
        if self._closed:
            raise RpcError(f"channel to {self._server.host} is closed")
        self._breaker_admit()

    def _breaker_admit(self) -> None:
        if self._breaker is None:
            return
        if not self._breaker.allow():
            self._clock.advance(self._breaker.fail_fast_cost_ns)
            self.counters.inc("breaker_rejections")
            raise RpcStatusError(
                StatusCode.UNAVAILABLE,
                f"circuit breaker open for {self._server.host}",
            )

    def _breaker_record(self, exc: RpcStatusError | None) -> None:
        if self._breaker is None:
            return
        if exc is not None and exc.code in _FAILURE_CODES:
            self._breaker.record_failure()
        else:
            # Any definitive response — OK or an application-level status —
            # proves the peer is alive.
            self._breaker.record_success()

    # -- unary ------------------------------------------------------------------------

    def unary_call(
        self,
        service: str,
        method: str,
        request: dict | None = None,
        *,
        deadline_ns: float | None = None,
    ) -> dict:
        """Perform one synchronous unary call; returns the response dict.

        Transient UNAVAILABLE outcomes are retried with exponential backoff
        up to the configured ``max_retries``; every attempt and backoff is
        charged in simulated time, bounded by the call deadline. The call
        is :meth:`_unary` driven inline, inside one ``rpc`` span.
        """
        self._admit()
        return run_inline(
            self._unary(
                service, method, request, deadline_ns,
                inline=True, span=self._span(service, method),
            )
        )

    def _span(self, service: str, method: str):
        """The channel's span hook: one ``rpc`` span per call, tagged with
        the caller's request id."""
        rid = self._correlation.current if self._correlation is not None else None
        return maybe_span(
            self._spans,
            "rpc",
            f"{service}.{method}",
            node=f"{self._local_host}->{self._server.host}",
            **({} if rid is None else {"rid": rid}),
        )

    def _observe_latency(self, method: str, start_ns: int) -> None:
        if self._latency is not None:
            self._latency.labels(peer=self._server.host, method=method).observe(
                self._clock.now_ns - start_ns,
                exemplar=(
                    self._spans.current_span_id
                    if self._spans is not None
                    else None
                ),
            )

    def _unary(
        self,
        service: str,
        method: str,
        request: dict | None,
        deadline_ns: float | None,
        *,
        inline: bool,
        span=_NO_SPAN,
        attr=None,
    ):
        """The one body of a unary call, a generator: :meth:`unary_call`
        drives it inline (``run_inline``), ``AsyncChannel.unary_task`` on the
        event loop. The drivers differ in how time is spent (:meth:`_wait`),
        in where retry time is charged (:meth:`_retry_wait`) and in the
        transport cost (:meth:`_attempts`). Latency observation and breaker feedback
        run outside *span*, so a latency exemplar links to the caller's
        span, not to the call's own."""
        call = _Call(
            self._clock.now_ns, self._effective_deadline(deadline_ns), inline, attr
        )
        try:
            with span:
                response = yield from self._attempts(call, service, method, request)
        except RpcStatusError as exc:
            self._observe_latency(method, call.start_ns)
            self._breaker_record(exc)
            raise
        self._observe_latency(method, call.start_ns)
        if self._config.hedge_quantile > 0:
            # Successful-call latency feeds the hedge-delay quantile.
            self._latency_samples.add(self._clock.now_ns - call.start_ns)
        self._breaker_record(None)
        return response

    def _attempts(self, call: _Call, service: str, method: str, request):
        """The attempt loop: lost attempts, dispatch, and the retry of
        UNAVAILABLE / RESOURCE_EXHAUSTED outcomes under the retry budget."""
        wire_request = encode_message(request or {})
        attempts = 1 + max(0, self._config.max_retries)
        for attempt in range(attempts):
            lost = self._lost(len(wire_request), "connection")
            if lost is not None:
                yield from self._fail_attempt(call, *lost, attempt, attempts)
                continue
            if not call.inline:
                # On the loop the request leg is spent before dispatch: the
                # server must see the request before the response travels
                # back, while other tasks interleave.
                yield from self._wait(
                    call, self._direction_cost_ns(len(wire_request))
                )
            status, wire_response, detail = self._server.dispatch_wire(
                service,
                method,
                wire_request,
                correlation_id=(
                    self._correlation.current
                    if self._correlation is not None
                    else None
                ),
                # The grpc-timeout header: the budget *left*, not the
                # original deadline, so a forwarded/retried call tells the
                # server how much patience actually remains.
                deadline_ns=call.left_ns(self._clock.now_ns),
            )
            # Inline one lump covers both directions; on the loop, the
            # response leg.
            yield from self._wait(
                call,
                self._cost_ns(len(wire_request), len(wire_response))
                if call.inline
                else self._direction_cost_ns(len(wire_response)),
            )
            self.counters.inc("calls")
            self.counters.inc("bytes_sent", len(wire_request))
            self.counters.inc("bytes_received", len(wire_response))
            if status is StatusCode.UNAVAILABLE:
                # The server process is down (connection refused). gRPC
                # treats UNAVAILABLE as retryable; so do we.
                self.counters.inc("attempts_failed")
                err = RpcStatusError(status, detail)
            elif status is StatusCode.RESOURCE_EXHAUSTED:
                # The server shed us under overload. Retryable — the peer is
                # alive — but every retry spends retry budget, so a storm
                # of shed calls fails fast instead of amplifying the load.
                self.counters.inc("attempts_shed")
                err = ServerOverloadedError(detail)
            elif status is not StatusCode.OK:
                self.counters.inc("calls_failed")
                raise RpcStatusError(status, detail)
            else:
                return decode_message(wire_response)
            yield from self._retry_or_raise(call, err, attempt, attempts)
        raise AssertionError("unreachable")  # pragma: no cover

    def _gate_retry(self, exc: RpcStatusError) -> None:
        """Spend one retry token or fail the call fast with *exc*.

        The per-channel token bucket caps retry amplification: once the
        budget is dry, a failed attempt surfaces immediately instead of
        piling more attempts onto a peer that is already struggling.
        """
        if self._retry_budget.try_spend():
            return
        self.counters.inc("retries_suppressed")
        self.counters.inc("calls_failed")
        raise exc

    def _retry_or_raise(self, call: _Call, err, attempt: int, attempts: int):
        """After a failed attempt: raise *err* when it was the last attempt
        or the retry budget is dry, else back off before the next one."""
        if attempt == attempts - 1:
            self.counters.inc("calls_failed")
            raise err
        self._gate_retry(err)
        self.counters.inc("retries")
        yield from self._retry_wait(call, self._backoff_ns(attempt))

    def _lost(self, request_bytes: int, link: str) -> tuple[float, str] | None:
        """``(wasted transport ns, detail)`` when this attempt never reaches
        the server, else None."""
        if self._transport_silent():
            # The attempt vanished into a partition/blackhole: the caller
            # waits out its connect timeout (or the deadline).
            return (
                self._chaos.unanswered_wait_ns,
                f"no response from {self._server.host}",
            )
        if self._attempt_fails():
            # The connection dropped mid-call: charge the round trip, then
            # retry or surface UNAVAILABLE.
            return (
                self._cost_ns(request_bytes, 0),
                f"{link} to {self._server.host} lost",
            )
        return None

    def _fail_attempt(
        self, call: _Call, cost_ns: float, detail: str, attempt: int, attempts: int
    ):
        """Account one transport-level failed attempt; retry or raise."""
        if attempt > 0:
            # A repeat attempt's wasted transport cost is retry
            # amplification; the first attempt's cost is ordinary service.
            yield from self._retry_wait(call, cost_ns)
        else:
            yield from self._wait(call, cost_ns)
        self.counters.inc("attempts_failed")
        last = attempt == attempts - 1
        outcome = f"{attempts} attempts" if last else "retry budget exhausted"
        yield from self._retry_or_raise(
            call,
            RpcStatusError(StatusCode.UNAVAILABLE, f"{detail} ({outcome})"),
            attempt,
            attempts,
        )

    # -- streaming ---------------------------------------------------------------------

    def stream_call(
        self,
        service: str,
        method: str,
        requests: list[dict],
        *,
        deadline_ns: float | None = None,
    ) -> list[dict]:
        """A bidirectional-streaming call: many request messages, one
        connection round trip.

        The paper configures gRPC "in unary mode to minimize protocol
        overhead for the messages being sent"; streaming instead pays the
        round trip once plus a per-message framing cost, which wins when a
        caller has many small requests that cannot be batched into one
        message. Each message is dispatched to the same handler a unary
        call would hit; the first non-OK status aborts the stream (gRPC
        semantics) and raises.

        Stream *establishment* goes through the same failure path as unary
        calls: injected connection drops and chaos blackholes/partitions
        are retried with backoff, deadlines bound the whole call, and the
        breaker gates admission — a fault plan degrades streams and unary
        calls alike. Streams run inline only.
        """
        if self._closed:
            raise RpcError(f"channel to {self._server.host} is closed")
        if not requests:
            return []
        self._breaker_admit()
        call = _Call(self._clock.now_ns, self._effective_deadline(deadline_ns), True)
        try:
            with self._span(service, method):
                responses = run_inline(
                    self._stream_attempts(call, service, method, requests)
                )
        except RpcStatusError as exc:
            self._observe_latency(method, call.start_ns)
            self._breaker_record(exc)
            raise
        self._observe_latency(method, call.start_ns)
        self._breaker_record(None)
        return responses

    def _stream_attempts(self, call: _Call, service: str, method: str, requests):
        attempts = 1 + max(0, self._config.max_retries)
        for attempt in range(attempts):
            # A stream that never establishes wastes one bare round trip.
            lost = self._lost(0, "stream")
            if lost is None:
                return (
                    yield from self._stream_dispatch(call, service, method, requests)
                )
            yield from self._fail_attempt(call, *lost, attempt, attempts)
        raise AssertionError("unreachable")  # pragma: no cover

    def _stream_dispatch(self, call: _Call, service: str, method: str, requests):
        responses: list[dict] = []
        wire_in = 0
        wire_out = 0
        rid = self._correlation.current if self._correlation is not None else None
        for request in requests:
            wire_request = encode_message(request)
            status, wire_response, detail = self._server.dispatch_wire(
                service,
                method,
                wire_request,
                correlation_id=rid,
                deadline_ns=call.left_ns(self._clock.now_ns),
            )
            wire_in += len(wire_request)
            wire_out += len(wire_response)
            if status is not StatusCode.OK:
                yield from self._wait(
                    call, self._stream_cost_ns(len(requests), wire_in, wire_out)
                )
                self.counters.inc("calls_failed")
                if status is StatusCode.RESOURCE_EXHAUSTED:
                    raise ServerOverloadedError(detail)
                raise RpcStatusError(status, detail)
            responses.append(decode_message(wire_response))
        yield from self._wait(
            call, self._stream_cost_ns(len(requests), wire_in, wire_out)
        )
        self.counters.inc("calls")
        self.counters.inc("stream_messages", len(requests))
        self.counters.inc("bytes_sent", wire_in)
        self.counters.inc("bytes_received", wire_out)
        return responses

    def _stream_cost_ns(self, nmessages: int, bytes_in: int, bytes_out: int) -> float:
        return (
            self._config.round_trip_ns
            + nmessages * self._config.per_stream_message_ns
            + (bytes_in + bytes_out) * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def stub(self, service: str) -> "ServiceStub":
        return ServiceStub(self, service)


class _Call:
    """One call's timing context, threaded through the body's helpers: when
    it started, its deadline (None = none), its driver, and the op's
    attribution (on the loop)."""

    __slots__ = ("start_ns", "deadline_ns", "inline", "attr")

    def __init__(
        self, start_ns: int, deadline_ns: float | None, inline: bool, attr=None
    ):
        self.start_ns = start_ns
        self.deadline_ns = deadline_ns
        self.inline = inline
        self.attr = attr

    def left_ns(self, now_ns: int) -> float | None:
        """The budget left at *now_ns*, or None without a deadline."""
        if self.deadline_ns is None:
            return None
        return self.deadline_ns - (now_ns - self.start_ns)


class ServiceStub:
    """Dynamic per-service stub: ``stub.Lookup({...})`` == unary call.

    Mirrors how generated gRPC stubs expose one attribute per method.
    """

    def __init__(self, channel: Channel, service: str):
        self._channel = channel
        self._service = service

    @property
    def service(self) -> str:
        return self._service

    @property
    def channel(self) -> Channel:
        return self._channel

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def call(
            request: dict | None = None, *, deadline_ns: float | None = None
        ) -> dict:
            if deadline_ns is None:
                # Keep the plain signature for alternate transports
                # (e.g. DmsgChannel) that predate deadlines.
                return self._channel.unary_call(self._service, method, request)
            return self._channel.unary_call(
                self._service, method, request, deadline_ns=deadline_ns
            )

        call.__name__ = method
        return call
