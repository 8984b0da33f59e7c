"""AsyncChannel: pipelined unary tasks, coalesced batches, and the
buffered-deadline fail-fast regression (doomed wire messages must not ship).

A unary call has one body with two drivers — ``unary_call`` inline,
``unary_task`` on the loop — so the differential cases below run the same
scripts through both and expect the same outcome and counters."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import HealthConfig, OverloadConfig, RpcConfig
from repro.common.errors import (
    ObjectNotFoundError,
    RpcStatusError,
    ServerOverloadedError,
)
from repro.common.rng import DeterministicRng
from repro.core.health import CircuitBreaker
from repro.rpc import RpcServer, Service, StatusCode, rpc_method
from repro.rpc.aio import AsyncChannel, EventLoop, Sleep, TaskAttribution
from repro.rpc.overload import OverloadModel


class DirService(Service):
    """An object_ids-shaped service mimicking the store directory RPCs."""

    SERVICE_NAME = "test.Dir"

    def __init__(self, known=()):
        self.known = {bytes(k) for k in known}
        self.lookups = 0

    @rpc_method
    def Lookup(self, request: dict) -> dict:
        self.lookups += 1
        found = [{"object_id": oid, "offset": 0, "data_size": 1}
                 for oid in request["object_ids"] if bytes(oid) in self.known]
        return {"found": found, "store": "node-x"}

    @rpc_method
    def Contains(self, request: dict) -> dict:
        return {"present": [bytes(o) in self.known for o in request["object_ids"]]}

    @rpc_method
    def AddRef(self, request: dict) -> dict:
        return {}

    @rpc_method
    def Echo(self, request: dict) -> dict:
        return {"echo": request.get("msg", "")}

    @rpc_method
    def Gone(self, request: dict) -> dict:
        raise ObjectNotFoundError("gone")


@pytest.fixture
def world():
    clock = SimClock()
    rng = DeterministicRng(7)
    loop = EventLoop(clock, rng)
    service = DirService(known=[b"obj-1", b"obj-2"])
    server = RpcServer("node-x")
    server.add_service(service)

    def channel(**cfg):
        return AsyncChannel(
            "node-y", server, clock, RpcConfig(jitter_sigma=0.0, **cfg),
            rng, loop=loop)

    return clock, loop, service, channel


def pair(config, *, breaker_threshold=None, shed=False):
    """A fresh seeded clock, loop and channel to a DirService server."""
    clock = SimClock()
    rng = DeterministicRng(7)
    loop = EventLoop(clock, rng)
    server = RpcServer("node-x")
    server.add_service(DirService(known=[b"obj-1"]))
    if shed:
        # A one-slot queue ten seconds deep: every call is shed.
        server.clock = clock
        server.overload = OverloadModel(
            clock, OverloadConfig(service_rate_ops_per_s=10.0, queue_depth=1))
        server.overload.add_backlog(10_000_000_000)
    breaker = None
    if breaker_threshold is not None:
        breaker = CircuitBreaker(
            clock, HealthConfig(breaker_failure_threshold=breaker_threshold))
    channel = AsyncChannel("node-y", server, clock, config, rng,
                           loop=loop, breaker=breaker)
    return clock, loop, channel


def _expect_ok(outcomes, counters):
    assert outcomes == [{"echo": "hi"}]
    assert counters["calls"] == 1


def _expect_not_found(outcomes, counters):
    assert outcomes == [(RpcStatusError, StatusCode.NOT_FOUND)]
    assert counters["calls_failed"] == 1


def _expect_unimplemented(outcomes, counters):
    assert outcomes == [(RpcStatusError, StatusCode.UNIMPLEMENTED)]


def _expect_retried(outcomes, counters):
    assert outcomes == [{"echo": str(i)} for i in range(10)]
    assert counters["retries"] > 0


def _expect_shed_fast(outcomes, counters):
    assert outcomes == [(ServerOverloadedError, StatusCode.RESOURCE_EXHAUSTED)]
    # The first shed found the retry budget dry: no second attempt.
    assert counters["attempts_shed"] == 1
    assert counters["retries_suppressed"] == 1


def _expect_breaker_rejection(outcomes, counters):
    assert outcomes == [(RpcStatusError, StatusCode.UNAVAILABLE)]
    assert counters == {"breaker_rejections": 1}


def _dry_budget(channel):
    while channel.retry_budget.try_spend():
        pass


def _trip_breaker(channel):
    channel.breaker.record_failure()


#: name -> (pair() arguments, setup, expectation, calls as (method, request)).
SCRIPTS = {
    "ok": (dict(config=RpcConfig(jitter_sigma=0.0)), None, _expect_ok,
           [("Echo", {"msg": "hi"})]),
    "not_found": (dict(config=RpcConfig(jitter_sigma=0.0)), None,
                  _expect_not_found, [("Gone", {})]),
    "unimplemented": (dict(config=RpcConfig(jitter_sigma=0.0)), None,
                      _expect_unimplemented, [("Missing", {})]),
    "transient_drop": (
        dict(config=RpcConfig(
            jitter_sigma=0.0, inject_failure_rate=0.45, max_retries=4)),
        None, _expect_retried,
        [("Echo", {"msg": str(i)}) for i in range(10)]),
    "shed_budget_dry": (
        dict(config=RpcConfig(jitter_sigma=0.0, max_retries=3,
                              retry_budget_per_s=1.0, retry_budget_burst=1),
             shed=True),
        _dry_budget, _expect_shed_fast, [("Echo", {})]),
    "breaker_open": (
        dict(config=RpcConfig(jitter_sigma=0.0), breaker_threshold=1),
        _trip_breaker, _expect_breaker_rejection, [("Echo", {})]),
}


def run_script(name, driver):
    """Run SCRIPTS[name] through one driver; returns (outcomes, counters)."""
    kwargs, setup, _, calls = SCRIPTS[name]
    _, loop, channel = pair(**kwargs)
    if setup is not None:
        setup(channel)
    outcomes = []
    for method, request in calls:
        try:
            if driver == "sync":
                response = channel.unary_call("test.Dir", method, request)
            else:
                response = loop.run_until_complete(loop.spawn(
                    channel.unary_task("test.Dir", method, request)))
        except RpcStatusError as exc:
            outcomes.append((type(exc), exc.code))
        else:
            outcomes.append(response)
    return outcomes, channel.counters.snapshot()


class TestUnaryTask:
    def test_roundtrip_matches_sync_response(self, world):
        _, loop, _, make = world
        ch = make()
        task = loop.spawn(ch.unary_task("test.Dir", "Echo", {"msg": "hi"}))
        assert loop.run_until_complete(task) == {"echo": "hi"}

    def test_concurrent_calls_overlap_in_simulated_time(self, world):
        clock, loop, _, make = world
        ch = make()
        t0 = clock.now_ns
        ch.unary_call("test.Dir", "Echo", {"msg": "x"})
        serial = clock.now_ns - t0

        t0 = clock.now_ns
        tasks = [loop.spawn(ch.unary_task("test.Dir", "Echo", {"msg": "x"}))
                 for _ in range(4)]
        loop.run_until_complete(loop.gather(tasks))
        concurrent = clock.now_ns - t0
        # Four pipelined calls must cost far less than four serial calls.
        assert concurrent < 2 * serial
        assert ch.aio_counters["in_flight_peak"] == 4

    def test_deadline_exceeded_raises(self, world):
        _, loop, _, make = world
        ch = make()
        task = loop.spawn(ch.unary_task(
            "test.Dir", "Echo", {"msg": "x"}, deadline_ns=1_000.0))
        with pytest.raises(RpcStatusError) as excinfo:
            loop.run_until_complete(task)
        assert excinfo.value.code is StatusCode.DEADLINE_EXCEEDED

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_same_outcome_as_sync(self, script):
        """Differential: the script's calls give the same responses (or
        exception types and codes) and the same ``channel.counters`` through
        ``unary_call`` as through ``unary_task`` on the loop. No deadline, so
        the inline lump against the loop's split legs cannot decide an
        outcome."""
        sync_outcomes, sync_counters = run_script(script, "sync")
        task_outcomes, task_counters = run_script(script, "task")
        assert task_outcomes == sync_outcomes
        assert task_counters == sync_counters
        SCRIPTS[script][2](sync_outcomes, sync_counters)

    def test_attribution_does_not_change_simulated_time(self):
        """Regression: a retried call hinting its retry time to a
        ``TaskAttribution`` drew a fresh transport cost from the channel's
        RNG for the hint, so attaching observability moved simulated time
        and the later drop decisions."""

        def run(with_attr):
            clock, loop, ch = pair(
                RpcConfig(inject_failure_rate=0.5, max_retries=6))
            for i in range(20):
                attr = TaskAttribution(clock, clock.now_ns) if with_attr else None
                task = loop.spawn(ch.unary_task(
                    "test.Dir", "Echo", {"msg": str(i)}, attr=attr))
                try:
                    loop.run_until_complete(task)
                except RpcStatusError:
                    pass
            return clock.now_ns, ch.counters.snapshot()

        plain = run(False)
        assert plain[1]["retries"] > 0
        assert run(True) == plain


class TestCoalescing:
    def test_window_merges_submissions_into_one_wire_message(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=100_000.0, max_batch=64)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-9"])]
        results = loop.run_until_complete(loop.gather(futs))
        assert service.lookups == 1
        assert ch.aio_counters["batches_sent"] == 1
        assert ch.aio_counters["batched_ids"] == 3
        # Each submitter sees only its own slice of the merged response.
        assert [d["object_id"] for d in results[0]["found"]] == [b"obj-1"]
        assert [d["object_id"] for d in results[1]["found"]] == [b"obj-2"]
        assert results[2]["found"] == []

    def test_contains_splits_positionally(self, world):
        _, loop, _, make = world
        ch = make(batch_window_ns=50_000.0)
        futs = [ch.batched_call("test.Dir", "Contains", [b"obj-1", b"nope"]),
                ch.batched_call("test.Dir", "Contains", [b"obj-2"])]
        results = loop.run_until_complete(loop.gather(futs))
        assert results[0]["present"] == [True, False]
        assert results[1]["present"] == [True]

    def test_max_batch_flushes_immediately(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=10_000_000.0, max_batch=2)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"])]
        # max_batch hit: the flush happened without waiting out the window.
        loop.run_until_complete(loop.gather(futs))
        assert service.lookups == 1
        assert loop.now_ns < 10_000_000

    def test_zero_window_dispatches_per_submission(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=0.0)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"])]
        loop.run_until_complete(loop.gather(futs))
        assert service.lookups == 2

    def test_unbatchable_method_rejected(self, world):
        _, _, _, make = world
        with pytest.raises(ValueError):
            make().batched_call("test.Dir", "Echo", [b"x"])

    def test_wire_failure_fans_out_to_all_entries(self, world):
        _, loop, _, make = world
        ch = make(batch_window_ns=50_000.0, inject_failure_rate=1.0,
                  max_retries=0)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"])]
        results = loop.run_until_complete(loop.gather(futs))
        assert all(isinstance(r, RpcStatusError) for r in results)
        assert all(r.code is StatusCode.UNAVAILABLE for r in results)


class TestBufferedDeadlineFailFast:
    """Regression (satellite fix): a deadline that expires while the request
    sits in the coalescing buffer must fail fast — no doomed wire message,
    no retry-budget spend."""

    def test_expired_entry_never_dispatched(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=200_000.0, max_batch=64,
                  retry_budget_per_s=1.0, retry_budget_burst=1)
        # Budget smaller than the batch window: it expires in the buffer.
        doomed = ch.batched_call("test.Dir", "Lookup", [b"obj-1"],
                                 deadline_ns=50_000.0)
        live = ch.batched_call("test.Dir", "Lookup", [b"obj-2"])
        results = loop.run_until_complete(loop.gather([doomed, live]))
        assert isinstance(results[0], RpcStatusError)
        assert results[0].code is StatusCode.DEADLINE_EXCEEDED
        assert "failed fast" in str(results[0])
        # The surviving entry still shipped — in a single wire message that
        # excludes the expired one.
        assert service.lookups == 1
        assert [d["object_id"] for d in results[1]["found"]] == [b"obj-2"]
        assert ch.aio_counters["batch_expired"] == 1
        # No retry token was burned on the doomed request.
        assert ch.counters.get("retries_suppressed") == 0
        assert ch.retry_budget.try_spend()

    def test_whole_batch_expired_sends_nothing(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=500_000.0, max_batch=64)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"],
                                deadline_ns=10_000.0),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"],
                                deadline_ns=20_000.0)]
        results = loop.run_until_complete(loop.gather(futs))
        assert all(r.code is StatusCode.DEADLINE_EXCEEDED for r in results)
        assert service.lookups == 0
        assert ch.aio_counters["batches_sent"] == 0
        assert ch.aio_counters["batch_expired"] == 2

    def test_deadline_with_headroom_survives_the_window(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=50_000.0, max_batch=64)
        fut = ch.batched_call("test.Dir", "Lookup", [b"obj-1"],
                              deadline_ns=50_000_000.0)
        result = loop.run_until_complete(fut)
        assert [d["object_id"] for d in result["found"]] == [b"obj-1"]
        assert service.lookups == 1


class TestStreamingPull:
    def test_task_form_interleaves_with_other_tasks(self):
        # Use a stub region: what matters here is that the task yields
        # between chunks so another task can run mid-transfer.
        from repro.rpc.aio.streaming import stream_pull, stream_pull_task

        class Region:
            def __init__(self, payload, clock):
                self.payload = payload
                self.clock = clock

            def view(self, offset, size):
                return memoryview(self.payload)[offset:offset + size]

            def charge_read(self, size):
                self.clock.advance(size * 10)

        clock = SimClock()
        loop = EventLoop(clock, DeterministicRng(3))
        payload = bytes(range(256)) * 16  # 4096 B
        region = Region(payload, clock)

        assert stream_pull(region, 0, len(payload), chunk_bytes=1024) == payload

        marks = []

        def pull():
            data = yield from stream_pull_task(
                region, 0, len(payload), chunk_bytes=1024)
            return data

        def observer():
            for _ in range(3):
                yield Sleep(5_000)
                marks.append(clock.now_ns)

        task = loop.spawn(pull())
        loop.spawn(observer())
        assert loop.run_until_complete(task) == payload
        pull_done_ns = clock.now_ns
        loop.drain()
        # The observer got scheduler slots while the pull was in progress.
        assert marks and marks[0] < pull_done_ns
