"""Simulated-time tracing through the span sink: spans, the bounded flight
ring, retention stats, Chrome export, and the cluster wiring."""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.rng import DeterministicRng
from repro.obs.spans import SpanConfig, SpanSink


def make_sink(**cfg) -> tuple[SimClock, SpanSink]:
    clock = SimClock()
    sink = SpanSink(
        clock, DeterministicRng(3).spawn("obs", "spans"), SpanConfig(**cfg)
    )
    return clock, sink


@pytest.fixture
def setup():
    return make_sink()


def all_spans(sink):
    return [span for trace in sink.traces() for span in trace["spans"]]


class TestSpans:
    def test_span_measures_simulated_time(self, setup):
        clock, sink = setup
        with sink.span("cat", "op"):
            clock.advance(1234)
        (span,) = all_spans(sink)
        assert span.duration_ns == 1234
        assert span.start_ns == 0
        assert span.category == "cat"

    def test_nested_spans(self, setup):
        clock, sink = setup
        with sink.span("outer", "a"):
            clock.advance(10)
            with sink.span("inner", "b"):
                clock.advance(5)
            clock.advance(10)
        inner, outer = all_spans(sink)  # inner closes first
        assert inner.name == "b" and inner.duration_ns == 5
        assert outer.name == "a" and outer.duration_ns == 25
        assert inner.parent_id == outer.span_id

    def test_instant_event(self, setup):
        clock, sink = setup
        clock.advance(7)
        with sink.span("mark", "here", node="n0", extra=1):
            pass
        (span,) = all_spans(sink)
        assert span.duration_ns == 0
        assert span.start_ns == 7
        assert span.args == {"extra": 1}

    def test_args_and_track_recorded(self, setup):
        clock, sink = setup
        with sink.span("rpc", "Lookup", node="a->b", n=5):
            clock.advance(1)
        (span,) = all_spans(sink)
        assert span.node == "a->b"
        assert span.args == {"n": 5}

    def test_bounded_capacity(self):
        clock, sink = make_sink(flight_capacity=3)
        for _ in range(5):
            with sink.span("x", "y", node="n0"):
                clock.advance(1)
        ring = sink.flight_recorder("n0")
        assert len(ring) == 3
        assert ring.dropped == 2

    def test_category_filter_and_totals(self, setup):
        clock, sink = setup
        with sink.span("a", "x"):
            clock.advance(10)
        with sink.span("b", "y"):
            clock.advance(20)
        spans = all_spans(sink)
        assert [s.name for s in spans if s.category == "a"] == ["x"]
        assert sum(s.duration_ns for s in spans if s.category == "b") == 20


class TestSummaryAndExport:
    def test_summary_aggregates(self, setup):
        clock, sink = setup
        for _ in range(3):
            with sink.span("rpc", "Lookup"):
                clock.advance(100)
        stats = sink.sampling_stats()
        assert stats["roots"] == 3
        assert stats["kept_head"] == 3
        assert [t["duration_ns"] for t in sink.traces()] == [100] * 3

    def test_chrome_trace_structure(self, setup):
        clock, sink = setup
        with sink.span("rpc", "Lookup", node="a->b"):
            clock.advance(2_000)
        doc = sink.to_chrome_trace()
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 0.0
        assert event["dur"] == 2.0  # microseconds
        assert event["pid"] == "a->b"

    def test_write_chrome_trace(self, setup, tmp_path):
        clock, sink = setup
        with sink.span("c", "n"):
            clock.advance(1)
        path = tmp_path / "trace.json"
        sink.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_write_chrome_trace_accepts_pathlib_and_str(self, setup, tmp_path):
        clock, sink = setup
        with sink.span("c", "n"):
            clock.advance(1)
        as_path = tmp_path / "as_path.json"
        sink.write_chrome_trace(as_path)  # pathlib.Path
        sink.write_chrome_trace(str(tmp_path / "as_str.json"))
        for name in ("as_path.json", "as_str.json"):
            assert json.loads((tmp_path / name).read_text())["traceEvents"]

    def test_summary_reports_dropped_events(self):
        # No head sampling; only the slowest root seen so far is kept.
        clock, sink = make_sink(sample_rate=0.0, tail_percentile=1.0)
        for ns in (50, 40, 30, 20, 10):
            with sink.span("x", "y"):
                clock.advance(ns)
        stats = sink.sampling_stats()
        assert stats["kept_tail"] == 1
        assert stats["discarded"] == 4
        assert len(sink.traces()) == 1

    def test_summary_reports_dropped_in_bounded_mode_too(self):
        clock, sink = make_sink(max_traces=2)
        for _ in range(5):
            with sink.span("x", "y"):
                clock.advance(1)
        assert len(sink.traces()) == 2
        assert sink.sampling_stats()["traces_overflowed"] == 3

    def test_summary_has_no_dropped_row_when_nothing_dropped(self, setup):
        clock, sink = setup
        with sink.span("x", "y"):
            clock.advance(1)
        stats = sink.sampling_stats()
        assert stats["discarded"] == 0
        assert stats["traces_overflowed"] == 0


class TestClusterIntegration:
    def test_remote_get_produces_rpc_and_store_spans(self, small_config):
        from repro.core import Cluster

        cluster = Cluster(
            small_config, n_nodes=2, check_remote_uniqueness=False, tracing=True
        )
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"traced")
        consumer.get_one(oid)
        spans = all_spans(cluster.spans)
        assert any(
            s.category == "store" and s.name == "get_buffers" for s in spans
        )
        assert any(s.category == "rpc" for s in spans)

    def test_cluster_builds_with_tracer(self, small_config):
        from repro.core import Cluster

        plain = Cluster(small_config, n_nodes=2, check_remote_uniqueness=False)
        assert plain.spans is None
        traced = Cluster(
            small_config, n_nodes=2, check_remote_uniqueness=False, tracing=True
        )
        assert isinstance(traced.spans, SpanSink)
        assert traced.clock.now_ns == plain.clock.now_ns

    def test_rpc_spans_dominate_remote_get(self, small_config):
        """The Fig 6 claim, on a timeline: the gRPC span accounts for most
        of a remote retrieval."""
        from repro.core import Cluster

        cluster = Cluster(
            small_config, n_nodes=2, check_remote_uniqueness=False, tracing=True
        )
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"breakdown")
        consumer.get_one(oid)
        spans = all_spans(cluster.spans)
        store_total = sum(
            s.duration_ns for s in spans if s.category == "store"
        )
        rpc_total = sum(
            s.duration_ns
            for s in spans
            if s.category == "rpc" and "Lookup" in s.name
        )
        assert rpc_total > 0.8 * store_total  # lookup time ~= RPC time
