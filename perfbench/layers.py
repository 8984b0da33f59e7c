"""Per-layer metrics from a traced run.

The layers are the ``repro`` subpackages. :data:`PROBES` names the public
functions wrapped for each layer; :data:`PER_LAYER` names every metric the
traced run reports, with the end-to-end metric it should move and the
workload where it is predicted to stay flat. The traced run repeats a
fixed-rate stream untraced and traced, both without the output check, which
runs once per sub-stream beforehand; the simulated results of all three must
be identical.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.workload.scenario import TracingSpec

from perfbench import harness
from perfbench.tracer import Probe, Stats, Tracer
from perfbench.workloads import Workload

GIB = harness.GIB


# --------------------------------------------------------------------------- notes


def _method(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("method")


def _note_rpc(tracer, stats, args, kwargs, result):
    stats.add(f"method:{_method(args, kwargs)}")


def _note_advance(tracer, stats, args, kwargs, result):
    delta = args[1] if len(args) > 1 else kwargs["delta_ns"]
    tracer.sim_ns += int(round(delta))


def _note_encoded(tracer, stats, args, kwargs, result):
    stats.add("bytes", len(result))


def _note_decoded(tracer, stats, args, kwargs, result):
    stats.add("bytes", len(args[0]))


def _note_buffers(tracer, stats, args, kwargs, result):
    for buffer in result or ():
        if buffer is not None:
            stats.add("buffers")
            if buffer.is_remote:
                stats.add("remote")


def _note_returned_ns(tracer, stats, args, kwargs, result):
    stats.add("returned_ns", float(result or 0.0))


def _note_stream(tracer, stats, args, kwargs, result):
    stats.add("bytes", int(args[1] if len(args) > 1 else kwargs["nbytes"]))
    stats.add("returned_ns", float(result or 0.0))


def _note_sized_read(tracer, stats, args, kwargs, result):
    # (self, offset, size, out=None): bytes only when materialised.
    out = args[3] if len(args) > 3 else kwargs.get("out")
    size = args[2] if len(args) > 2 else kwargs["size"]
    stats.add("bytes", int(size) if out is not None else 0)


def _note_payload(tracer, stats, args, kwargs, result):
    stats.add("bytes", args[0].nbytes)


def _note_memory_write(tracer, stats, args, kwargs, result):
    stats.add("bytes", memoryview(args[2]).nbytes)


def _note_memory_read(tracer, stats, args, kwargs, result):
    stats.add("bytes", int(args[2]))


def _note_crc(tracer, stats, args, kwargs, result):
    stats.add("bytes", memoryview(args[0]).nbytes)


# --------------------------------------------------------------------------- probes

_CLIENT = "repro.core.client:DisaggregatedClient"
_STORE = "repro.core.store:DisaggregatedStore"
_SERVICE = "repro.core.service:StoreService"
_RUNNER = "repro.workload.runner:ScenarioRunner"
_RNG = "repro.common.rng:DeterministicRng"
_CODEC_SITES = ("repro.rpc.channel", "repro.rpc.aio.channel",
                "repro.rpc.server", "repro.core.dmsg")
_CRC_SITES = ("repro.plasma.buffer", "repro.plasma.store",
              "repro.memory.layout")

PROBES: tuple[Probe, ...] = (
    # workload: the traffic plane itself; run() is the root of the trace.
    Probe("workload", f"{_RUNNER}.run"),
    Probe("workload", f"{_RUNNER}._execute"),
    Probe("workload", f"{_RUNNER}._op_task"),
    Probe("workload", "repro.workload.traffic:generate_stream",
          sites=("repro.workload.runner",)),
    Probe("workload", "repro.workload.admission:AdmissionController.admit"),
    Probe("workload",
          "repro.workload.admission:AdmissionController.record_stored"),
    # core: client and store entry points, and the server-side handlers.
    Probe("core", f"{_CLIENT}.get"),
    Probe("core", f"{_CLIENT}.get_task"),
    Probe("core", f"{_CLIENT}.multi_get_task"),
    Probe("core", f"{_CLIENT}.put_bytes"),
    Probe("core", f"{_CLIENT}.put_bytes_task"),
    Probe("core", f"{_STORE}.get_buffers", note=_note_buffers),
    Probe("core", f"{_STORE}.get_buffers_task", note=_note_buffers),
    Probe("core", f"{_STORE}.delete_object"),
    Probe("core", f"{_STORE}.delete_object_task"),
    Probe("core", f"{_STORE}.reserve_ids"),
    Probe("core", f"{_STORE}.replicate_object"),
    Probe("core", f"{_STORE}.release_object"),
    Probe("core", "repro.core.lookup_cache:LookupCache.get"),
    Probe("core", "repro.core.lookup_cache:LookupCache.put"),
    *(Probe("core", f"{_SERVICE}.{name}") for name in (
        "Lookup", "Contains", "AddRef", "ReleaseRef", "NotifyDeleted",
        "Replicate", "DropReplica", "PlacedCreate", "PlacedSeal",
        "MigratePrepare", "MigrateCommit", "Stats",
    )),
    # placement: ring routing and the forwarded-create protocol.
    Probe("placement", f"{_STORE}.forward_put"),
    Probe("placement", f"{_STORE}.forward_put_task"),
    Probe("placement", f"{_STORE}.placement_home"),
    Probe("placement", "repro.placement.ring:HashRing.home"),
    Probe("placement", "repro.placement.ring:HashRing.preference"),
    # rpc: channels, server dispatch; the codec and event loop apart.
    Probe("rpc", "repro.rpc.channel:Channel.unary_call", note=_note_rpc),
    Probe("rpc", "repro.rpc.channel:Channel.stream_call"),
    Probe("rpc", "repro.rpc.aio.channel:AsyncChannel.unary_task",
          note=_note_rpc),
    Probe("rpc", "repro.rpc.aio.channel:AsyncChannel.batched_call",
          note=_note_rpc),
    Probe("rpc", "repro.rpc.server:RpcServer.dispatch_wire"),
    Probe("rpc", "repro.rpc.server:RpcServer.dispatch"),
    Probe("codec", "repro.rpc.codec:encode_message", sites=_CODEC_SITES,
          note=_note_encoded),
    Probe("codec", "repro.rpc.codec:decode_message", sites=_CODEC_SITES,
          note=_note_decoded),
    Probe("aio", "repro.rpc.aio.loop:EventLoop._run_next"),
    Probe("aio", "repro.rpc.aio.loop:EventLoop.spawn"),
    Probe("aio", "repro.rpc.aio.loop:EventLoop.call_at"),
    Probe("aio", "repro.rpc.aio.batch:CoalescingBuffer.submit"),
    Probe("aio", "repro.rpc.aio.batch:CoalescingBuffer.flush_now"),
    # plasma: the local object store, its client and buffers.
    Probe("plasma", "repro.plasma.store:PlasmaStore.create_object"),
    Probe("plasma", "repro.plasma.store:PlasmaStore.create_object_unchecked"),
    Probe("plasma", "repro.plasma.store:PlasmaStore.seal_object"),
    Probe("plasma", "repro.plasma.store:PlasmaStore.delete_object"),
    Probe("plasma", "repro.plasma.store:PlasmaStore.get_sealed_entry"),
    Probe("plasma", "repro.plasma.store:PlasmaStore.lookup_descriptor"),
    Probe("plasma", "repro.plasma.store:PlasmaStore.local_buffer"),
    Probe("plasma", "repro.plasma.client:PlasmaClient.put_bytes"),
    Probe("plasma", "repro.plasma.client:PlasmaClient.release"),
    Probe("plasma", "repro.plasma.client:PlasmaClient.seal"),
    Probe("plasma", "repro.plasma.buffer:PlasmaBuffer.read_all",
          note=_note_payload),
    Probe("plasma", "repro.plasma.buffer:PlasmaBuffer.read_into",
          note=_note_payload),
    Probe("plasma", "repro.plasma.buffer:PlasmaBuffer.write"),
    Probe("plasma", "repro.plasma.table:ObjectTable.lookup"),
    # allocator
    Probe("allocator", "repro.allocator.base:Allocator.allocate"),
    Probe("allocator", "repro.allocator.base:Allocator.free"),
    # thymesisflow: the fabric link and remote windows.
    Probe("fabric", "repro.thymesisflow.link:OpenCapiLink.charge_stream_read",
          note=_note_stream),
    Probe("fabric", "repro.thymesisflow.link:OpenCapiLink.charge_stream_write",
          note=_note_stream),
    Probe("fabric",
          "repro.thymesisflow.link:OpenCapiLink.charge_single_access"),
    Probe("fabric", "repro.plasma.buffer:RemoteBufferSource.timed_read",
          note=_note_sized_read),
    Probe("fabric", "repro.thymesisflow.aperture:RemoteRegion.read"),
    Probe("fabric", "repro.thymesisflow.aperture:RemoteRegion.write"),
    # memory: local reads and host memory copies.
    Probe("memory", "repro.plasma.buffer:LocalBufferSource.timed_read",
          note=_note_sized_read),
    Probe("memory", "repro.thymesisflow.endpoint:ThymesisEndpoint.local_read"),
    Probe("memory",
          "repro.thymesisflow.endpoint:ThymesisEndpoint.local_write"),
    Probe("memory", "repro.memory.host:HostMemory.read",
          note=_note_memory_read),
    Probe("memory", "repro.memory.host:HostMemory.write",
          note=_note_memory_write),
    # network: the client <-> store IPC cost model.
    Probe("network", "repro.network.ipc:IpcChannel.charge_request",
          note=_note_returned_ns),
    # tier
    Probe("tier", "repro.tier.engine:TierEngine.tick"),
    Probe("tier", "repro.tier.agent:TierAgent.serve_cached"),
    Probe("tier", "repro.tier.agent:TierAgent.note_remote_get"),
    Probe("tier", "repro.tier.agent:TierAgent.note_local_get"),
    Probe("tier", "repro.tier.agent:TierAgent.note_served"),
    Probe("tier", "repro.tier.cache:HotObjectCache.offer"),
    Probe("tier", "repro.tier.cache:HotObjectCache.invalidate"),
    # obs: metric instruments and counter groups.
    Probe("obs", "repro.obs.metrics:MetricFamily.labels"),
    Probe("obs", "repro.obs.metrics:Counter.inc"),
    Probe("obs", "repro.obs.metrics:Gauge.set"),
    Probe("obs", "repro.obs.metrics:Gauge.inc"),
    Probe("obs", "repro.obs.metrics:Histogram.observe"),
    Probe("obs", "repro.obs.metrics:CounterGroup.inc"),
    # common: the simulated clock, seeded randomness, checksums.
    Probe("sim", "repro.common.clock:SimClock.advance", note=_note_advance),
    *(Probe("rng", f"{_RNG}.{name}") for name in (
        "spawn", "bytes", "uniform", "normal", "lognormal_jitter",
        "integer", "choice", "shuffle",
    )),
    Probe("checksum", "repro.common.checksum:crc32c", sites=_CRC_SITES,
          note=_note_crc),
)

#: The runner's per-op frames. Their self-time holds the runner's own
#: per-op code, the benchmark's op-log taps and any program code below them
#: that no probe covers, so it does not count as attributed.
DISPATCH = ("ScenarioRunner._execute", "ScenarioRunner._op_task")

#: Layers whose host share is reported, in print order.
LAYERS = ("workload", "core", "placement", "rpc", "codec", "aio", "plasma",
          "allocator", "fabric", "memory", "network", "tier", "obs", "sim",
          "rng", "checksum")

ATTRIBUTION = ("queue", "service", "fabric", "client", "cache", "retry",
               "hedge", "pipeline")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric(s) it should move, and on which workload.
    moves: str


def _m(name, unit, better, moves):
    return LayerMetric(name, unit, better, moves)


_FLAT = "predicted flat"
PER_LAYER: tuple[LayerMetric, ...] = (
    *(_m(f"{layer}.host_share", "ratio", "lower",
         f"host_ops_per_s where the layer is busy; {_FLAT} elsewhere")
      for layer in LAYERS),
    _m("core.get_sim_us", "us", "lower",
       "read_p50_ms, max_rate_ops_per_s on lookup-fanout-8n"),
    _m("core.get_host_us", "us", "lower", "host_ops_per_s on lookup-fanout-8n"),
    _m("core.put_sim_us", "us", "lower",
       "write_p50_ms on lookup-fanout-8n and churn-async-5n"),
    _m("core.delete_sim_us", "us", "lower",
       "write_p50_ms on lookup-fanout-8n and churn-async-5n"),
    _m("core.remote_read_share", "ratio", "lower",
       "read_p50_ms on lookup-fanout-8n"),
    _m("core.lookup_cache_hit_rate", "ratio", "higher",
       "read_p50_ms on lookup-fanout-8n"),
    _m("placement.forwarded_put_share", "ratio", "lower",
       "write_p50_ms on lookup-fanout-8n and churn-async-5n"),
    _m("rpc.calls_per_op", "count", "lower",
       "read_p50_ms, write_p50_ms, max_rate_ops_per_s on lookup-fanout-8n"),
    _m("rpc.sim_ms_per_op", "ms", "lower",
       "read_p50_ms, write_p50_ms on lookup-fanout-8n"),
    _m("rpc.wire_bytes_per_call", "B", "lower",
       "host_ops_per_s on lookup-fanout-8n"),
    _m("rpc.lookup_calls_per_remote_read", "count", "lower",
       "read_p50_ms on lookup-fanout-8n (about N/2 today; ~1 with ring-"
       f"directed lookups); {_FLAT} on fabric-mb-tiered"),
    _m("rpc.notify_calls_per_delete", "count", "lower",
       "write_p50_ms on lookup-fanout-8n"),
    _m("rpc.failed_call_share", "ratio", "lower",
       "failed_ops_share on churn-async-5n"),
    _m("rpc.host_us_per_call", "us", "lower",
       "host_ops_per_s on lookup-fanout-8n"),
    _m("codec.host_us_per_msg", "us", "lower",
       "host_ops_per_s on lookup-fanout-8n and churn-async-5n; "
       f"{_FLAT} on fabric-mb-tiered"),
    _m("aio.tasks_per_op", "count", "lower",
       "host_ops_per_s on churn-async-5n; absent (0) on sync workloads"),
    _m("aio.ids_per_batch", "count", "higher",
       "write_p50_ms on churn-async-5n; absent (0) on sync workloads"),
    _m("aio.in_flight_peak", "count", "lower",
       "read_p99_ms on churn-async-5n; absent (0) on sync workloads"),
    _m("plasma.create_sim_us", "us", "lower", "write_p50_ms on churn-async-5n"),
    _m("plasma.seal_sim_us", "us", "lower", "write_p50_ms on churn-async-5n"),
    _m("plasma.read_host_ms_per_gib", "ms/GiB", "lower",
       "host_ops_per_s on fabric-mb-tiered"),
    _m("allocator.host_us_per_call", "us", "lower",
       "host_ops_per_s on churn-async-5n"),
    _m("allocator.fragmentation", "ratio", "lower",
       "failed_ops_share on churn-async-5n"),
    _m("allocator.failed_allocs", "count", "lower",
       "failed_ops_share on churn-async-5n"),
    _m("fabric.read_bytes_per_op", "B", "lower",
       "read_gib_per_s, read_p50_ms on fabric-mb-tiered"),
    _m("fabric.read_gib_per_s", "GiB/s", "higher",
       "read_gib_per_s on fabric-mb-tiered (paper: 5.75 GiB/s)"),
    _m("fabric.write_bytes_per_op", "B", "lower",
       "write_p50_ms on fabric-mb-tiered"),
    _m("fabric.single_accesses_per_op", "count", "lower",
       "read_p50_ms on fabric-mb-tiered"),
    _m("fabric.host_ms_per_gib", "ms/GiB", "lower",
       "host_ops_per_s on fabric-mb-tiered"),
    _m("memory.local_read_gib_per_s", "GiB/s", "higher",
       "read_p50_ms on fabric-mb-tiered (paper: 6.5 GiB/s)"),
    _m("memory.host_ms_per_gib", "ms/GiB", "lower",
       "host_ops_per_s on fabric-mb-tiered"),
    _m("ipc.sim_us_per_op", "us", "lower",
       f"read_p50_ms on all workloads; {_FLAT} unless the cost model changes"),
    _m("tier.remote_hit_rate", "ratio", "higher",
       "read_p50_ms, read_p99_ms on fabric-mb-tiered; absent (0) elsewhere"),
    _m("tier.bytes_avoided_share", "ratio", "higher",
       "read_gib_per_s on fabric-mb-tiered; absent (0) elsewhere"),
    _m("tier.tick_sim_ms", "ms", "lower",
       "read_p99_ms on fabric-mb-tiered; absent (0) elsewhere"),
    _m("tier.tick_host_ms", "ms", "lower",
       "host_ops_per_s on fabric-mb-tiered; absent (0) elsewhere"),
    _m("obs.calls_per_op", "count", "lower",
       "host_ops_per_s on lookup-fanout-8n and churn-async-5n"),
    _m("sim.events_per_op", "count", "lower", "host_ops_per_s, all workloads"),
    _m("sim.host_us_per_event", "us", "lower", "host_ops_per_s, all workloads"),
    _m("checksum.host_ms_per_gib", "ms/GiB", "lower",
       "host_ops_per_s on fabric-mb-tiered (0 when no checksum runs)"),
    *(_m(f"attr.{bucket}_ms_per_op", "ms", "lower",
         "splits a move of read_p50_ms or write_p50_ms into its buckets")
      for bucket in ATTRIBUTION),
    _m("trace.overhead_pct", "%", "lower",
       "the trace's own cost (traced vs untraced host_ops_per_s)"),
    _m("trace.host_attributed_share", "ratio", "higher",
       "coverage: host time inside a wrapped program call below the "
       "runner's own frames"),
)


# --------------------------------------------------------------------------- derivation


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _inspect(runner) -> dict:
    """Cluster-side counters read after a traced stream."""
    cluster = runner.cluster
    hits = misses = 0
    fragmentation = []
    for name in cluster.node_names():
        store = cluster.store(name)
        cache = store.lookup_cache
        if cache is not None:
            hits += cache.hits
            misses += cache.misses
        fragmentation.append(store.allocator.stats().external_fragmentation)
    result = runner.result
    tiering = result.tiering or {}
    attribution = {bucket: 0 for bucket in ATTRIBUTION}
    for table in result.attribution_by_kind.values():
        for bucket, ns in table["components_ns"].items():
            attribution[bucket] = attribution.get(bucket, 0) + ns
    return {
        "lookup_cache_hits": hits,
        "lookup_cache_misses": misses,
        "fragmentation": sum(fragmentation) / len(fragmentation),
        "remote_hit_rate": tiering.get("hot_set", {}).get(
            "all_remote_hit_rate", 0.0),
        "fabric_read_bytes": tiering.get("fabric", {}).get("read_bytes", 0),
        "fabric_read_bytes_avoided": tiering.get("fabric", {}).get(
            "read_bytes_avoided", 0),
        "rpc_counters": dict(result.rpc_counters),
        "attribution_ns": attribution,
    }


def derive(stats: dict, extras: list[dict], ops: int,
           overhead_pct: float) -> dict:
    """name -> (value, unit) for every metric in :data:`PER_LAYER`. Host
    shares are of the root call's wall time after set-up."""

    def s(key):
        return stats.get(key)

    def total(keys, field="calls"):
        return sum(getattr(s(k), field) for k in keys if s(k) is not None)

    def count(keys, name):
        return sum(s(k).counts.get(name, 0) for k in keys if s(k) is not None)

    layer_self = {layer: 0 for layer in LAYERS}
    for st in stats.values():
        layer_self[st.layer] = layer_self.get(st.layer, 0) + st.self_ns
    root = s("ScenarioRunner.run")
    host_ns = root.incl_ns if root is not None else 0
    unattributed = (root.self_ns if root is not None else 0) + total(
        DISPATCH, "self_ns")

    gets = ("DisaggregatedClient.get", "DisaggregatedClient.get_task",
            "DisaggregatedClient.multi_get_task")
    puts = ("DisaggregatedClient.put_bytes",
            "DisaggregatedClient.put_bytes_task")
    deletes = ("DisaggregatedStore.delete_object",
               "DisaggregatedStore.delete_object_task")
    resolves = ("DisaggregatedStore.get_buffers",
                "DisaggregatedStore.get_buffers_task")
    wire = ("Channel.unary_call", "AsyncChannel.unary_task")
    codec = ("encode_message", "decode_message")
    reads = ("PlasmaBuffer.read_all", "PlasmaBuffer.read_into")
    host_memory = ("HostMemory.read", "HostMemory.write")
    allocs = ("Allocator.allocate", "Allocator.free")

    rpc_calls = total(wire)
    remote_reads = count(resolves, "remote")
    lookup_calls = count(wire, "method:Lookup")
    notify_calls = count(wire, "method:NotifyDeleted")
    stream_read = s("OpenCapiLink.charge_stream_read")
    local_read = s("LocalBufferSource.timed_read")
    remote_read = s("RemoteBufferSource.timed_read")
    tick = s("TierEngine.tick")
    counters: dict = {}
    for extra in extras:
        for key, value in extra["rpc_counters"].items():
            if key == "in_flight_peak":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    n_extra = len(extras) or 1
    read_bytes = sum(e["fabric_read_bytes"] for e in extras)
    avoided = sum(e["fabric_read_bytes_avoided"] for e in extras)
    attribution = {
        bucket: sum(e["attribution_ns"].get(bucket, 0) for e in extras)
        for bucket in ATTRIBUTION
    }

    def per_call_us(keys, field):
        return _ratio(total(keys, field), total(keys)) / 1e3

    def gib(st, name="bytes"):
        return (st.counts.get(name, 0) / GIB) if st is not None else 0.0

    values = {f"{layer}.host_share": _ratio(layer_self[layer], host_ns)
              for layer in LAYERS}
    values.update({
        "core.get_sim_us": per_call_us(gets, "sim_ns"),
        "core.get_host_us": per_call_us(gets, "incl_ns"),
        "core.put_sim_us": per_call_us(puts, "sim_ns"),
        "core.delete_sim_us": per_call_us(deletes, "sim_ns"),
        "core.remote_read_share": _ratio(remote_reads,
                                         count(resolves, "buffers")),
        "core.lookup_cache_hit_rate": _ratio(
            sum(e["lookup_cache_hits"] for e in extras),
            sum(e["lookup_cache_hits"] + e["lookup_cache_misses"]
                for e in extras)),
        "placement.forwarded_put_share": _ratio(
            total(("DisaggregatedStore.forward_put",
                   "DisaggregatedStore.forward_put_task")), total(puts)),
        "rpc.calls_per_op": _ratio(rpc_calls, ops),
        "rpc.sim_ms_per_op": _ratio(total(wire, "sim_ns"), ops) / 1e6,
        "rpc.wire_bytes_per_call": _ratio(
            count(("encode_message",), "bytes"), rpc_calls),
        "rpc.lookup_calls_per_remote_read": _ratio(lookup_calls, remote_reads),
        "rpc.notify_calls_per_delete": _ratio(notify_calls, total(deletes)),
        "rpc.failed_call_share": _ratio(total(wire, "raised"), rpc_calls),
        "rpc.host_us_per_call": _ratio(layer_self["rpc"], rpc_calls) / 1e3,
        "codec.host_us_per_msg": _ratio(layer_self["codec"],
                                        total(codec)) / 1e3,
        "aio.tasks_per_op": _ratio(total(("EventLoop.spawn",)), ops),
        "aio.ids_per_batch": _ratio(counters.get("batched_ids", 0),
                                    counters.get("batches_sent", 0)),
        "aio.in_flight_peak": float(counters.get("in_flight_peak", 0)),
        "plasma.create_sim_us": per_call_us(
            ("PlasmaStore.create_object",
             "PlasmaStore.create_object_unchecked"), "sim_ns"),
        "plasma.seal_sim_us": per_call_us(("PlasmaStore.seal_object",),
                                          "sim_ns"),
        "plasma.read_host_ms_per_gib": _ratio(
            total(reads, "incl_ns") / 1e6,
            sum(gib(s(k)) for k in reads)),
        "allocator.host_us_per_call": _ratio(layer_self["allocator"],
                                             total(allocs)) / 1e3,
        "allocator.fragmentation": sum(e["fragmentation"] for e in extras)
        / n_extra,
        "allocator.failed_allocs": float(total(("Allocator.allocate",),
                                               "raised")),
        "fabric.read_bytes_per_op": _ratio(
            count(("OpenCapiLink.charge_stream_read",), "bytes"), ops),
        "fabric.read_gib_per_s": _ratio(
            gib(stream_read),
            count(("OpenCapiLink.charge_stream_read",), "returned_ns") / 1e9),
        "fabric.write_bytes_per_op": _ratio(
            count(("OpenCapiLink.charge_stream_write",), "bytes"), ops),
        "fabric.single_accesses_per_op": _ratio(
            total(("OpenCapiLink.charge_single_access",)), ops),
        "fabric.host_ms_per_gib": _ratio(
            remote_read.incl_ns / 1e6 if remote_read else 0.0,
            gib(remote_read)),
        "memory.local_read_gib_per_s": _ratio(
            gib(local_read),
            (local_read.sim_ns if local_read else 0) / 1e9),
        "memory.host_ms_per_gib": _ratio(
            total(host_memory, "incl_ns") / 1e6,
            sum(gib(s(k)) for k in host_memory)),
        "ipc.sim_us_per_op": _ratio(
            count(("IpcChannel.charge_request",), "returned_ns"), ops) / 1e3,
        "tier.remote_hit_rate": sum(e["remote_hit_rate"] for e in extras)
        / n_extra,
        "tier.bytes_avoided_share": _ratio(avoided, read_bytes + avoided),
        "tier.tick_sim_ms": _ratio(tick.sim_ns, tick.calls) / 1e6
        if tick else 0.0,
        "tier.tick_host_ms": _ratio(tick.incl_ns, tick.calls) / 1e6
        if tick else 0.0,
        "obs.calls_per_op": _ratio(
            sum(st.calls for st in stats.values() if st.layer == "obs"), ops),
        "sim.events_per_op": _ratio(total(("SimClock.advance",)), ops),
        "sim.host_us_per_event": per_call_us(("SimClock.advance",), "self_ns"),
        "checksum.host_ms_per_gib": _ratio(
            total(("crc32c",), "incl_ns") / 1e6, gib(s("crc32c"))),
        "trace.overhead_pct": overhead_pct,
        "trace.host_attributed_share": _ratio(host_ns - unattributed,
                                              host_ns),
    })
    for bucket in ATTRIBUTION:
        values[f"attr.{bucket}_ms_per_op"] = _ratio(attribution[bucket],
                                                    ops) / 1e6
    return {m.name: (float(values[m.name]), m.unit) for m in PER_LAYER}


# --------------------------------------------------------------------------- traced run


def traced_run(workload: Workload, seed: int, seconds: float, checker) -> dict:
    """Pairs of the same fixed-rate stream, untraced then traced, until
    ``seconds`` of host time passed (at least one pair). Every sub-stream
    first runs once with the output check; the pairs run without it and
    must reproduce that run exactly."""
    checked = [harness.run_stream(workload, seed, index, checker,
                                  ops=workload.stream_ops)
               for index in range(workload.streams)]
    pairs = []
    divergent = []
    started = time.perf_counter()
    stats_total: dict = {}
    extras: list[dict] = []
    missing: list[str] = []
    while not pairs or time.perf_counter() - started < seconds:
        index = len(pairs) % workload.streams
        plain = harness.run_stream(workload, seed, index,
                                   ops=workload.stream_ops)
        tracer = Tracer(PROBES)
        tracer.install()
        try:
            traced = harness.run_stream(
                workload, seed, index, ops=workload.stream_ops,
                tracing=TracingSpec(), on_measured=tracer.reset,
                inspect=_inspect,
            )
        finally:
            tracer.uninstall()
        missing = tracer.missing
        if not traced.digest == plain.digest == checked[index].digest:
            divergent.append(len(pairs))
        for key, st in tracer.stats.items():
            stats_total.setdefault(key, Stats(st.layer)).merge(st)
        extras.append(traced.extra)
        pairs.append((plain, traced))

    ops = sum(t.executed for _, t in pairs)
    overhead = statistics.median(
        (p.executed / p.host_s) / (t.executed / t.host_s) * 100.0 - 100.0
        for p, t in pairs
    )
    per_layer = derive(stats_total, extras, ops, overhead)
    check = {key: sum(run.check[key] for run in checked)
             for key in checked[0].check}
    examples = [e for run in checked
                for e in run.extra.get("check_examples", ())]
    return {
        "workload": workload.name,
        "seed": seed,
        "pairs": len(pairs),
        "ops_traced": ops,
        "per_layer": per_layer,
        "predictions": {m.name: m.moves for m in PER_LAYER},
        "probes": {
            key: {"layer": st.layer, "calls": st.calls,
                  "resumes": st.resumes, "raised": st.raised,
                  "self_ns": st.self_ns, "incl_ns": st.incl_ns,
                  "sim_ns": st.sim_ns, "counts": st.counts}
            for key, st in sorted(stats_total.items())
        },
        "missing_targets": missing,
        "deterministic": not divergent,
        "divergent_pairs": divergent,
        "sim_digest": harness.digest_of([p.digest for p, _ in pairs]),
        "check": check,
        "check_examples": examples[:5],
        # The checked ops, which the pairs replay: how many pairs fit in
        # --seconds depends on the host.
        "attempted": sum(run.ops for run in checked),
        "failed": sum(run.failed for run in checked),
    }
