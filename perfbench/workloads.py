"""The benchmark's workloads and the settings that size each run.

Each workload is a version-1 scenario file under ``scenarios/``; its
``traffic.arrival.base_rate_ops_per_s`` is the workload's fixed offered
rate. The settings here fix everything else a run needs: the latency limit
L that the capacity search holds ops to, and how much simulated traffic a
run measures. Traffic is split into independent sub-streams, each with its
own seed derived from the run's ``--seed``; pooling them keeps the
simulated percentiles of one run close to those of the next seed, which a
single long stream does not (the zipfian hot set lands on different nodes
per seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Latency limit L (ms) for the capacity search: about twice the p99 of
    #: all ops at a near-idle offered rate, measured at the parent commit.
    latency_limit_ms: float
    #: Sub-streams pooled for the fixed-rate percentiles, and their length.
    streams: int
    stream_ops: int
    #: Sub-streams and length per offered rate the capacity search visits.
    search_streams: int
    search_ops: int
    #: Where the capacity search starts: about the capacity measured at the
    #: parent commit, so that few rates are visited.
    search_start: float

    @property
    def scenario_path(self) -> Path:
        return SCENARIO_DIR / f"{self.name}.json"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # RPC fan-out: 8-node peer-by-peer Lookup sweep, NotifyDeleted to
        # 7 peers, codec-heavy host time. Writes are 12% of ops, so 15k ops
        # give ~1800 write samples; six sub-streams rather than four bring
        # read p99's quartile spread over ten seeds from 0.069-0.090 to
        # 0.054-0.058.
        Workload(
            name="lookup-fanout-8n",
            latency_limit_ms=46.0,
            streams=6,
            stream_ops=2500,
            search_streams=6,
            search_ops=500,
            search_start=50.0,
        ),
        # Byte copies: MB objects over the fabric and local memory with the
        # hot-object cache on (Fig 7 regime). Writes are 20% of ops so that
        # 5600 ops give write p99 its samples.
        Workload(
            name="fabric-mb-tiered",
            latency_limit_ms=23.0,
            streams=4,
            stream_ops=1400,
            search_streams=2,
            search_ops=500,
            search_start=100.0,
        ),
        # Write-side churn through the async event-loop core: allocator,
        # forwarded puts with replicas, coalesced NotifyDeleted. Six
        # sub-streams rather than four bring read p99's quartile spread over
        # ten seeds from 0.046-0.101 to 0.045-0.060.
        Workload(
            name="churn-async-5n",
            latency_limit_ms=27.0,
            streams=6,
            stream_ops=1500,
            search_streams=4,
            search_ops=600,
            search_start=410.0,
        ),
    )
}
