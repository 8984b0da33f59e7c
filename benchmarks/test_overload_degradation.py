"""E-overload — the goodput knee: graceful degradation vs congestion collapse.

The same workload (steady open-loop arrivals against servers with a finite
service rate, plus a periodic stall on one node) is swept across offered
load with the overload controls **on** (bounded LIFO-under-pressure queue,
expired-work shedding at server and ingress, retry budget) and **off**
(unbounded FIFO queue, no shedding, unlimited retries). Goodput counts
only "ok" ops that finished within the op deadline measured from their
*scheduled* arrival — the user-facing SLO, not the dispatch-relative one.

The experiment asserts the PR's degradation contract:

* With controls on, goodput at 2.5x the per-node service rate holds at
  >= 70% of the pre-knee peak — overload sheds stale work for free and
  keeps serving fresh work inside the deadline.
* With controls off, the same 2.5x point *collapses*: every op waits out the
  full backlog, so almost nothing finishes inside the deadline.
* The whole sweep is deterministic: re-running a point yields a
  byte-identical BENCH payload.
"""

from __future__ import annotations

from repro.workload.report import build_workload_payload
from repro.workload.runner import ScenarioRunner
from repro.workload.scenario import Scenario

SERVICE_RATE = 100.0  # ops/s each server can actually service
# The overload point sits past the controls-off knee. Service time is
# charged per RPC, so the knee moves with the RPCs an op costs: since remote
# gets probe the ring home first (fewer Lookups per read), controls-off
# goodput at 2x still holds 42 of its 79 ops/s peak and collapses only by
# 2.5x (18 ops/s).
OVERLOAD = 2.5 * SERVICE_RATE
RATES = (50, 100, OVERLOAD)  # offered load: 0.5x, 1x, 2.5x the service rate
OP_DEADLINE_MS = 100.0


def make_scenario(rate: float, controls: bool) -> Scenario:
    return Scenario.from_obj({
        "schema_version": 1,
        "name": f"knee-{'on' if controls else 'off'}-{int(rate)}",
        "seed": 77,
        "cluster": {
            "nodes": 3, "capacity_mib": 48, "replicas": 1, "placement": True,
        },
        "population": {
            "objects": 80, "size": {"dist": "fixed", "bytes": 2048},
        },
        "traffic": {
            "ops": 600,
            "mix": {"read": 70, "write": 20, "delete": 5, "scan": 5},
            "scan_length": 8,
            "popularity": {"model": "zipfian", "s": 1.1},
            "arrival": {
                "mode": "open",
                "base_rate_ops_per_s": rate,
                "diurnal_amplitude": 0.0,
                "diurnal_period_s": 1.0,
            },
        },
        "overload": {
            "service_rate_ops_per_s": SERVICE_RATE,
            # Controls off: unbounded FIFO, never shed, retry forever.
            "queue_depth": 16 if controls else 0,
            "queue_discipline": "lifo" if controls else "fifo",
            "shed_expired": controls,
            "op_deadline_ms": OP_DEADLINE_MS,
            "retry_budget_per_s": 50 if controls else 0,
            "retry_budget_burst": 10,
            # A 120 ms stall on node-0 twice a second: the exogenous
            # backlog the bounded queue has to absorb or shed.
            "burst_backlog_ms": 120,
            "burst_period_s": 0.5,
            "burst_node": 0,
        },
    })


def run_point(rate: float, controls: bool):
    result = ScenarioRunner(make_scenario(rate, controls)).run()
    goodput = result.in_deadline_ops / (result.duration_ns / 1e9)
    return result, goodput


def sweep(controls: bool) -> dict[float, float]:
    return {rate: run_point(rate, controls)[1] for rate in RATES}


def test_goodput_knee_with_controls_on():
    """At 2.5x the service rate, goodput holds >= 70% of the pre-knee peak."""
    goodput = sweep(controls=True)
    pre_knee_peak = max(goodput[rate] for rate in RATES if rate <= SERVICE_RATE)
    at_overload = goodput[OVERLOAD]
    assert pre_knee_peak > 0
    assert at_overload >= 0.7 * pre_knee_peak, (
        f"goodput collapsed with controls on: {at_overload:.1f} ops/s at "
        f"2.5x vs pre-knee peak {pre_knee_peak:.1f} ops/s ({goodput})"
    )


def test_goodput_collapses_with_controls_off():
    """The identical 2.5x point collapses without the overload controls."""
    goodput = sweep(controls=False)
    pre_knee_peak = max(goodput[rate] for rate in RATES if rate <= SERVICE_RATE)
    at_overload = goodput[OVERLOAD]
    assert pre_knee_peak > 0
    assert at_overload < 0.3 * pre_knee_peak, (
        f"expected congestion collapse with controls off, got "
        f"{at_overload:.1f} ops/s at 2.5x vs pre-knee peak {pre_knee_peak:.1f} ops/s ({goodput})"
    )


def test_controls_win_at_overload():
    """Head to head at 2.5x: controls on beats controls off outright."""
    _, on = run_point(OVERLOAD, controls=True)
    _, off = run_point(OVERLOAD, controls=False)
    assert on > 2 * off


def test_sweep_point_replays_byte_identical():
    """One overloaded point, run twice: identical BENCH payloads."""
    first, _ = run_point(OVERLOAD, controls=True)
    second, _ = run_point(OVERLOAD, controls=True)
    assert build_workload_payload(first) == build_workload_payload(second)
    assert first.overload_server == second.overload_server
    assert first.overload_client == second.overload_client
