"""Runs one workload: fixed-rate streams on both clocks, then a capacity
search on the simulated clock.

Every stream runs on a fresh cluster built from the workload's scenario.
A fixed-rate stream offers traffic from a sub-stream seed derived from the
run's seed; its cluster's ring layout comes from a fixed list (see
:func:`cluster_seed`). Caches start empty after the preload: the
population is put, never read, before the first measured op, and nothing
is dropped as warm-up.

The host figures come from passes over the sub-streams that run without
the output check (:mod:`perfbench.checker`), so they are the program's
alone. One checked pass follows, and every unchecked pass must reproduce its
op log exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.common.rng import derive_seed
from repro.common.stats import Distribution
from repro.workload import ScenarioRunner, generate_stream, load_scenario

from perfbench.workloads import Workload

FAILED_PREFIXES = ("error:", "shed:", "rejected:")
#: Check counts of a stream that ran without the output check.
UNCHECKED = {"puts": 0, "reads_checked": 0, "bytes_checked": 0,
             "mismatches": 0, "lost": 0, "raced": 0}
GIB = float(1 << 30)
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: The capacity search steps by this factor until a passing and a failing
#: rate bracket the answer, then bisects until the bracket is this narrow.
SEARCH_STEP = 1.25
SEARCH_TOLERANCE = 1.03


def is_failed(outcome: str) -> bool:
    return outcome.startswith(FAILED_PREFIXES)


def sub_seed(seed: int, index: int) -> int:
    return derive_seed(seed, "perfbench-stream", str(index))


def cluster_seed(index: int) -> int:
    """Seed of sub-stream *index*'s cluster: its ring layout, which fixes
    each object's home and its place in the peer-by-peer Lookup sweep.

    The layouts are part of the benchmark, not of its input: with a layout
    drawn per ``--seed``, a run's figures would mostly say where the zipfian
    head happened to land. Every run measures the same layouts, and
    ``--seed`` varies the traffic offered to them.
    """
    return derive_seed(2022, "perfbench-cluster", str(index))


# --------------------------------------------------------------------------- op log


@dataclass
class OpRecord:
    kind: str
    outcome: str
    latency_ns: int | None = None
    read_bytes: int = 0


class _LatencyChild:
    __slots__ = ("_child", "_records")

    def __init__(self, child, records):
        self._child = child
        self._records = records

    def observe(self, value) -> None:
        self._records[-1].latency_ns = int(value)
        self._child.observe(value)


class _BytesChild:
    __slots__ = ("_child", "_log")

    def __init__(self, child, log):
        self._child = child
        self._log = log

    def inc(self, amount=1) -> None:
        self._log.pending_read_bytes += int(amount)
        self._child.inc(amount)


class OpLog:
    """Per-op outcome, latency and bytes read, tapped from the runner's own
    metric families: the runner records an op's outcome, then its latency,
    with no simulated time or task switch in between."""

    def __init__(self) -> None:
        self.records: list[OpRecord] = []
        self.pending_read_bytes = 0

    def attach(self, runner: ScenarioRunner) -> None:
        log = self
        ops, latency, moved = runner._m_ops, runner._m_latency, runner._m_bytes

        class _Ops:
            def labels(self, *, tenant, kind, outcome):
                log.records.append(
                    OpRecord(kind, outcome, None, log.pending_read_bytes)
                )
                log.pending_read_bytes = 0
                return ops.labels(tenant=tenant, kind=kind, outcome=outcome)

        class _Latency:
            def labels(self, **labels):
                return _LatencyChild(latency.labels(**labels), log.records)

        class _Bytes:
            def labels(self, *, tenant, direction):
                child = moved.labels(tenant=tenant, direction=direction)
                return _BytesChild(child, log) if direction == "read" else child

        runner._m_ops, runner._m_latency, runner._m_bytes = (
            _Ops(), _Latency(), _Bytes()
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.records:
            h.update(f"{r.kind}|{r.outcome}|{r.latency_ns}|{r.read_bytes};"
                     .encode())
        return h.hexdigest()


# --------------------------------------------------------------------------- streams


class _BenchRunner(ScenarioRunner):
    """Builds the cluster from its own seed and stamps the end of set-up
    (cluster built, population preloaded)."""

    on_measured = None
    cluster_seed = None

    def _build_cluster(self):
        stream_seed, self.seed = self.seed, self.cluster_seed
        try:
            return super()._build_cluster()
        finally:
            self.seed = stream_seed

    def _preload(self) -> None:
        super()._preload()
        self.preload_end = time.perf_counter()
        self.preload_end_cpu = time.process_time()
        if self.on_measured is not None:
            self.on_measured(self)


@dataclass
class StreamRun:
    rate: float
    ops: int
    records: list[OpRecord]
    duration_ns: int
    last_arrival_ns: int
    #: Wall seconds of set-up; CPU seconds of the measured phase (the
    #: simulator is single-threaded, and CPU time leaves out the time other
    #: processes on a shared host take the core away).
    setup_s: float
    host_s: float
    digest: str
    check: dict
    extra: dict = field(default_factory=dict)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if r.latency_ns is not None)

    @property
    def failed(self) -> int:
        return (sum(1 for r in self.records if is_failed(r.outcome))
                + self.check["mismatches"] + self.check["lost"])


def scenario_variant(workload: Workload, *, rate=None, ops=None, tracing=None):
    """The workload's scenario with its offered rate, op count or tracing
    block replaced (loading the file is part of set-up)."""
    base = load_scenario(workload.scenario_path)
    traffic = base.traffic
    arrival = traffic.arrival
    if rate is not None:
        arrival = dataclasses.replace(arrival, base_rate_ops_per_s=float(rate))
    traffic = dataclasses.replace(
        traffic, arrival=arrival, ops=traffic.ops if ops is None else int(ops)
    )
    changes = {"traffic": traffic}
    if tracing is not None:
        changes["tracing"] = tracing
    return dataclasses.replace(base, **changes)


def run_stream(workload: Workload, seed: int, index: int, checker=None, *,
               rate=None, ops=None, tracing=None, on_measured=None,
               inspect=None) -> StreamRun:
    """Sub-stream *index* of the run seeded *seed*, on a fresh cluster,
    with *checker* installed for its whole length when one is given.
    ``on_measured(runner)`` runs when set-up ends; ``inspect(runner)`` after
    the run, its dict kept in ``extra``."""
    gc.collect()
    if checker is not None:
        checker.reset()
        checker.install()
    try:
        start = time.perf_counter()
        scenario = scenario_variant(workload, rate=rate, ops=ops,
                                    tracing=tracing)
        seed = sub_seed(seed, index)
        runner = _BenchRunner(scenario, seed)
        runner.cluster_seed = cluster_seed(index)
        runner.on_measured = on_measured
        log = OpLog()
        log.attach(runner)
        result = runner.run()
        end_cpu = time.process_time()
    finally:
        if checker is not None:
            checker.uninstall()
    stream = generate_stream(scenario, seed)
    run = StreamRun(
        rate=scenario.traffic.arrival.base_rate_ops_per_s,
        ops=scenario.traffic.ops,
        records=log.records,
        duration_ns=result.duration_ns,
        last_arrival_ns=stream[-1].at_ns or 0,
        setup_s=runner.preload_end - start,
        host_s=end_cpu - runner.preload_end_cpu,
        digest=log.digest(),
        check=checker.counts() if checker is not None else dict(UNCHECKED),
        extra=inspect(runner) if inspect is not None else {},
    )
    if checker is not None and checker.examples:
        run.extra["check_examples"] = list(checker.examples)
    return run


# --------------------------------------------------------------------------- statistics


def percentile_entry(latencies_ns: list, q: float) -> dict:
    """``{"value_ms", "samples", "beyond"}``; value ``None`` when fewer than
    TAIL_SAMPLES samples lie beyond the percentile."""
    dist = Distribution()
    dist.extend(latencies_ns)
    n = dist.count
    beyond = n - math.ceil(q * n) if n else 0
    value = dist.quantile(q) / 1e6 if n and beyond >= TAIL_SAMPLES else None
    return {"value_ms": value, "samples": n, "beyond": beyond}


def kind_latencies(runs, kind: str) -> list:
    """Latencies of the ``ok`` ops of one kind: a read of an emptied slot
    never reaches the store and is left out."""
    return [
        r.latency_ns
        for run in runs
        for r in run.records
        if r.kind == kind and r.outcome == "ok"
    ]


def evaluate_point(runs, limit_ms: float) -> dict:
    """Capacity criterion at one offered rate, pooled over sub-streams."""
    limit_ns = limit_ms * 1e6
    attempted = sum(run.ops for run in runs)
    good = sum(
        1
        for run in runs
        for r in run.records
        if not is_failed(r.outcome)
        and r.latency_ns is not None
        and r.latency_ns <= limit_ns
    ) - sum(run.check["mismatches"] + run.check["lost"] for run in runs)
    executed = sum(run.executed for run in runs)
    completed_rate = executed / (sum(run.duration_ns for run in runs) / 1e9)
    offered_rate = attempted / (sum(run.last_arrival_ns for run in runs) / 1e9)
    latencies = [
        r.latency_ns for run in runs for r in run.records
        if r.latency_ns is not None and not is_failed(r.outcome)
    ]
    p50 = percentile_entry(latencies, 0.5)
    p99 = percentile_entry(latencies, 0.99)
    ok_share = good / attempted
    completed_share = completed_rate / offered_rate
    return {
        "offered_ops_per_s": runs[0].rate,
        "p50_ms": p50["value_ms"],
        "p99_ms": p99["value_ms"],
        "samples": p50["samples"],
        "ok_within_limit_share": ok_share,
        "completed_share": completed_share,
        "passes": ok_share >= 0.99 and completed_share >= 0.98,
    }


def capacity_search(workload: Workload, checker, runs_out: list) -> dict:
    """Deterministic geometric search on the simulated clock for the highest
    offered rate that passes :func:`evaluate_point`: step from the
    workload's starting rate until a pass and a fail bracket the answer,
    then bisect the bracket.

    The search offers the traffic of the scenario file's own seed, the same
    in every run. Its criterion turns on the slowest 1% of ops, and at the
    sizes a run can afford that tail's sampling noise moved the capacity by
    11-32% (quartile spread over ten seeds) from one traffic seed to the
    next. On a fixed sample the capacity moves exactly when the program's
    behaviour does.
    """
    seed = load_scenario(workload.scenario_path).seed
    curve: list[dict] = []

    def visit(rate: float) -> bool:
        runs = [
            run_stream(workload, seed, i, checker, rate=rate,
                       ops=workload.search_ops)
            for i in range(workload.search_streams)
        ]
        runs_out.extend(runs)
        point = evaluate_point(runs, workload.latency_limit_ms)
        curve.append(point)
        return point["passes"]

    step = SEARCH_STEP
    lo = hi = None
    rate = workload.search_start
    if visit(rate):
        lo = rate
        for _ in range(8):
            if not visit(lo * step):
                hi = lo * step
                break
            lo *= step
    else:
        hi = rate
        for _ in range(8):
            if visit(hi / step):
                lo = hi / step
                break
            hi /= step
    bracketed = lo is not None and hi is not None
    while bracketed and hi / lo > SEARCH_TOLERANCE:
        mid = math.sqrt(lo * hi)
        if visit(mid):
            lo = mid
        else:
            hi = mid
    curve.sort(key=lambda p: p["offered_ops_per_s"])
    return {
        "max_rate_ops_per_s": lo if bracketed else None,
        "first_failing_ops_per_s": hi,
        "latency_limit_ms": workload.latency_limit_ms,
        "curve": curve,
        "bracketed": bracketed,
    }


def sim_metrics(runs, search: dict) -> dict:
    """Every simulated-clock result of a run; equal seeds give equal dicts."""
    reads = kind_latencies(runs, "read")
    writes = kind_latencies(runs, "write")
    ok_reads = [
        r for run in runs for r in run.records
        if r.kind == "read" and r.outcome == "ok"
    ]
    read_bytes = sum(r.read_bytes for r in ok_reads)
    read_ns = sum(r.latency_ns for r in ok_reads)
    attempted = sum(run.ops for run in runs)
    failed = sum(run.failed for run in runs)
    return {
        "read_p50": percentile_entry(reads, 0.5),
        "read_p99": percentile_entry(reads, 0.99),
        "write_p50": percentile_entry(writes, 0.5),
        "write_p99": percentile_entry(writes, 0.99),
        "read_gib_per_s": (read_bytes / GIB) / (read_ns / 1e9) if read_ns else None,
        "ok_read_bytes": read_bytes,
        "failed_ops_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "outcomes": _outcomes(runs),
        "capacity": search,
        "stream_digests": [run.digest for run in runs],
    }


def _outcomes(runs) -> dict:
    out: dict[str, int] = {}
    for run in runs:
        for r in run.records:
            out[r.outcome] = out.get(r.outcome, 0) + 1
    return dict(sorted(out.items()))


def digest_of(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- workload run


def fixed_rate_reps(workload: Workload, seed: int, seconds: float):
    """The workload's sub-streams at its fixed rate, without the output
    check, cycled until ``seconds`` of host time passed (at least one
    stream)."""
    reps: list[StreamRun] = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        reps.append(run_stream(workload, seed, len(reps) % workload.streams,
                               ops=workload.stream_ops))
    return reps


def run_workload(workload: Workload, seed: int, seconds: float, checker,
                 import_s: float) -> dict:
    reps = fixed_rate_reps(workload, seed, seconds)
    # Peak RSS of import, set-up and the unchecked fixed-rate streams. The
    # output check's copies of live payloads come after, as do the capacity
    # search's overloaded points, whose deep backlogs no user would run at.
    rss = peak_rss_mib()
    checked = [run_stream(workload, seed, index, checker,
                          ops=workload.stream_ops)
               for index in range(workload.streams)]
    divergent = [n for n, run in enumerate(reps)
                 if run.digest != checked[n % workload.streams].digest]
    fixed_rate = reps[0].rate
    search_runs: list[StreamRun] = []
    search = capacity_search(workload, checker, search_runs)
    sim = sim_metrics(checked, search)
    check = {
        key: sum(run.check[key] for run in checked + search_runs)
        for key in checked[0].check
    }
    examples = [e for run in checked + search_runs
                for e in run.extra.get("check_examples", ())]
    setup = statistics.median(run.setup_s for run in reps)
    host_rates = [run.executed / run.host_s for run in reps]
    return {
        "workload": workload.name,
        "seed": seed,
        "fixed_rate_ops_per_s": fixed_rate,
        "latency_limit_ms": workload.latency_limit_ms,
        "streams": workload.streams,
        "stream_ops": workload.stream_ops,
        "reps": len(reps),
        "sim": sim,
        "sim_digest": digest_of(sim),
        "deterministic": not divergent,
        "divergent_reps": divergent,
        "check": check,
        "check_examples": examples[:5],
        "host": {
            "import_s": import_s,
            "setup_s_per_rep": [run.setup_s for run in reps],
            "setup_s": import_s + setup,
            "host_ops_per_s_per_rep": host_rates,
            "host_ops_per_s": statistics.median(host_rates),
            "peak_rss_mib": rss,
        },
        # The ops of the checked pass: the unchecked passes replay them
        # exactly, and how many of those fit in --seconds depends on the
        # host, so counting them would make these counts vary from run to
        # run of the same seed.
        "attempted": sim["attempted"],
        "failed": sim["failed"],
    }
