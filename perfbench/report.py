"""The benchmark's printed output: a readable table and the one-line JSON
summary."""

from __future__ import annotations

#: (name, unit, clock) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "host"),
    ("host_ops_per_s", "ops/s", "host"),
    ("peak_rss_mib", "MiB", "host"),
    ("max_rate_ops_per_s", "ops/s", "sim"),
    ("read_p50_ms", "ms", "sim"),
    ("read_p99_ms", "ms", "sim"),
    ("write_p50_ms", "ms", "sim"),
    ("write_p99_ms", "ms", "sim"),
    ("read_gib_per_s", "GiB/s", "sim"),
    ("failed_ops_share", "ratio", "sim"),
)

#: Reported in the result file and the table, not in the JSON line.
#: ``failed_ops_share`` is carried by ``attempted``/``failed``: on a healthy
#: run it is 0, and a zero median cannot bound a relative change.
#: ``host_ops_per_s`` moves with the shared host's speed, which drifted by up
#: to 1.5x over minutes, unseen by the process's CPU time; its quartile
#: spread over ten runs exceeded the largest bound allowed (see README.md).
NOT_IN_JSON = {"failed_ops_share", "host_ops_per_s"}

#: The paper's Fig 7 sequential-read anchors (GiB/s).
PAPER_REMOTE_GIB_PER_S = 5.75
PAPER_LOCAL_GIB_PER_S = 6.5


def end_to_end_values(result: dict) -> dict:
    """name -> (value or None, samples or None)."""
    sim, host = result["sim"], result["host"]

    def pct(key):
        entry = sim[key]
        return entry["value_ms"], entry["samples"]

    return {
        "setup_s": (host["setup_s"], len(host["setup_s_per_rep"])),
        "host_ops_per_s": (host["host_ops_per_s"],
                           len(host["host_ops_per_s_per_rep"])),
        "peak_rss_mib": (host["peak_rss_mib"], None),
        "max_rate_ops_per_s": (sim["capacity"]["max_rate_ops_per_s"],
                               len(sim["capacity"]["curve"])),
        "read_p50_ms": pct("read_p50"),
        "read_p99_ms": pct("read_p99"),
        "write_p50_ms": pct("write_p50"),
        "write_p99_ms": pct("write_p99"),
        "read_gib_per_s": (sim["read_gib_per_s"], None),
        "failed_ops_share": (sim["failed_ops_share"], sim["attempted"]),
    }


def summary(result: dict, *, trace: bool) -> dict:
    check = result["check"]
    correct = (
        result["deterministic"]
        and check["mismatches"] == 0
        and check["lost"] == 0
    )
    metrics: dict = {}
    if trace:
        for name, (value, unit) in result["per_layer"].items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, (value, _) in end_to_end_values(result).items():
            if name in NOT_IN_JSON:
                continue
            if value is None:
                # A percentile without its tail samples, or an unbracketed
                # capacity search: the run cannot stand for this metric.
                correct = False
                continue
            metrics[name] = {"value": value, "unit": units[name]}
    return {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def _fmt(value) -> str:
    if value is None:
        return "omitted"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def human(result: dict, summary_: dict, *, trace: bool) -> str:
    lines = [f"workload {result['workload']}  seed {result['seed']}"]
    check = result["check"]
    lines.append(
        f"output check: {check['reads_checked']} reads, "
        f"{check['bytes_checked']} bytes compared, "
        f"{check['mismatches']} mismatches, {check['lost']} lost objects "
        f"({check['raced']} misses raced a delete)"
    )
    for example in result.get("check_examples", ()):
        lines.append(f"  {example}")
    lines.append(
        "simulated metrics repeat across repeated streams: "
        f"{'yes' if result['deterministic'] else 'NO'}"
        f"  (digest {result['sim_digest'][:16]})"
    )
    if trace:
        lines.extend(_human_trace(result))
    else:
        lines.extend(_human_e2e(result))
    if not summary_["correct"]:
        lines.append("RESULT NOT CORRECT")
    return "\n".join(lines)


def _human_e2e(result: dict) -> list[str]:
    sim = result["sim"]
    lines = [
        f"fixed rate {result['fixed_rate_ops_per_s']:g} ops/s, "
        f"{result['streams']} x {result['stream_ops']} ops pooled; "
        f"latency limit L {result['latency_limit_ms']:g} ms; "
        "caches empty after preload, no warm-up dropped",
        f"{'metric':<22}{'value':>14}  {'unit':<7}{'clock':<6}samples",
    ]
    units = {name: (unit, clock) for name, unit, clock in END_TO_END}
    for name, (value, samples) in end_to_end_values(result).items():
        unit, clock = units[name]
        note = "" if samples is None else str(samples)
        if value is None and name.endswith("p99_ms"):
            entry = sim[name[: -len("_ms")]]
            note += (f" (p99 omitted: {entry['beyond']} samples beyond it, "
                     "need 10)")
        lines.append(f"{name:<22}{_fmt(value):>14}  {unit:<7}{clock:<6}{note}")
    lines.append("load curve (offered ops/s: p50 ms, p99 ms, ok-within-L "
                 "share, completed share):")
    for point in sim["capacity"]["curve"]:
        mark = "pass" if point["passes"] else "fail"
        lines.append(
            f"  {point['offered_ops_per_s']:9.2f}: {_fmt(point['p50_ms'])}, "
            f"{_fmt(point['p99_ms'])}, {point['ok_within_limit_share']:.4f}, "
            f"{point['completed_share']:.4f}  {mark}"
        )
    return lines


def _human_trace(result: dict) -> list[str]:
    lines = [f"{'per-layer metric':<36}{'value':>14}  unit"]
    for name, (value, unit) in result["per_layer"].items():
        lines.append(f"{name:<36}{_fmt(value):>14}  {unit}")
    missing = result.get("missing_targets", [])
    lines.append(f"wrap targets missing: {len(missing)}")
    for target in missing:
        lines.append(f"  {target}")
    per_layer = result["per_layer"]
    remote = per_layer.get("fabric.read_gib_per_s", (0.0, ""))[0]
    local = per_layer.get("memory.local_read_gib_per_s", (0.0, ""))[0]
    if remote or local:
        lines.append("calibration against the paper's Fig 7 anchors "
                     "(the only reference; there is no held-out data):")
        for label, value, paper in (
            ("remote (fabric)", remote, PAPER_REMOTE_GIB_PER_S),
            ("local (memory)", local, PAPER_LOCAL_GIB_PER_S),
        ):
            if value:
                error = (value - paper) / paper * 100.0
                lines.append(f"  {label:<16} {value:.4f} GiB/s vs paper "
                             f"{paper} GiB/s: {error:+.2f}%")
    return lines
