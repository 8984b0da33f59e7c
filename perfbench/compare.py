"""Compare two sets of benchmark result files.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by ``perfbench/run.py --out``,
several seeds per workload. For every workload and end-to-end metric the
script prints each side's median and quartiles and flags a change of the
median beyond the metric's bound in ``BENCHMARK.json``. It then lists the
per-layer metrics (from ``--trace 1`` files) whose medians moved by more
than :data:`MOVED` of the first side's, and says, per workload, whether the
digests of the simulated metrics agree on the seeds both sides ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.report import END_TO_END, end_to_end_values  # noqa: E402

#: Relative change of its median that lists a per-layer metric as moved.
MOVED = 0.05


def load(directory: Path) -> dict:
    """(workload, trace) -> {seed: result}."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        trace = 1 if "per_layer" in result else 0
        out.setdefault((result["workload"], trace), {})[result["seed"]] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _e2e_values(results: dict) -> dict:
    out: dict = {}
    for result in results.values():
        for name, (value, _) in end_to_end_values(result).items():
            if value is not None:
                out.setdefault(name, []).append(value)
    return out


def compare(before: dict, after: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines: list[str] = []
    regressions = 0
    workloads = sorted({w for w, _ in before} | {w for w, _ in after})
    for workload in workloads:
        lines.append(f"== {workload}")
        a = before.get((workload, 0), {})
        b = after.get((workload, 0), {})
        if a and b:
            lines.append(f"  end-to-end ({len(a)} vs {len(b)} runs): "
                         "median [q1, q3] before -> after")
            va, vb = _e2e_values(a), _e2e_values(b)
            for name, unit, _ in END_TO_END:
                if name not in va or name not in vb:
                    continue
                qa, qb = quartiles(va[name]), quartiles(vb[name])
                change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                flag = ""
                metric = bounds.get(name)
                if metric is not None:
                    worse = change > 0 if metric["better"] == "lower" \
                        else change < 0
                    if abs(change) > metric["bound"]:
                        flag = "  REGRESSION" if worse else "  improved"
                        regressions += worse
                lines.append(
                    f"  {name:<20} {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
                    f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit} "
                    f"({change:+.2%}){flag}"
                )
            common = sorted(set(a) & set(b))
            same = [s for s in common
                    if a[s]["sim_digest"] == b[s]["sim_digest"]]
            lines.append(
                f"  simulated metrics identical on {len(same)} of "
                f"{len(common)} common seeds"
            )
        ta = before.get((workload, 1), {})
        tb = after.get((workload, 1), {})
        if ta and tb:
            lines.append(f"  per-layer metrics that moved by more than "
                         f"{MOVED:.0%} ({len(ta)} vs {len(tb)} traced runs):")
            names = list(next(iter(ta.values()))["per_layer"])
            for name in names:
                xa = statistics.median(r["per_layer"][name][0]
                                       for r in ta.values())
                xb = statistics.median(r["per_layer"][name][0]
                                       for r in tb.values()
                                       if name in r["per_layer"])
                base = abs(xa) if xa else abs(xb)
                if base and abs(xb - xa) / base > MOVED:
                    unit = next(iter(ta.values()))["per_layer"][name][1]
                    lines.append(f"    {name:<36} {xa:.6g} -> {xb:.6g} {unit}")
    lines.append(f"end-to-end regressions beyond bound: {regressions}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = compare(load(args.before), load(args.after), spec)
    print("\n".join(lines))
    return 1 if lines[-1].split()[-1] != "0" else 0


if __name__ == "__main__":
    sys.exit(main())
