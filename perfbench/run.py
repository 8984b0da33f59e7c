"""Two-clock benchmark of the disaggregated object store simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lookup-fanout-8n --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` gives the per-layer metrics from a separate traced run. ``--workload
all`` runs every workload, each in its own fresh process. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The full result, with sample counts, the load curve and the
digest of every simulated metric, is written to ``--out``.
"""

from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ".perfbench-results"


def seconds_since_process_start() -> float:
    """Host seconds since this process started, interpreter start-up
    included: the kernel's start time of the process (in clock ticks since
    boot, so up to one tick early) against the boot-time clock. Where
    ``/proc`` is not available, from the first line of this script."""
    try:
        with open("/proc/self/stat") as stat:
            # Field 22, counted after the parenthesised command name.
            ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
        elapsed = (time.clock_gettime(time.CLOCK_BOOTTIME)
                   - ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, IndexError, ValueError, AttributeError):
        elapsed = -1.0
    since_script = time.perf_counter() - _SCRIPT_START
    return elapsed if elapsed >= since_script else since_script


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum host time of the measured streams")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for the full result file "
                             "(relative to the checkout root)")
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run_all(args) -> int:
    """Each workload in its own interpreter: RSS and import state must not
    carry over from one workload to the next."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", args.out],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return _fail(f"workload {name} exited with {proc.returncode}")
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program source under {ROOT / 'src'}; run from a "
                     "full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)

    # Starting the interpreter and importing the program are part of
    # set-up time.
    import repro  # noqa: F401
    from perfbench import harness, layers, report
    from perfbench.checker import OutputChecker
    from perfbench.workloads import WORKLOADS

    import_s = seconds_since_process_start()

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"have {sorted(WORKLOADS)}")
    checker = OutputChecker()
    if args.trace:
        result = layers.traced_run(workload, args.seed, args.seconds, checker)
    else:
        result = harness.run_workload(workload, args.seed, args.seconds,
                                      checker, import_s)
    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    summary = report.summary(result, trace=bool(args.trace))
    print(report.human(result, summary, trace=bool(args.trace)))
    print(f"result file: {out_file}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
