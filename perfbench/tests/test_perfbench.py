"""The benchmark's own tests, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, layers, report  # noqa: E402
from perfbench.checker import OutputChecker  # noqa: E402
from perfbench.patching import resolve  # noqa: E402
from perfbench.tracer import Probe, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return dataclasses.replace(
        WORKLOADS[name], streams=1, stream_ops=80, search_streams=1,
        search_ops=200,
    )


@pytest.fixture
def checker():
    # The harness installs the checker around each checked stream itself.
    chk = OutputChecker()
    yield chk
    assert len(chk._patches) == 0


@pytest.fixture
def no_tail_minimum(monkeypatch):
    # Tiny runs cannot give a p99 ten samples beyond it.
    monkeypatch.setattr(harness, "TAIL_SAMPLES", 0)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    code = {name: unit for name, unit, _ in report.END_TO_END
            if name not in report.NOT_IN_JSON}
    assert e2e == code
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        m.name: m.unit for m in layers.PER_LAYER
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_present_with_its_unit(
        name, checker, no_tail_minimum):
    result = harness.run_workload(tiny(name), 3, 0.0, checker, 0.1)
    summary = report.summary(result, trace=False)
    assert summary["correct"], report.human(result, summary, trace=False)
    assert result["check"]["reads_checked"] > 0
    # The checked pass reproduced the unchecked ones the host figures
    # come from.
    assert result["deterministic"]
    assert len(result["host"]["host_ops_per_s_per_rep"]) == result["reps"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_unwraps(name, checker):
    probed = {}
    for probe in layers.PROBES:
        owner, attr, func = resolve(probe.target)
        probed[probe.target] = func
        for site in probe.sites:
            probed[f"{site}:{attr}"] = getattr(sys.modules[site], attr)
    result = layers.traced_run(tiny(name), 3, 0.0, checker)
    summary = report.summary(result, trace=True)
    assert summary["correct"]
    assert result["missing_targets"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert summary["metrics"]["trace.host_attributed_share"]["value"] > 0.9
    for probe in layers.PROBES:
        _, attr, func = resolve(probe.target)
        assert func is probed[probe.target], probe.target
        for site in probe.sites:
            assert getattr(sys.modules[site], attr) is probed[f"{site}:{attr}"]


def test_missing_wrap_targets_are_reported():
    tracer = Tracer([
        Probe("x", "repro.core.client:DisaggregatedClient.no_such_method"),
        Probe("x", "repro.no_such_module:anything"),
        Probe("x", "repro.rpc.codec:encode_message",
              sites=("repro.rpc.channel", "repro.common.units")),
    ])
    tracer.install()
    try:
        assert len(tracer.missing) == 3
        assert any("no_such_method" in m for m in tracer.missing)
        assert any("repro.common.units" in m for m in tracer.missing)
    finally:
        tracer.uninstall()
    assert tracer.installed == 0


def test_seed_changes_the_op_stream_and_repeats_exactly(checker):
    workload = tiny("lookup-fanout-8n")
    a = harness.run_stream(workload, 1, 0, checker, ops=80)
    b = harness.run_stream(workload, 1, 0, checker, ops=80)
    c = harness.run_stream(workload, 2, 0, checker, ops=80)
    assert a.digest == b.digest
    assert a.digest != c.digest


def test_checker_counts_mismatches_and_lost_objects():
    chk = OutputChecker()
    chk.stored("a", b"abc")
    chk.verify("a", b"abc")
    chk.verify("a", b"abd")
    chk.verify("unknown", b"")
    issued = chk._issue(["a", "b"])
    chk._settle(["a", "b"], issued, [None, None])
    chk.stored("c", b"x")
    issued = chk._issue(["c"])
    chk._delete("c")
    chk._settle(["c"], issued, [None])
    assert (chk.mismatches, chk.lost, chk.raced) == (2, 1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "lookup-fanout-8n", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
