"""The `python -m repro workload` command."""

import json

import pytest

from repro.cli import main

from tests.workload.conftest import mini_obj


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(mini_obj()), encoding="utf-8")
    return path


class TestRun:
    def test_run_writes_artifact(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "workload", "--scenario", str(scenario_file), "--out", str(out),
        ])
        assert rc == 0
        artifact = out / "BENCH_workload_mini.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["scenario"] == "mini"
        assert "ops_per_s" in payload["sim"]
        captured = capsys.readouterr().out
        assert "mini" in captured
        assert "wrote" in captured

    def test_twice_flag_checks_determinism(self, scenario_file, tmp_path, capsys):
        rc = main([
            "workload", "--scenario", str(scenario_file),
            "--out", str(tmp_path / "out"), "--twice",
        ])
        assert rc == 0
        assert "byte-identical: yes" in capsys.readouterr().out

    def test_seed_override_lands_in_artifact(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "workload", "--scenario", str(scenario_file),
            "--out", str(out), "--seed", "99",
        ]) == 0
        payload = json.loads(
            (out / "BENCH_workload_mini.json").read_text(encoding="utf-8")
        )
        assert payload["seed"] == 99

    def test_json_mode_prints_the_payload(self, scenario_file, tmp_path, capsys):
        assert main([
            "workload", "--scenario", str(scenario_file),
            "--out", str(tmp_path), "--json",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["scenario"] == "mini"


class TestList:
    def test_lists_committed_scenarios(self, capsys):
        assert main(["workload", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform-smoke", "zipfian-read-heavy",
                     "hotspot-multi-tenant", "diurnal-churn"):
            assert name in out

    def test_lists_custom_dir_and_flags_invalid(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(
            json.dumps(mini_obj(name="good")), encoding="utf-8"
        )
        (tmp_path / "bad.json").write_text("{\"nope\": 1}", encoding="utf-8")
        assert main(["workload", "--list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "good" in out
        assert "INVALID" in out


class TestTraceFlag:
    def test_trace_writes_chrome_artifact_next_to_bench(
        self, scenario_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main([
            "workload", "--scenario", str(scenario_file),
            "--out", str(out), "--trace",
        ])
        assert rc == 0
        trace_path = out / "TRACE_workload_mini.json"
        assert trace_path.exists()
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]
        # Forcing tracing on also forces the attribution section into
        # the BENCH payload, even though the scenario file has no
        # tracing block.
        payload = json.loads(
            (out / "BENCH_workload_mini.json").read_text(encoding="utf-8")
        )
        assert payload["latency_attribution"]["exact"] is True
        captured = capsys.readouterr().out
        assert "attribution: exact=True" in captured
        assert str(trace_path) in captured

    def test_trace_with_twice_checks_both_artifacts(
        self, scenario_file, tmp_path, capsys
    ):
        rc = main([
            "workload", "--scenario", str(scenario_file),
            "--out", str(tmp_path / "out"), "--trace", "--twice",
        ])
        assert rc == 0
        assert "byte-identical: yes" in capsys.readouterr().out

    def test_trace_artifact_is_deterministic(self, scenario_file, tmp_path):
        texts = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert main([
                "workload", "--scenario", str(scenario_file),
                "--out", str(out), "--trace",
            ]) == 0
            texts.append(
                (out / "TRACE_workload_mini.json").read_bytes()
            )
        assert texts[0] == texts[1]

    def test_without_trace_no_trace_artifact(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "workload", "--scenario", str(scenario_file), "--out", str(out),
        ]) == 0
        assert not (out / "TRACE_workload_mini.json").exists()

    def test_trace_refused_on_async_scenario(self, tmp_path, capsys):
        path = tmp_path / "mini-async.json"
        obj = mini_obj(name="mini-async")
        obj["rpc"] = {"mode": "async"}
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "out"
        rc = main([
            "workload", "--scenario", str(path), "--out", str(out), "--trace",
        ])
        assert rc == 2
        assert "rpc.mode=async" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_allowed_on_sync_rpc_block(self, tmp_path):
        path = tmp_path / "mini-sync.json"
        obj = mini_obj(name="mini-sync")
        obj["rpc"] = {"mode": "sync"}
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "workload", "--scenario", str(path), "--out", str(out), "--trace",
        ]) == 0
        assert (out / "TRACE_workload_mini-sync.json").exists()
