"""The repro-run scenario CLI."""

import json

import pytest

from repro.workloads.cli import main as run_main
from repro.workloads.trace import load_trace


class TestRunCLI:
    def test_print_default_config(self, capsys):
        assert run_main(["--print-default-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["allocation_policy"] == "fairness"
        assert doc["population"]["n_peers"] > 0
        assert "tracing" not in doc

    def test_config_required(self, capsys):
        with pytest.raises(SystemExit):
            run_main([])

    def test_run_from_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({
            "seed": 4,
            "population": {"n_peers": 6, "n_objects": 3},
            "workload": {"rate": 0.5},
        }))
        assert run_main([str(cfg_path), "--duration", "40",
                         "--drain", "20"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "overlay:" in out

    def test_seed_override_changes_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({
            "seed": 4,
            "population": {"n_peers": 6, "n_objects": 3},
            "workload": {"rate": 1.0},
        }))
        run_main([str(cfg_path), "--duration", "40", "--drain", "10"])
        out_a = capsys.readouterr().out
        run_main([str(cfg_path), "--duration", "40", "--drain", "10",
                  "--seed", "99"])
        out_b = capsys.readouterr().out
        assert "seed=4" in out_a and "seed=99" in out_b

    def test_record_trace(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({
            "seed": 4,
            "population": {"n_peers": 6, "n_objects": 3},
            "workload": {"rate": 1.0},
        }))
        trace_path = tmp_path / "run.csv"
        assert run_main([
            str(cfg_path), "--duration", "30", "--drain", "10",
            "--record-trace", str(trace_path),
        ]) == 0
        entries = load_trace(trace_path.read_text())
        assert entries, "trace should contain the generated requests"
