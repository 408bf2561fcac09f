"""Direct tests of the experiment modules and the CLI."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult, replicate, seeds_for
from repro.experiments.cli import main as cli_main
from repro.experiments.f1_graph_example import DEFAULT_LOADS, run as run_f1
from repro.experiments.f2_walkthrough import run as run_f2
from repro.media.fig1 import FIG1_CANDIDATE_PATHS


class TestBase:
    def test_replicate_means_and_stds(self):
        stats = replicate(lambda seed: {"x": float(seed)}, seeds=[1, 2, 3])
        assert stats["x"][0] == pytest.approx(2.0)
        assert stats["x"][1] == pytest.approx(0.8164965, rel=1e-4)

    def test_replicate_needs_seeds(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {}, seeds=[])

    def test_seeds_for(self):
        assert seeds_for(quick=True) == [1]
        assert seeds_for(quick=False, full=4) == [1, 2, 3, 4]


class TestF1:
    def test_candidates_and_choice(self):
        result = run_f1()
        labels = result.column("path")
        expected = ["{" + ",".join(p) + "}" for p in FIG1_CANDIDATE_PATHS]
        assert labels == expected
        chosen_rows = [r for r in result.rows if r[-1].strip()]
        assert len(chosen_rows) == 1
        # With P2 loaded in the default profile, the RM avoids e2.
        assert DEFAULT_LOADS["P2"] > DEFAULT_LOADS["P3"]
        assert chosen_rows[0][0] != "{e1,e2}"

    def test_service_graph_composed_from_winner(self):
        result = run_f1()
        graph = result.extra["service_graph"]
        alloc = result.extra["allocation"]
        assert [s.edge_id for s in graph.steps] == alloc.edge_ids


class TestF2:
    def test_timeline_shape(self):
        result = run_f2()
        stages = result.column("stage")
        assert stages[0] == "A"
        assert stages.count("B") >= 2  # decision + compose messages
        assert stages[-1] == "C"
        times = result.column("t_sim_s")
        assert times == sorted(times)

    def test_nine_rows_pinned(self):
        """The Figure-2 walkthrough, row for row (time to 3 dp)."""
        rows = [(f"{t:.3f}", stage, event) for t, stage, event in run_f2().rows]
        assert rows == [
            ("0.010", "A", "query received by RM (task_request)"),
            ("0.010", "B", "allocation decided: T-e1@P1 -> T-e2@P2 "
                           "(fairness 0.498)"),
            ("0.021", "B", "graph composition message at P1"),
            ("0.021", "B", "graph composition message at P2"),
            ("0.021", "B", "graph composition message at P4"),
            ("0.021", "C", "streaming + transcoding begins"),
            ("1.623", "C", "transcoding step finished at P1"),
            ("5.012", "C", "transcoding step finished at P2"),
            ("5.406", "C", "final stream delivered at P4"),
        ]

    def test_task_completes(self):
        result = run_f2()
        task = result.extra["task"]
        assert task.outcome.value == "met"
        _t, payload = result.extra["ack"]
        assert payload["disposition"] == "accepted"


class TestRegistry:
    def test_all_experiments_importable_with_run(self):
        import importlib

        for exp_id, module_path in EXPERIMENTS.items():
            mod = importlib.import_module(module_path)
            assert callable(mod.run), exp_id
            assert mod.__doc__, exp_id

    def test_ids_cover_figures_and_claims(self):
        assert {"f1", "f2", "f3"} <= EXPERIMENTS.keys()
        assert {f"e{i}" for i in range(1, 11)} <= EXPERIMENTS.keys()


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "f1" in out and "e10" in out

    def test_no_args_lists(self, capsys):
        assert cli_main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert cli_main(["e99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_f1(self, capsys):
        assert cli_main(["f1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "{e1,e2}" in out and "F1" in out


class TestResultHelpers:
    def test_table_renders_all_rows(self):
        r = ExperimentResult("t", "t", ["h1", "h2"])
        r.add_row("a", 1.0)
        r.add_row("b", 2.0)
        table = r.table()
        assert table.count("\n") == 3  # header + sep + 2 rows
