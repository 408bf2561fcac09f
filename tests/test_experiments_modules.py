"""Direct tests of the experiment modules and the CLI."""

from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult
from repro.experiments.cli import load, main as cli_main
from repro.experiments.f1_graph_example import DEFAULT_LOADS, run as run_f1
from repro.experiments.f2_walkthrough import run as run_f2
from repro.experiments.sweeps import Sweep
from repro.media.fig1 import FIG1_CANDIDATE_PATHS


def probe_sweep(calls, seeds=3):
    """A two-axis sweep whose measure records its calls."""

    def measure(seed, duration, x, pair):
        calls.append((seed, duration, x, pair))
        return float(seed), x * 10

    return Sweep(
        "probe", [("x", [1], [1, 2]), (("a", "b"), [("p", "q")],
                                        [("p", "q"), ("r", "s")])],
        ["seed", "x10"], measure, "a note", (5.0, 50.0), seeds=seeds,
    )


class TestSweep:
    def test_cells_outermost_first_with_seeds_innermost(self):
        calls = []
        probe_sweep(calls, seeds=2).run("p")
        assert calls == [
            (seed, 50.0, x, pair)
            for x in (1, 2) for pair in (("p", "q"), ("r", "s"))
            for seed in (1, 2)
        ]

    def test_means_over_seeds_per_cell(self):
        result = probe_sweep([], seeds=3).run("p")
        assert result.headers == ["x", "a", "b", "seed", "x10"]
        assert result.rows[0] == [1, "p", "q", 2.0, 10.0]
        assert result.rows[-1] == [2, "r", "s", 2.0, 20.0]
        assert len(result.rows) == 4
        assert result.notes == ["a note"]

    def test_quick_runs_seed_one_on_the_quick_values(self):
        calls = []
        result = probe_sweep(calls, seeds=4).run("p", quick=True)
        assert calls == [(1, 5.0, 1, ("p", "q"))]
        assert result.rows == [[1, "p", "q", 1.0, 10.0]]


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
        for exp_id in EXPERIMENTS:
            doc, run = load(exp_id)
            assert callable(run), exp_id
            assert doc.strip().upper().startswith(exp_id.upper()), exp_id

    def test_ids_cover_figures_and_claims(self):
        assert EXPERIMENTS == ["f1", "f2", "f3",
                               *(f"e{i}" for i in range(1, 14))]


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
