"""Bench E10: ablations of fairness-max selection and visited-set BFS."""

from repro.experiments import e10_ablation


def test_e10_ablation(run_experiment):
    result = run_experiment(e10_ablation)
    by_key = {(row[0], row[1], row[2]): row for row in result.rows}
    cvs = sorted({row[0] for row in result.rows})
    for cv in cvs:
        fair = by_key[(cv, "paper", "paper")]
        first = by_key[(cv, "first", "paper")]
        # Fairness-max keeps its fairness advantage at every
        # heterogeneity level (the design choice under test).
        assert fair[3] > first[3], (cv, fair, first)
    # Exhaustive search does not meaningfully improve goodput over the
    # Fig-3 BFS (validating the cheap search).
    for cv in cvs:
        paper = by_key[(cv, "paper", "paper")]
        exhaustive = by_key[(cv, "paper", "exhaustive")]
        assert exhaustive[4] <= paper[4] + 0.1
