"""Bench E2: deadline performance vs offered load per policy."""

from repro.experiments import e2_missrate


def test_e2_missrate_vs_load(run_experiment):
    result = run_experiment(e2_missrate)
    rates = sorted(set(result.column("rate/s")))
    by_key = {
        (row[0], row[1]): row for row in result.rows
    }
    # At light load everyone is fine (goodput ~1).
    light = rates[0]
    for policy in ("paper", "least_loaded", "random", "first"):
        assert by_key[(light, policy)][2] > 0.9
    # Load-aware allocation sustains goodput at least as well as blind
    # random selection at the heaviest rate.
    heavy = rates[-1]
    good = {p: by_key[(heavy, p)][2] for p in
            ("paper", "least_loaded", "random", "first")}
    assert max(good["paper"], good["least_loaded"]) >= good["random"] - 0.05
