"""Bench E1: fairness of the load distribution per allocation policy."""

from repro.experiments import e1_fairness


def test_e1_fairness_vs_policy(run_experiment):
    result = run_experiment(e1_fairness)
    # Regroup rows by rate: {policy: fairness}.
    by_rate = {}
    for rate, policy, fairness, _good, _miss in result.rows:
        by_rate.setdefault(rate, {})[policy] = fairness
    for rate, per_policy in by_rate.items():
        # The paper's claim: fairness-max (the registry's "paper"
        # policy) yields the fairest loads.
        best = max(per_policy, key=per_policy.get)
        assert best == "paper", (rate, per_policy)
        # And clearly beats the fairness-blind first-feasible rule.
        assert per_policy["paper"] > per_policy["first"]
