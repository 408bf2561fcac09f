"""The paper's claims, asserted on the regenerated experiment tables.

Each check reads one experiment's quick-mode table (``repro-experiments
<id> --quick``: shrunken durations, seed 1 only) and asserts its
*shape* — who wins, roughly by how much — matching the claims quoted
in EXPERIMENTS.md.  Each experiment runs once per session.
"""

import functools

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.cli import load


@functools.lru_cache(maxsize=None)
def quick_result(exp_id):
    return load(exp_id)[1](quick=True)


def f1_graph_example(result):
    """F1: the resource graph and the path fairness-max picks (§4.3)."""
    # The three candidate paths of §4.3, in BFS order.
    assert result.column("path") == [
        "{e1,e2}", "{e1,e3}", "{e1,e4,e5,e8}",
    ]
    # Exactly one path is chosen, by max fairness.
    chosen = [r for r in result.rows if r[-1].strip()]
    assert len(chosen) == 1
    fairness = result.column("fairness")
    assert max(fairness) == chosen[0][3]


def f2_walkthrough(result):
    """F2: the task-assignment walkthrough, stages A -> B -> C."""
    stages = result.column("stage")
    # A -> B -> C in order: query, assignment, streaming.
    assert stages[0] == "A"
    assert "B" in stages and "C" in stages
    assert stages.index("B") < len(stages) - stages[::-1].index("C")
    times = result.column("t_sim_s")
    assert times == sorted(times)
    assert result.extra["task"].outcome.value == "met"


def f3_allocation_algorithm(result):
    """F3: the Fig-3 BFS against exhaustive enumeration."""
    gaps = result.column("fairness_gap")
    # The paper BFS is near-optimal: small positive gap.
    assert all(0.0 <= g < 0.2 for g in gaps)
    # And far cheaper than exhaustive enumeration on larger graphs.
    paper_cost = result.column("examined_paper")
    exh_cost = result.column("examined_exh")
    assert exh_cost[-1] > 2 * paper_cost[-1]


def e1_fairness_vs_policy(result):
    """E1: fairness of the load distribution per allocation policy."""
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


def e2_missrate_vs_load(result):
    """E2: deadline performance vs offered load per policy."""
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


def e3_local_scheduling(result):
    """E3: LLS vs EDF vs FIFO vs SJF vs VALUE local scheduling."""
    by_sched = {}
    for _rate, sched, goodput, task_miss, job_miss, _resp in result.rows:
        agg = by_sched.setdefault(sched, [])
        agg.append((goodput, task_miss, job_miss))
    mean_good = {
        s: sum(g for g, _t, _j in rows) / len(rows)
        for s, rows in by_sched.items()
    }
    # EDF — the clean deadline-aware policy — holds its own against
    # FIFO at every load (and wins under contention; see EXPERIMENTS.md
    # E3 for the full sweep).
    assert mean_good["EDF"] >= mean_good["FIFO"] - 0.02
    # Quantized LLS pays a measured preemption-churn cost but stays in
    # the same family as EDF (the E3 deviation documented in
    # EXPERIMENTS.md: a paper-faithful LLS is not better than EDF here).
    assert mean_good["LLS"] >= mean_good["EDF"] - 0.05
    # All schedulers complete the workload (sanity).
    assert all(g > 0.5 for g in mean_good.values())


def e4_scalability(result):
    """E4: scalability with the number of peers."""
    dec = [row for row in result.rows if row[1] == "domains"]
    cen = [row for row in result.rows if row[1] == "central"]
    peers = [row[0] for row in dec]
    goodput = [row[3] for row in dec]
    ctrl = [row[5] for row in dec]
    domains = [row[2] for row in dec]
    # Goodput stays high as the system grows (the §6 claim).
    assert all(g > 0.85 for g in goodput), goodput
    # Per-peer control overhead stays bounded (decentralization): the
    # largest system costs at most ~3x the smallest per peer, not O(n).
    assert ctrl[-1] <= 3.0 * max(ctrl[0], 0.1)
    # Domains split as the population exceeds the RM capacity; the
    # centralized strawman never splits.
    assert domains[-1] > domains[0]
    assert all(row[2] == 1.0 for row in cen)
    assert peers == sorted(peers)
    # Centralization cost: at the largest size the single central RM
    # terminates far more traffic than any one domain RM.
    central_hot = cen[-1][6]
    domain_hot = dec[-1][6]
    assert central_hot > 1.5 * domain_hot, (central_hot, domain_hot)


def e5_churn_adaptation(result):
    """E5: churn with and without adaptive repair."""
    by_key = {(row[0], row[1]): row for row in result.rows}
    lifetimes = sorted({row[0] for row in result.rows})
    for lifetime in lifetimes:
        adapt = by_key[(lifetime, "yes")]
        blind = by_key[(lifetime, "no")]
        # Adaptation strictly reduces lost tasks and wins on goodput.
        assert adapt[2] > blind[2], (lifetime, adapt, blind)   # goodput
        assert adapt[3] <= blind[3]                            # failed
        assert adapt[4] > 0                                    # repairs ran
        assert blind[4] == 0


def e6_admission_redirection(result):
    """E6: admission control and cross-domain redirection."""
    # Multiple domains formed; redirection happens between them.
    assert all(d >= 2 for d in result.column("domains"))
    assert any(r > 0 for r in result.column("redirect"))
    # Accounting closes: admit + reject ~ 1 of submissions per row
    # (redirected tasks are eventually admitted or rejected elsewhere).
    for row in result.rows:
        admit, reject = row[3], row[5]
        assert admit + reject <= 1.05
        assert admit > 0.5


def e7_update_period(result):
    """E7: the Profiler update-period tradeoff (§4.4)."""
    periods = result.column("period_s")
    updates = result.column("updates/peer/s")
    staleness = result.column("mean_staleness_s")
    assert periods == sorted(periods)
    # Overhead falls as the period grows (~1/period).
    assert updates[0] > updates[-1] * 2
    # Staleness grows with the period.
    assert staleness[-1] > staleness[0]
    # The system still works across the sweep (soft degradation only).
    assert all(g > 0.5 for g in result.column("goodput"))


def e8_rm_failover(result):
    """E8: backup-RM takeover after a primary crash (§4.1)."""
    rows = {row[0]: row for row in result.rows}
    with_backup = rows["yes"]
    without = rows["no"]
    # The backup takes over and the domain stays alive.
    assert with_backup[1] == 1.0          # took_over
    assert with_backup[2] > 0             # detection delay measured
    assert with_backup[5] == 1.0          # an active RM at the end
    assert without[1] == 0.0 and without[5] == 0.0
    # Far fewer queries are lost with a backup.
    assert with_backup[3] < without[3]


def e9_gossip_convergence(result):
    """E9: gossip convergence of inter-domain summaries (§4.4)."""
    # Every configuration converges.
    assert all(c == 1.0 for c in result.column("converged"))
    rows = result.rows
    # Higher fanout never converges slower at equal domain count.
    by_domains = {}
    for domains, fanout, _conv, time_s, _rounds in rows:
        by_domains.setdefault(domains, {})[fanout] = time_s
    for domains, per_fanout in by_domains.items():
        fanouts = sorted(per_fanout)
        if len(fanouts) >= 2:
            assert per_fanout[fanouts[-1]] <= per_fanout[fanouts[0]] + 1e-9


def e10_ablation(result):
    """E10: ablations of fairness-max selection and visited-set BFS."""
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


def e11_importance_gate(result):
    """E11 (extension): importance-aware admission reservation."""
    by_key = {(row[0], row[1]): row for row in result.rows}
    top_rate = max(row[0] for row in result.rows)
    off = by_key[(top_rate, "off")]
    on = by_key[(top_rate, "on")]
    # The gate sheds low-importance work: raw goodput drops, rejects
    # rise, and importance-weighted goodput holds or improves.
    assert on[2] < off[2]            # goodput
    assert on[4] > off[4]            # reject rate
    assert on[3] >= off[3] - 0.02    # value goodput not sacrificed


def e12_loss_degradation(result):
    """E12 (extension): graceful degradation under message loss."""
    losses = result.column("loss_rate")
    goodput = result.column("goodput")
    assert losses == sorted(losses)
    # Clean network is near-perfect; lossy degrades but keeps working.
    assert goodput[0] > 0.95
    assert goodput[-1] < goodput[0]
    assert goodput[-1] > 0.2  # graceful, not collapsed
    # Accounting: dropped messages were actually observed.
    assert result.column("dropped_msgs")[-1] > 0


def e13_adaptive_updates(result):
    """E13 (extension): QoS-adaptive update frequency."""
    rows = {row[0]: row for row in result.rows}
    # Message overhead ordering: fast > adaptive > slow.
    assert rows["fast"][1] > rows["adaptive"][1] > rows["slow"][1]
    # Adaptivity saves a large fraction of fast-mode messages...
    assert rows["adaptive"][1] < 0.6 * rows["fast"][1]
    # ...while goodput stays within noise across all modes (staleness
    # is not the binding constraint at this load — see E7).
    goodputs = [rows[m][2] for m in ("fast", "adaptive", "slow")]
    assert max(goodputs) - min(goodputs) < 0.08


CLAIMS = {
    "f1": f1_graph_example,
    "f2": f2_walkthrough,
    "f3": f3_allocation_algorithm,
    "e1": e1_fairness_vs_policy,
    "e2": e2_missrate_vs_load,
    "e3": e3_local_scheduling,
    "e4": e4_scalability,
    "e5": e5_churn_adaptation,
    "e6": e6_admission_redirection,
    "e7": e7_update_period,
    "e8": e8_rm_failover,
    "e9": e9_gossip_convergence,
    "e10": e10_ablation,
    "e11": e11_importance_gate,
    "e12": e12_loss_degradation,
    "e13": e13_adaptive_updates,
}


def test_every_experiment_has_a_claim():
    assert list(CLAIMS) == EXPERIMENTS


@pytest.mark.parametrize("exp_id", list(CLAIMS))
def test_paper_claim(exp_id):
    CLAIMS[exp_id](quick_result(exp_id))
