"""Placement parity and per-policy smoke for the control-plane refactor.

The golden file pins the exact placements a seeded scenario produced
under the paper's fairness policy before the ResourceManager was
decomposed into the pluggable control plane.  The parity test replays
the same scenario and demands byte-identical decisions — proof that the
refactor moved code without changing behavior.  The smoke tests run the
same scenario under every built-in baseline policy and only demand
liveness (placements differ by design).

Regenerate the golden (only after an *intentional* behavior change)::

    PYTHONPATH=src python -m tests.test_policy_parity > \
        tests/data/placement_parity_golden.json
"""

import json
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro.core.control.placement import policy_names
from repro.workloads.scenario import ScenarioConfig, build_scenario

GOLDEN = Path(__file__).parent / "data" / "placement_parity_golden.json"

pytestmark = pytest.mark.slow


def run_scenario(policy: Optional[str] = "paper", seed: int = 42):
    """Run the parity scenario; ``policy=None`` keeps the config default."""
    cfg = ScenarioConfig(seed=seed)
    if policy is not None:
        cfg.rm.placement_policy = policy
    cfg.workload.rate = 0.4
    scenario = build_scenario(cfg)
    scenario.run(duration=120.0, drain=60.0)
    return scenario


def placement_records(scenario) -> list:
    """Canonical per-task records, ordered by submission.

    ``task_id`` is excluded: ids come from each run's own counter
    (``env.ids``, fresh from 1), so they pin id naming, not placement.
    """
    tasks = list({
        t.task_id: t for rm in scenario.overlay.rms() for t in rm.tasks.values()
    }.values())
    tasks.sort(key=lambda t: (t.submitted_at, int(t.task_id[1:])))
    return [
        {
            "name": t.name,
            "origin": t.origin_peer,
            "submitted_at": round(t.submitted_at, 9),
            "state": t.state.value,
            "outcome": t.outcome.value if t.outcome else None,
            "allocation": [list(p) for p in (t.allocation or [])],
        }
        for t in tasks
    ]


class TestPaperPolicyParity:
    def test_placements_match_pre_refactor_golden(self):
        golden = json.loads(GOLDEN.read_text())
        scenario = run_scenario("paper", seed=golden["seed"])
        records = placement_records(scenario)
        assert len(records) == golden["n_tasks"]
        assert records == golden["tasks"]

    def test_paper_name_is_the_same_policy(self):
        """The default config runs the policy named 'paper'."""
        a = placement_records(run_scenario(None))
        b = placement_records(run_scenario("paper"))
        assert a == b


class TestPolicySmoke:
    @pytest.mark.parametrize("policy", policy_names())
    def test_policy_completes_tasks(self, policy):
        scenario = run_scenario(policy)
        completed = sum(
            rm.stats["completed"] for rm in scenario.overlay.rms()
        )
        assert completed > 0, f"policy {policy!r} completed nothing"
        for rm in scenario.overlay.rms():
            assert rm.policy_name == policy


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    doc = {"seed": 42, "policy": "paper"}
    records = placement_records(run_scenario("paper", seed=42))
    doc["n_tasks"] = len(records)
    doc["tasks"] = records
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
