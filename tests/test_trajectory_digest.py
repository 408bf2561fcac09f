"""Decision digests of three small pinned scenarios, and the
``scalability_1000`` golden.

Each digest hashes what the simulated system *decided*: the ordered
task lifecycle log (times as float bits), every task's outcome and
response/finish-time bits, and the network's traffic counters.  A change
that only makes the simulator faster must leave every digest
unchanged; a change to a protocol, a policy or the model will move them
and must re-pin them deliberately.

The kernel's processed-event count is pinned too, for the two configs
without churn, over the window after a ``WARMUP`` of simulated time (the
end-to-end benchmark's window convention).  Stopping a periodic loop or
a node costs kernel bookkeeping events that move no decision and that a
kernel change may legitimately remove: under churn that happens all run
long, so only the digest is pinned there; without churn it happens only
while the overlay forms (a backup re-paired when a domain splits), and
the warm-up keeps it out of the count.

The ``scalability_1000`` golden is the exception: it keeps the protocol
it was first pinned under (no warm-up, no drain), so it also pins the
whole run's event count, overlay formation included.

Every id a run hands out comes from its own environment's id source,
so the configs run in this process, back to back and in any order.
``PYTHONHASHSEED=<n> pytest tests/test_trajectory_digest.py`` is a
hash-seed sweep of every digest.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Optional

import pytest

from repro.core.manager import RMConfig
from repro.overlay import ChurnConfig
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


def _bits(x: Optional[float]) -> str:
    return "-" if x is None else struct.pack("<d", x).hex()


def decision_digest(scenario: Any) -> str:
    """SHA-256 over the run's decisions (see the module docstring)."""
    h = hashlib.sha256()

    def line(*fields: Any) -> None:
        h.update(("|".join(str(f) for f in fields) + "\n").encode())

    for t, task_id, event in scenario.metrics.events:
        line("ev", _bits(t), task_id, event)
    for task_id, task in scenario.metrics.tasks.items():
        line(
            "task", task_id,
            task.outcome.value if task.outcome is not None else "-",
            _bits(task.response_time), _bits(task.finished_at),
        )
    stats = scenario.network.stats
    line("net", stats.sent, stats.delivered, stats.dropped,
         _bits(stats.bytes_sent))
    line("by_kind", sorted(stats.by_kind.items()))
    line("by_dst", sorted(stats.by_dst.items()))
    return h.hexdigest()


def _config(
    n_peers: int, max_peers: int, rate: float, churn: Optional[ChurnConfig]
) -> ScenarioConfig:
    return ScenarioConfig(
        seed=11,
        population=PopulationConfig(
            n_peers=n_peers, n_objects=max(6, n_peers // 2), replication=3,
        ),
        workload=WorkloadConfig(rate=rate),
        rm=RMConfig(max_peers=max_peers),
        churn=churn,
    )


#: Simulated seconds before the event-count window opens.
WARMUP = 10.0

#: name -> (config, duration after WARMUP, drain, digest, events in the
#: window or None)
PINNED = {
    "many_small_domains": (
        lambda: _config(400, 8, 8.0, None), 30.0, 20.0,
        "9f03ae0c093b5d70e63680898d2e69e755f32e30113bfdbff7cc10059eedfdd7",
        107354,
    ),
    "dense": (
        lambda: _config(128, 64, 14.0, None), 30.0, 20.0,
        "fdb98bc08e5efefe580cdfc19c27cc076d820114ff75089bafcc36952c3b8c23",
        82180,
    ),
    "churn": (
        lambda: _config(
            200, 12, 4.0,
            ChurnConfig(mean_lifetime=30.0, mean_offtime=8.0),
        ), 40.0, 20.0,
        "4ad75751eec5ae0ece702fcc3856bc5b300d2f1b2680f567bd85fa8cc1e29beb",
        None,
    ),
}


def run_pinned(name: str) -> dict:
    make, duration, drain, _, _ = PINNED[name]
    scenario = build_scenario(make())
    env = scenario.env
    env.run(until=WARMUP)
    warm = env.n_processed
    scenario.run(duration, drain=drain)
    return {
        "digest": decision_digest(scenario),
        "n_processed": env.n_processed - warm,
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_decision_digest_is_pinned(name):
    _, _, _, digest, n_processed = PINNED[name]
    got = run_pinned(name)
    assert got["digest"] == digest
    if n_processed is not None:
        assert got["n_processed"] == n_processed


@pytest.mark.parametrize("name", sorted(PINNED))
def test_back_to_back_builds_agree(name):
    assert run_pinned(name) == run_pinned(name)


def test_churn_digest_is_independent_of_earlier_runs():
    run_pinned("many_small_domains")
    run_pinned("dense")
    assert run_pinned("churn")["digest"] == PINNED["churn"][3]


def test_scalability_1000_golden():
    """The paper's §6 scalability config at 1,000 peers (constant
    per-peer load, 16-peer domains), run the way it has been pinned
    since the first performance pass: ``build_scenario``, then 30
    simulated seconds from time 0, no warm-up and no drain.  Its event
    count is the whole run's, overlay formation included; 190,173
    before periodic loops became ``Timer``s, same messages and
    decisions."""
    scenario = build_scenario(ScenarioConfig(
        seed=7,
        population=PopulationConfig(
            n_peers=1000, n_objects=500, replication=3,
        ),
        workload=WorkloadConfig(rate=30.0),
        rm=RMConfig(max_peers=16),
    ))
    scenario.env.run(until=30.0)
    assert scenario.env.n_processed == 190_047
    assert scenario.network.stats.sent == 25_671
    assert decision_digest(scenario) == (
        "d16ed779748176485282aa30b8392c6eb77557d91b3e6bbbec3b0bab5cb01701"
    )
