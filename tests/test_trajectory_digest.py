"""Decision digests of three small pinned scenarios, and the
``scalability_1000`` golden.

Each digest hashes what the simulated system *decided*: the ordered
task lifecycle log (times as float bits), every task's outcome and
response/finish-time bits, and the network's traffic counters.  A change
that only makes the simulator faster must leave every digest
unchanged; a change to a protocol, a policy or the model will move them
and must re-pin them deliberately.

The kernel's processed-event count is pinned too, for every config,
over the window after a ``WARMUP`` of simulated time (the end-to-end
benchmark's window convention).  Stopping a periodic loop, a processor
or a node costs kernel bookkeeping events that move no decision.
Without churn that happens only while the overlay forms (a backup
re-paired when a domain splits), and the warm-up keeps it out of the
count; under churn it happens all run long, so the churn window pins
that bookkeeping too.  A kernel change that removes stop bookkeeping
moves the churn count and seq: it must re-pin them and list the old
and new values (68,051 events and seq 67,946 when first pinned).

The kernel's seq counter (one per event scheduled or run in place) is
pinned beside the count, over the same window: a change that schedules
an event it never processes, or claims seqs an event did not, can keep
the count but moves the seq.

A change that only reorders events due at one instant keeps both (an
event run in place by ``claim_next`` ahead of one already on the heap,
say) and may keep every decision.  So the churn window's dispatch
order is pinned as well: a hash over each dispatched event's time and
class name, read through a stride-1 profile hook.  Renaming an event
class re-pins it.

The ``scalability_1000`` golden is the exception: it keeps the protocol
it was first pinned under (no warm-up, no drain), so it also pins the
whole run's event count and seq, overlay formation included.

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
#: window)
PINNED = {
    "many_small_domains": (
        lambda: _config(400, 8, 8.0, None), 30.0, 20.0,
        "a9cb47ebf5797f9b22e249cd2ae1c7dcdf155e130a1c2eab1bdc330f395370f7",
        107444,
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
        "e1181336ba397565dea153d6f1e1297db257d71f02e3435f3674f27ee7b2eda5",
        68051,
    ),
}


#: name -> the seq counter's advance over the event-count window.
SEQ_IN_WINDOW = {
    "many_small_domains": 107410, "dense": 82120, "churn": 67946,
}

#: The churn window's dispatch order (see the module docstring).
CHURN_ORDER = (
    "a4e48595a70e0e429e779ee63fed1ae6d47a34edd5aa2b76654b2f16ec0243b6"
)


def run_pinned(name: str, order: Optional[Any] = None) -> dict:
    """Run a pinned config; *order*, a hash object, is fed the
    dispatch order of the window."""
    make, duration, drain, _, _ = PINNED[name]
    scenario = build_scenario(make())
    env = scenario.env
    env.run(until=WARMUP)
    warm, warm_seq = env.n_processed, env._seq
    if order is not None:
        env.set_profile_hook(lambda event, _callbacks: order.update(
            struct.pack("<d", env.now) + type(event).__name__.encode()
        ))
    scenario.run(duration, drain=drain)
    return {
        "digest": decision_digest(scenario),
        "n_processed": env.n_processed - warm,
        "seq": env._seq - warm_seq,
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_decision_digest_is_pinned(name):
    _, _, _, digest, n_processed = PINNED[name]
    got = run_pinned(name)
    assert got["digest"] == digest
    assert got["n_processed"] == n_processed
    assert got["seq"] == SEQ_IN_WINDOW[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_back_to_back_builds_agree(name):
    assert run_pinned(name) == run_pinned(name)


def test_churn_dispatch_order_is_pinned():
    order = hashlib.sha256()
    got = run_pinned("churn", order)
    # The hook observes only: the window is the unhooked one.
    assert got["digest"] == PINNED["churn"][3]
    assert got["n_processed"] == PINNED["churn"][4]
    assert got["seq"] == SEQ_IN_WINDOW["churn"]
    assert order.hexdigest() == CHURN_ORDER


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
    assert scenario.env._seq == 194_360
    assert scenario.network.stats.sent == 25_671
    assert decision_digest(scenario) == (
        "d16ed779748176485282aa30b8392c6eb77557d91b3e6bbbec3b0bab5cb01701"
    )
