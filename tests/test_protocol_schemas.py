"""The protocol's one schema table, against its senders and its docs.

Live decode drops any payload that does not match its kind's row in
:data:`repro.core.protocol.SCHEMAS`, so a sender that adds a field the
table lacks would lose its frames silently.  A simulated run sends every
protocol message through :meth:`Network.send`: each payload it sends
must match its row.
"""

from __future__ import annotations

import collections
import re
from pathlib import Path

from repro.core import protocol
from repro.core.manager import RMConfig
from repro.net.network import Network
from repro.overlay.churn import ChurnConfig
from repro.runtime import codec
from repro.workloads.arrivals import WorkloadConfig
from repro.workloads.population import PopulationConfig
from repro.workloads.scenario import ScenarioConfig, build_scenario

DOCS = Path(__file__).resolve().parents[1] / "docs" / "protocol.md"


def test_simulated_senders_write_their_kinds_rows(monkeypatch):
    sent = collections.Counter()
    misshapen = []
    send = Network.send

    def checked_send(self, msg):
        sent[msg.kind] += 1
        # The simulated overlay confirms a join with its peer id alone,
        # for message accounting; no simulated handler reads it.
        overlay_join = (msg.kind == protocol.JOIN_REQUEST
                        and msg.payload == {"peer_id": msg.src})
        if not (overlay_join or codec._payload_checks[msg.kind](msg.payload)):
            misshapen.append((msg.kind, msg.payload))
        send(self, msg)

    monkeypatch.setattr(Network, "send", checked_send)
    build_scenario().run(duration=30.0, drain=10.0)
    # Small domains gossip and redirect; churn leaves, fails and repairs.
    build_scenario(ScenarioConfig(
        population=PopulationConfig(n_peers=24),
        workload=WorkloadConfig(rate=2.0),
        rm=RMConfig(max_peers=6, sync_period=2.0),
        churn=ChurnConfig(mean_lifetime=20.0, mean_offtime=2.0),
    )).run(duration=30.0, drain=10.0)
    assert misshapen == []
    assert set(sent) >= {
        protocol.LOAD_UPDATE, protocol.TASK_REQUEST, protocol.TASK_ACK,
        protocol.COMPOSE, protocol.START_STREAM, protocol.STREAM,
        protocol.STEP_DONE, protocol.TASK_DONE, protocol.GOSSIP_DIGEST,
        protocol.GOSSIP_SUMMARIES, protocol.RM_SYNC, protocol.PEER_LEAVE,
        protocol.TASK_REDIRECT, protocol.JOIN_REQUEST,
    }, sorted(sent)


def test_size_of_reads_the_table():
    for kind, (size, _) in protocol.SCHEMAS.items():
        assert protocol.size_of(kind) == size
    assert protocol.size_of("no_such_kind") == 256.0


def test_protocol_doc_lists_exactly_the_schema_kinds():
    text = DOCS.read_text()
    section = text.split("## Message kinds and sizes", 1)[1].split("\n## ", 1)[0]
    kinds = re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.MULTILINE)
    assert sorted(kinds) == sorted(protocol.SCHEMAS)
    assert len(kinds) == len(set(kinds))
