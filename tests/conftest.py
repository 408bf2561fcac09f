"""Shared fixtures: a live Figure-1 domain with an active RM."""

import logging
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro import telemetry
from repro.core import Peer, PeerConfig, ResourceManager
from repro.core.info_base import PeerRecord
from repro.core.manager import RMConfig
from repro.media.fig1 import Fig1Scenario, build_fig1_graph
from repro.net import ConstantLatency, Network
from repro.sim import Environment


@dataclass
class LiveDomain:
    """A ready-to-run single-domain system built on the Fig-1 graph."""

    env: Environment
    net: Network
    rm: ResourceManager
    peers: Dict[str, Peer]
    scenario: Fig1Scenario
    #: Sim-clock telemetry handle; the ``live_domain`` fixture activates it.
    tel: telemetry.Telemetry
    events: List[tuple] = field(default_factory=list)

    def submit(self, origin="P4", name="movie", goal=None, deadline=60.0,
               importance=1.0):
        """Spawn a client submission process; returns a result list."""
        goal = goal if goal is not None else self.scenario.v_sol
        acks = []

        def client():
            reply = yield from self.peers[origin].submit_task(
                name, goal, deadline, importance=importance
            )
            acks.append(reply.payload)

        self.env.process(client())
        return acks

    def task(self, index=0):
        return list(self.rm.tasks.values())[index]


def build_live_domain(
    rm_config=None, power=10.0, peer_policy="LLS", duration_s=60.0,
    peer_update_period=2.0,
) -> LiveDomain:
    env = Environment()
    net = Network(env, ConstantLatency(0.010), bandwidth=1.25e6)
    events: List[tuple] = []
    rm = ResourceManager(
        env, net, "rm0", "d0",
        rm_config=rm_config or RMConfig(),
        on_task_event=lambda t, e: events.append((env.now, t.task_id, e)),
    )
    scenario = build_fig1_graph(duration_s=duration_s)
    peers: Dict[str, Peer] = {}
    for pid in scenario.peers:
        peers[pid] = Peer(
            env, net, pid,
            PeerConfig(
                power=power,
                scheduling_policy=peer_policy,
                profiler_update_period=peer_update_period,
            ),
            rm_id="rm0",
        )
        rm.admit_peer(PeerRecord(peer_id=pid, power=power, bandwidth=1.25e6))
    for edge in scenario.graph.edges():
        rm.info.register_service_instance(
            edge.src, edge.dst, edge.service_id, edge.peer_id,
            edge.work, edge.out_bytes, edge_id=edge.edge_id,
        )
    peers["P1"].store_object(scenario.source_object)
    rm.object_catalog[scenario.source_object.name] = scenario.source_object
    rm.info.peer("P1").objects.add(scenario.source_object.name)
    domain = LiveDomain(
        env=env, net=net, rm=rm, peers=peers, scenario=scenario,
        tel=telemetry.Telemetry.sim(env), events=events,
    )
    return domain


@pytest.fixture
def live_domain():
    domain = build_live_domain()
    with telemetry.session(domain.tel):
        yield domain


@pytest.fixture
def capture_log():
    """``capture_log(name)`` -> the list that logger's records land in.

    A handler on the named logger itself: ``caplog`` only sees records
    that reach the root, and ``configure_logging`` (any CLI test that
    ran earlier) turns propagation off for the ``repro`` namespace.
    """
    attached = []

    def attach(name):
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger(name)
        logger.addHandler(handler)
        attached.append((logger, handler))
        return records

    yield attach
    for logger, handler in attached:
        logger.removeHandler(handler)
