"""Wire-format round-trips for the live runtime codec.

Every message kind in :mod:`repro.core.protocol` must survive
``encode_message -> decode_frame`` with its payload intact — including
the structured payload objects (media formats, QoS sets, compose
orders, load reports, application tasks) — and malformed datagrams
must be rejected with :class:`WireFormatError`, never delivered.
"""

from __future__ import annotations

import json

import pytest

from repro.core import protocol
from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep
from repro.media.fig1 import V1, V2, V3
from repro.media.objects import MediaObject
from repro.monitoring.profiler import LoadReport
from repro.net.message import Message
from repro.runtime.codec import (
    FRAME_ACK,
    FRAME_MSG,
    WIRE_VERSION,
    WireFormatError,
    check_join_record,
    decode_frame,
    encode_ack,
    encode_message,
)
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskOutcome, TaskState

# Every kind constant the protocol module defines (STREAM has no entry
# in MESSAGE_SIZES — its wire size is data-dependent — so enumerate the
# module's uppercase string constants rather than the size table).
ALL_KINDS = sorted(
    value
    for name, value in vars(protocol).items()
    if name.isupper() and isinstance(value, str)
)


def _steps():
    return [
        ServiceStep(0, "T-e1", "P1", 48.0, 1.2e6, V1, V2, edge_id="e1"),
        ServiceStep(1, "T-e2", "P2", 55.0, 4.8e5, V2, V3, edge_id="e2"),
    ]


def _order():
    return ComposeOrder(
        task_id="t1", rm_id="rm0", source_peer="P1", sink_peer="P4",
        steps=_steps(), abs_deadline=60.0, importance=2.0,
        in_bytes=3.84e6, resume_from=0, epoch=1,
    )


def _load_report():
    return LoadReport(
        peer_id="P2", time=12.5, power=10.0, utilization=0.4,
        load=4.0, bw_used=2.0e5, queue_work=7.5, queue_length=3,
        services={"T-e2": 0.3}, dependencies=2,
    )


def _task():
    return ApplicationTask(
        name="movie",
        qos=QoSRequirements(deadline=60.0, importance=2.0,
                            constraints={"codec": "MPEG-4"}),
        initial_state=V1, goal_state=V3, origin_peer="P4",
        task_id="t9", submitted_at=3.0, state=TaskState.DONE,
        allocation=[("T-e1", "P1"), ("T-e2", "P2")],
        allocation_fairness=0.91, admitted_domain="d0",
        redirects=1, repairs=0, finished_at=9.5,
        outcome=TaskOutcome.MET_DEADLINE, meta={"path": ("e1", "e2")},
    )


#: A representative payload per message kind, mirroring what the
#: protocol layer actually puts on the wire.
PAYLOADS = {
    protocol.LOAD_UPDATE: lambda: _load_report().as_payload(),
    protocol.TASK_REQUEST: lambda: {
        "name": "movie", "initial_state": None, "goal_state": V3,
        "qos": QoSRequirements(deadline=60.0), "origin": "P4",
    },
    protocol.STEP_DONE: lambda: {
        "task_id": "t1", "step_index": 0, "peer_id": "P1", "epoch": 1,
    },
    protocol.TASK_DONE: lambda: {"task_id": "t1", "sink": "P4"},
    protocol.PEER_LEAVE: lambda: {"peer_id": "P3"},
    protocol.QOS_UPDATE: lambda: {
        "task_id": "t1", "qos": QoSRequirements(deadline=90.0),
    },
    protocol.TASK_ACK: lambda: {
        "task_id": "t1", "disposition": "accepted",
    },
    protocol.COMPOSE: lambda: {"order": _order()},
    protocol.START_STREAM: lambda: {
        "task_id": "t1", "from_step": 0, "epoch": 1,
    },
    protocol.CANCEL_TASK: lambda: {"task_id": "t1", "reason": "reassigned"},
    protocol.STREAM: lambda: {
        "task_id": "t1", "step_index": 1, "bytes": 4.8e5, "epoch": 1,
    },
    protocol.TASK_REDIRECT: lambda: {"task": _task(), "from_domain": "d1"},
    protocol.GOSSIP_DIGEST: lambda: {
        "domains": {"d0": 4.0, "d1": 7.5}, "round": 3,
    },
    protocol.GOSSIP_SUMMARIES: lambda: {
        "summaries": [{"domain": "d1", "load": 7.5,
                       "states": {V1, V2, V3}}],
    },
    protocol.RM_SYNC: lambda: {
        "tasks": {"t9": _task()},
        "reports": {"P2": _load_report()},
    },
    protocol.RM_TAKEOVER: lambda: {"new_rm": "P2", "epoch": 2},
    protocol.JOIN_REQUEST: lambda: {
        "peer_id": "P5", "host": "127.0.0.1", "port": 40001,
        "power": 10.0, "bandwidth": 1.25e6, "uptime": 0.9,
        "objects": [MediaObject("movie", V1, duration_s=3.0)],
        "edges": [{"src": V1, "dst": V2, "service_id": "T-e1",
                   "work": 48.0, "out_bytes": 1.2e6, "edge_id": "e1"}],
    },
    protocol.JOIN_ACK: lambda: {
        "role": "peer", "rm_id": "M0", "domain_id": "d0",
        "roster": {"P1": {"host": "127.0.0.1", "port": 40002}},
    },
}


def test_payload_table_covers_every_protocol_kind():
    assert sorted(PAYLOADS) == ALL_KINDS


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trip_every_kind(kind):
    msg = Message(
        kind=kind, src="P4", dst="M0", payload=PAYLOADS[kind](),
        size=protocol.size_of(kind), reply_to=7, sent_at=1.25,
    )
    frame = decode_frame(encode_message(msg))
    assert frame["t"] == FRAME_MSG
    out = frame["msg"]
    assert out == msg
    # Nominal size accounting is preserved verbatim — the JSON length
    # is an implementation detail, not the accounted wire size.
    assert out.size == protocol.size_of(kind)
    assert out.msg_id == msg.msg_id and out.reply_to == 7


def test_round_trip_preserves_payload_object_types():
    msg = Message(
        kind=protocol.COMPOSE, src="M0", dst="P1",
        payload={"order": _order()}, size=1024.0,
    )
    order = decode_frame(encode_message(msg))["msg"].payload["order"]
    assert isinstance(order, ComposeOrder)
    assert all(isinstance(s, ServiceStep) for s in order.steps)
    assert order.steps[0].src_state == V1
    assert order.steps[1].dst_state == V3

    msg = Message(
        kind=protocol.TASK_REDIRECT, src="rm1", dst="rm0",
        payload={"task": _task()}, size=768.0,
    )
    task = decode_frame(encode_message(msg))["msg"].payload["task"]
    assert isinstance(task, ApplicationTask)
    assert isinstance(task.qos, QoSRequirements)
    assert task.state is TaskState.DONE
    assert task.outcome is TaskOutcome.MET_DEADLINE
    assert task.meta["path"] == ("e1", "e2")  # tuple survives
    assert task.goal_state == V3


def test_round_trip_containers():
    payload = {
        "tuple": (1, "a", (2.5, None)),
        "set": {V1, V2},
        "intkeys": {3: "x", (1, 2): "y"},
        "nested": [{"deep": {"deeper": (True, False)}}],
    }
    msg = Message(kind="load_update", src="a", dst="b",
                  payload=payload, size=64.0)
    out = decode_frame(encode_message(msg))["msg"].payload
    assert out == payload
    assert isinstance(out["tuple"], tuple)
    assert isinstance(out["set"], set)


def test_ack_frame_round_trip():
    frame = decode_frame(encode_ack("P2", 41))
    assert frame == {"t": FRAME_ACK, "src": "P2", "id": 41}


def test_wire_v1_golden_bytes():
    """Wire v1 pinned byte for byte (frames written by the PR-12 codec):
    how the encoder is built may change, what it emits may not."""
    assert encode_ack("P2", 41) == b'{"v":1,"t":"ack","src":"P2","id":41}'
    msg = Message(kind=protocol.LOAD_UPDATE, src="P2", dst="M0",
                  payload=_load_report().as_payload(), size=256.0,
                  msg_id=17, sent_at=12.5, trace_id="tr-1")
    assert encode_message(msg) == (
        b'{"v":1,"t":"msg","msg":{"kind":"load_update","src":"P2",'
        b'"dst":"M0","payload":{"peer_id":"P2","time":12.5,"power":10.0,'
        b'"utilization":0.4,"load":4.0,"bw_used":200000.0,'
        b'"queue_work":7.5,"queue_length":3,"services":{"T-e2":0.3},'
        b'"dependencies":2},"size":256.0,"msg_id":17,"reply_to":null,'
        b'"sent_at":12.5,"trace_id":"tr-1"}}'
    )


def _msg_frame(**overrides):
    body = {
        "kind": "task_ack", "src": "M0", "dst": "P4",
        "payload": {}, "size": 256.0, "msg_id": 5,
        "reply_to": None, "sent_at": 0.0,
    }
    body.update(overrides)
    return json.dumps({"v": WIRE_VERSION, "t": FRAME_MSG, "msg": body})


@pytest.mark.parametrize("data", [
    b"\xff\xfe not utf-8 \x80",
    b"not json at all",
    b"[1, 2, 3]",
    b'{"t": "msg"}',                                    # missing version
    b'{"v": 99, "t": "msg", "msg": {}}',                # future version
    b'{"v": 1, "t": "bogus"}',                          # unknown frame
    b'{"v": 1, "t": "ack", "src": 7, "id": 1}',         # ack src not str
    b'{"v": 1, "t": "ack", "src": "a", "id": true}',    # bool id
    b'{"v": 1, "t": "msg", "msg": []}',                 # body not object
    b'{"v": 1, "t": "msg", "msg": {"kind": "x"}}',      # missing fields
    _msg_frame(msg_id="five").encode(),                 # ill-typed id
    _msg_frame(size=-1.0).encode(),                     # invalid size
    _msg_frame(payload=[1, 2]).encode(),                # payload not dict
    _msg_frame(payload={"__t__": "martian"}).encode(),  # unknown tag
    _msg_frame(kind=3).encode(),                        # kind not str
])
def test_malformed_datagrams_rejected(data):
    with pytest.raises(WireFormatError):
        decode_frame(data)


# -- load_report field validation ---------------------------------------------

def _load_update_frame(**fields):
    """A LOAD_UPDATE frame as a peer sends it, with report fields replaced."""
    msg = Message(kind=protocol.LOAD_UPDATE, src="P2", dst="M0",
                  payload={"report": _load_report()}, size=256.0)
    frame = json.loads(encode_message(msg))
    frame["msg"]["payload"]["report"].update(fields)
    return json.dumps(frame).encode()


def test_load_report_round_trips_with_boundary_values():
    data = _load_update_frame(
        time=0, utilization=0.0, load=0, bw_used=0.0, queue_work=0.0,
        queue_length=0, dependencies=0, services={}, power=1,
    )
    report = decode_frame(data)["msg"].payload["report"]
    assert isinstance(report, LoadReport)
    assert report.power == 1 and report.services == {}


@pytest.mark.parametrize("fields", [
    {"load": "boom"},                      # the crash: str in RM arithmetic
    {"peer_id": 7},
    {"time": None},
    {"power": 0.0},                        # would divide by zero
    {"power": -5.0},
    {"utilization": -0.1},
    {"bw_used": True},                     # bool is not a number here
    {"queue_work": [1.0]},
    {"load": 10 ** 400},                   # int too large for a float
    {"queue_length": 2.5},
    {"queue_length": -1},
    {"dependencies": False},
    {"services": ["T-e2"]},
    {"services": {"T-e2": "fast"}},
    {"services": {"T-e2": -0.3}},
])
def test_hostile_load_report_fields_rejected(fields):
    with pytest.raises(WireFormatError):
        decode_frame(_load_update_frame(**fields))


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"),
])
def test_non_finite_load_report_numbers_rejected(value):
    # json.dumps writes these as the NaN/Infinity tokens json.loads
    # accepts back — a hostile sender can put them on the wire.
    with pytest.raises(WireFormatError):
        decode_frame(_load_update_frame(load=value))


# -- join record validation ---------------------------------------------------

def test_shipped_join_record_is_well_formed():
    rec = PAYLOADS[protocol.JOIN_REQUEST]()
    check_join_record(rec)
    check_join_record(dict(rec, shard="s1", power=1, uptime=0))
    del rec["objects"], rec["edges"]  # hosting nothing is fine
    check_join_record(rec)


@pytest.mark.parametrize("fields", [
    {"peer_id": None},
    {"host": 7},
    {"shard": 3},
    {"port": 0},
    {"port": 70000},
    {"port": True},
    {"port": "40001"},
    {"power": "10"},                       # the crash: str in RM arithmetic
    {"power": 0.0},
    {"power": -5.0},
    {"power": float("nan")},
    {"bandwidth": None},
    {"uptime": -0.1},
    {"uptime": float("inf")},
    {"objects": "movie"},
    {"objects": ["movie"]},
    {"edges": {"e1": {}}},
    {"edges": ["e1"]},
    {"edges": [{"dst": V2, "service_id": "T-e1", "work": 1.0,
                "out_bytes": 0.0}]},
    {"edges": [{"src": [1], "dst": V2, "service_id": "T-e1", "work": 1.0,
                "out_bytes": 0.0}]},
    {"edges": [{"src": V1, "dst": V2, "service_id": 1, "work": 1.0,
                "out_bytes": 0.0}]},
    {"edges": [{"src": V1, "dst": V2, "service_id": "T-e1", "work": "48",
                "out_bytes": 0.0}]},
    {"edges": [{"src": V1, "dst": V2, "service_id": "T-e1", "work": 1.0,
                "out_bytes": -1.0, "edge_id": "e1"}]},
])
def test_hostile_join_record_fields_rejected(fields):
    rec = dict(PAYLOADS[protocol.JOIN_REQUEST](), **fields)
    with pytest.raises(WireFormatError):
        check_join_record(rec)
