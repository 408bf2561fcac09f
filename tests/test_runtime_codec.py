"""Wire-format round-trips for the live runtime codec.

Every message kind in :mod:`repro.core.protocol` must survive
``encode_message -> decode_frame`` with its payload intact — including
the structured payload objects (media formats, QoS sets, compose
orders, load reports, application tasks) — and malformed datagrams
must be rejected with :class:`WireFormatError`, never delivered.
"""

from __future__ import annotations

import collections
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep
from repro.media.fig1 import V1, V2, V3
from repro.media.formats import CODEC_COMPLEXITY, MediaFormat
from repro.media.objects import MediaObject
from repro.monitoring.profiler import LoadReport
from repro.net.message import Message
from repro.runtime import codec
from repro.runtime.codec import (
    FRAME_ACK,
    FRAME_MSG,
    FRAME_NUDGE,
    WIRE_VERSION,
    WireFormatError,
    decode_frame,
    encode_ack,
    encode_message,
    encode_nudge,
)
from repro.runtime.roster import RosterEntry
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskOutcome, TaskState

# Every kind constant the protocol module defines: its uppercase string
# constants, enumerated apart from the schema table they must all be in.
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


#: A payload per message kind, the shape its sender writes (the live
#: roster agents' for the two gossip kinds; the simulated RMs' summaries
#: and snapshots hold objects no wire format carries).
PAYLOADS = {
    protocol.LOAD_UPDATE: lambda: {"report": _load_report()},
    protocol.TASK_REQUEST: lambda: {
        "name": "movie", "goal_state": V3, "deadline": 60.0,
        "importance": 1.0, "origin": "P4",
    },
    protocol.STEP_DONE: lambda: {
        "task_id": "t1", "step_index": 0, "peer_id": "P1", "epoch": 1,
        "started": 4.0, "finished": 4.5,
    },
    protocol.TASK_DONE: lambda: {
        "task_id": "t1", "completed_at": 9.5, "sink": "P4",
    },
    protocol.PEER_LEAVE: lambda: {"peer_id": "P3"},
    protocol.QOS_UPDATE: lambda: {
        "task_id": "t1", "deadline_abs": 90.0, "origin": "P4",
        "importance": 2.0,
    },
    protocol.TASK_ACK: lambda: {
        "task_id": "t1", "disposition": "accepted",
    },
    protocol.COMPOSE: lambda: {"order": _order()},
    protocol.START_STREAM: lambda: {"task_id": "t1", "from_step": 0},
    protocol.CANCEL_TASK: lambda: {"task_id": "t1"},
    protocol.STREAM: lambda: {
        "task_id": "t1", "step_index": 1, "epoch": 1, "from": "P1",
    },
    protocol.TASK_REDIRECT: lambda: {"task": _task()},
    protocol.GOSSIP_DIGEST: lambda: {"roster_pull": {"cursor": 100}},
    protocol.GOSSIP_SUMMARIES: lambda: {
        "roster": [RosterEntry("P1", "127.0.0.1", 40001).to_wire()],
        "rm": {"rm_id": "M0", "ready": True, "epoch": 2},
        "pull_reply": {"next": None},
    },
    protocol.RM_SYNC: lambda: {"snapshot": {
        "domain_id": "d0", "tasks": {"t9": _task()},
        "last_seen": {"P2": 12.5}, "known_rms": {"rm1": "d1"},
    }},
    protocol.RM_TAKEOVER: lambda: {"rm_id": "P2"},
    protocol.JOIN_REQUEST: lambda: {
        "peer_id": "P5", "host": "127.0.0.1", "port": 40001,
        "power": 10.0, "bandwidth": 1.25e6, "uptime": 0.9,
        "objects": [MediaObject("movie", V1, duration_s=3.0)],
        "edges": [{"src": V1, "dst": V2, "service_id": "T-e1",
                   "work": 48.0, "out_bytes": 1.2e6, "edge_id": "e1"}],
    },
    protocol.JOIN_ACK: lambda: {
        "role": "peer", "rm_id": "M0", "domain_id": "d0",
        "roster": {"M0": {"peer_id": "M0", "host": "127.0.0.1",
                          "port": 40002}},
    },
}


def test_payload_table_covers_every_protocol_kind():
    assert sorted(PAYLOADS) == ALL_KINDS == sorted(protocol.SCHEMAS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_payload_row_matches_its_kind_schema(kind):
    assert codec._payload_checks[kind](PAYLOADS[kind]())


def _frame(kind, payload):
    return encode_message(Message(
        kind=kind, src="P4", dst="M0", payload=payload,
        size=protocol.size_of(kind), msg_id=3,
    ))


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
    msg = Message(kind="rm_sync", src="a", dst="b",
                  payload={"snapshot": payload}, size=64.0)
    out = decode_frame(encode_message(msg))["msg"].payload["snapshot"]
    assert out == payload
    assert isinstance(out["tuple"], tuple)
    assert isinstance(out["set"], set)


def test_ack_frame_round_trip():
    frame = decode_frame(encode_ack("P2", 41))
    assert frame == {"t": FRAME_ACK, "src": "P2", "id": 41}


def test_nudge_frame_round_trip():
    frame = decode_frame(encode_nudge("P2"))
    assert frame == {"t": FRAME_NUDGE, "src": "P2"}


def test_wire_v1_golden_bytes():
    """Wire v1 pinned byte for byte (frames written by the PR-12 codec):
    how the encoder is built may change, what it emits may not."""
    assert encode_ack("P2", 41) == b'{"v":1,"t":"ack","src":"P2","id":41}'
    assert encode_nudge("P2") == b'{"v":1,"t":"nudge","src":"P2"}'
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
    b'{"v": 1, "t": "nudge", "src": 7}',                # nudge src not str
    b'{"v": 1, "t": "nudge"}',                          # nudge without src
    b'{"v": 1, "t": "msg", "msg": []}',                 # body not object
    b'{"v": 1, "t": "msg", "msg": {"kind": "x"}}',      # missing fields
    _msg_frame(msg_id="five").encode(),                 # ill-typed id
    _msg_frame(size=-1.0).encode(),                     # invalid size
    _msg_frame(payload=[1, 2]).encode(),                # payload not dict
    _msg_frame(payload={"__t__": "martian"}).encode(),  # unknown tag
    _msg_frame(kind=3).encode(),                        # kind not str
    _msg_frame(size=10 ** 400).encode(),                # float() overflows
    _msg_frame(sent_at=10 ** 400).encode(),
    _msg_frame(kind="martian").encode(),                # unknown kind
    _msg_frame(payload={"task_id": "t1"}).encode(),     # a field missing
    _msg_frame(trace_id=5).encode(),
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


# -- join records and gossip, checked at decode --------------------------------

def test_shipped_join_record_is_well_formed():
    rec = PAYLOADS[protocol.JOIN_REQUEST]()
    decode_frame(_frame(protocol.JOIN_REQUEST, rec))
    decode_frame(_frame(protocol.JOIN_REQUEST,
                        dict(rec, shard="s1", power=1, uptime=0)))
    del rec["objects"], rec["edges"]  # hosting nothing is fine
    decode_frame(_frame(protocol.JOIN_REQUEST, rec))


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
        decode_frame(_frame(protocol.JOIN_REQUEST, rec))


def _gossip_frame(**payload):
    return _frame(protocol.GOSSIP_SUMMARIES, payload)


def test_shipped_roster_entries_and_rm_states_are_well_formed():
    decode_frame(_gossip_frame(roster=[
        RosterEntry("P1", "127.0.0.1", 40001).to_wire(),
        {"id": "roster@s1", "host": "127.0.0.1", "port": 40002,
         "kind": "agent", "shard": "s1", "status": "left", "version": 3},
    ]))
    decode_frame(_gossip_frame(rm={"rm_id": None, "ready": False, "epoch": 0}))
    decode_frame(_gossip_frame(rm={"rm_id": "M0", "ready": True, "epoch": 2}))


@pytest.mark.parametrize("fields", [
    {"id": 7},                             # raised in ring_position
    {"host": 5},
    {"port": 99999},                       # redirected every node's sends
    {"port": "40001"},
    {"kind": "rm"},
    {"status": "gone"},
    {"shard": 3},
    {"power": "10"},
    {"uptime": float("nan")},
    {"version": "99"},
    {"version": -1},
])
def test_hostile_roster_entry_fields_rejected(fields):
    doc = {"id": "M0", "host": "127.0.0.1", "port": 40001, **fields}
    with pytest.raises(WireFormatError):
        decode_frame(_gossip_frame(roster=[doc]))


@pytest.mark.parametrize("state", [
    ["M0", True, 2],
    {"rm_id": 5, "ready": True, "epoch": 2},
    {"rm_id": "M0", "ready": "yes", "epoch": 2},
    {"rm_id": "M0", "ready": True, "epoch": "2"},
    {"rm_id": "M0", "ready": True, "epoch": True},
    {"rm_id": "M0", "ready": True, "epoch": -1},
])
def test_hostile_rm_states_rejected(state):
    with pytest.raises(WireFormatError):
        decode_frame(_gossip_frame(rm=state))


# -- the encoder against its reference ----------------------------------------

def _fields(*names):
    return {name: name for name in names}


#: Each payload type's wire body: its tag, then wire key -> attribute.
REFERENCE_BODIES = {
    MediaFormat: ("fmt", _fields(
        "codec", "width", "height", "bitrate_kbps", "fps")),
    MediaObject: ("media", _fields(
        "name", "fmt", "duration_s", "content_hash")),
    QoSRequirements: ("qos", _fields("deadline", "importance", "constraints")),
    ServiceStep: ("step", _fields(
        "index", "service_id", "peer_id", "work", "out_bytes", "src_state",
        "dst_state", "edge_id")),
    ComposeOrder: ("order", _fields(
        "task_id", "rm_id", "source_peer", "sink_peer", "steps",
        "abs_deadline", "importance", "in_bytes", "resume_from", "epoch")),
    LoadReport: ("load_report", _fields(
        "peer_id", "time", "power", "utilization", "load", "bw_used",
        "queue_work", "queue_length", "services", "dependencies")),
    TaskState: ("task_state", {"v": "value"}),
    TaskOutcome: ("task_outcome", {"v": "value"}),
    ApplicationTask: ("task", _fields(
        "name", "qos", "initial_state", "goal_state", "origin_peer",
        "task_id", "submitted_at", "state", "allocation",
        "allocation_fairness", "admitted_domain", "redirects", "repairs",
        "finished_at", "outcome", "meta")),
}


def reference_encode(value):
    """The generic recursive encoder the codec's type table replaced,
    kept as the oracle for its bytes: an isinstance walk per value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        items = [reference_encode(v) for v in value]
        if isinstance(value, tuple):
            return {"__t__": "tuple", "v": items}
        return items
    if isinstance(value, (set, frozenset)):
        return {"__t__": "set",
                "v": sorted(map(reference_encode, value), key=repr)}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and "__t__" not in value:
            return {k: reference_encode(v) for k, v in value.items()}
        return {"__t__": "dict", "v": [
            [reference_encode(k), reference_encode(v)]
            for k, v in value.items()
        ]}
    tag, fields = REFERENCE_BODIES[type(value)]
    body = {key: reference_encode(getattr(value, attr))
            for key, attr in fields.items()}
    body["__t__"] = tag
    return body


def reference_frame(msg):
    return json.JSONEncoder(separators=(",", ":")).encode({
        "v": 1, "t": "msg", "msg": {
            "kind": msg.kind, "src": msg.src, "dst": msg.dst,
            "payload": reference_encode(msg.payload), "size": msg.size,
            "msg_id": msg.msg_id, "reply_to": msg.reply_to,
            "sent_at": msg.sent_at, "trace_id": msg.trace_id,
        },
    }).encode("utf-8")


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=6))
_formats = st.builds(
    MediaFormat, codec=st.sampled_from(sorted(CODEC_COMPLEXITY)),
    width=st.integers(1, 4096), height=st.integers(1, 4096),
    bitrate_kbps=st.floats(1.0, 1e5), fps=st.sampled_from([25.0, 30, 12.5]),
)
_hashables = st.recursive(
    _scalars | _formats, lambda inner: st.tuples(inner, inner), max_leaves=4,
)
_payload_objects = st.sampled_from([
    _order, _task, _load_report, _steps,
    lambda: QoSRequirements(deadline=5.0, constraints={1: "x"}),
    lambda: MediaObject("clip", V2, duration_s=2.5),
    lambda: TaskState.RUNNING, lambda: TaskOutcome.MISSED_DEADLINE,
]).map(lambda make: make())


def _values(leaves):
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=3) | st.tuples(inner, inner)
        | st.sets(_hashables, max_size=3)
        | st.frozensets(_hashables, max_size=3)
        | st.dictionaries(st.text(max_size=5) | st.just("__t__"), inner,
                          max_size=3)
        | st.dictionaries(_hashables, inner, max_size=3)
    ), max_leaves=10)


#: Values that compare equal after a round trip (no NaN).
round_trip_values = _values(_hashables | _payload_objects)
#: Anything encodable.
encodable_values = _values(_hashables | _payload_objects | st.floats())


@given(st.dictionaries(st.text(max_size=5) | st.just("__t__"),
                       encodable_values, max_size=4))
@settings(max_examples=300, deadline=None)
def test_encoder_bytes_equal_the_reference_encoder(payload):
    msg = Message(kind="x", src="a", dst="b", payload=payload, size=64.0,
                  msg_id=1, sent_at=0.5)
    assert encode_message(msg) == reference_frame(msg)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kind_encodes_to_the_reference_bytes(kind):
    msg = Message(kind=kind, src="P4", dst="M0", payload=PAYLOADS[kind](),
                  size=protocol.size_of(kind), msg_id=11, reply_to=7,
                  sent_at=1.25, trace_id="task:t1")
    assert encode_message(msg) == reference_frame(msg)


def test_builtin_subclasses_encode_like_their_base():
    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    Pair = collections.namedtuple("Pair", "a b")
    msg = Message(kind="x", src="a", dst="b", size=64.0, payload={
        "level": Level.HIGH, "name": Name("n"), "pair": Pair(1, V1),
        "ordered": collections.OrderedDict(b=1, a=2),
        "counts": collections.Counter({3: 1}),
    })
    assert encode_message(msg) == reference_frame(msg)


#: Each atom of the schema language -> values it admits (no NaN, so a
#: round trip compares equal); tagged atoms draw sample objects.
_ATOMS = {
    "str": st.text(max_size=6),
    "count": st.integers(0, 2 ** 62),
    "num": st.integers(0, 10 ** 6) | st.floats(0.0, 1e300),
    "pos": st.floats(1e-300, 1e300),
    "port": st.integers(1, 65535),
    "bool": st.booleans(),
    "state": _hashables,
    # The qos body's row keys constraints by string (as _task's does).
    "any": _values(_hashables | _payload_objects.filter(
        lambda v: not isinstance(v, QoSRequirements)
    )),
    "fmt": _formats,
    "media": st.builds(MediaObject, st.text(max_size=6), _formats,
                       duration_s=st.floats(0.5, 1e4)),
    "order": st.builds(_order),
    "load_report": st.builds(_load_report),
    "task": st.builds(_task),
}


def _drawn(spec):
    """A strategy for the values *spec* accepts."""
    if isinstance(spec, str):
        atom = _ATOMS[spec.rstrip("?")]
        return st.none() | atom if spec.endswith("?") else atom
    if isinstance(spec, tuple):
        return st.sampled_from(spec)
    if isinstance(spec, list):
        return st.lists(_drawn(spec[0]), max_size=3)
    if "*" in spec:
        return st.dictionaries(st.text(max_size=5), _drawn(spec["*"]),
                               max_size=3)
    return st.fixed_dictionaries(
        {k: _drawn(v) for k, v in spec.items() if not k.endswith("?")},
        optional={k[:-1]: _drawn(v) for k, v in spec.items()
                  if k.endswith("?")},
    )


@given(st.sampled_from(ALL_KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), _drawn(protocol.SCHEMAS[kind][1]))
))
@settings(max_examples=300, deadline=None)
def test_generated_payloads_round_trip_for_every_kind(drawn):
    kind, payload = drawn
    msg = Message(kind=kind, src="P4", dst="M0", payload=payload,
                  size=protocol.size_of(kind), msg_id=9, reply_to=3,
                  sent_at=2.5, trace_id="task:t9")
    assert decode_frame(encode_message(msg))["msg"] == msg


# -- hostile input: nothing but WireFormatError ------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["__t__", "v", "name"])
                          | st.text(max_size=4), inner, max_size=3)
        | st.fixed_dictionaries({
            "__t__": st.sampled_from(sorted(codec._readers) + ["martian"]),
            "v": inner,
        })
    ),
    max_leaves=8,
)


def _sent_frame(kind):
    """*kind*'s frame as a sender writes it, parsed."""
    return json.loads(encode_message(Message(
        kind=kind, src="P4", dst="M0", payload=PAYLOADS[kind](),
        size=protocol.size_of(kind), msg_id=11, reply_to=7, sent_at=1.25,
    )))


def _paths(node, prefix=()):
    """Every key or index path into a parsed frame."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def decodes_or_rejects(data):
    try:
        decode_frame(data)
    except WireFormatError:
        pass


@given(st.binary(max_size=300)
       | st.text(alphabet='{}[]",:-.0123456789eEtrufalsnNIy_ ',
                 max_size=120).map(str.encode))
@settings(max_examples=400, deadline=None)
def test_arbitrary_bytes_raise_only_wire_format_error(data):
    decodes_or_rejects(data)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_arbitrary_payload_values_raise_only_wire_format_error(value):
    frame = _sent_frame(protocol.TASK_ACK)
    frame["msg"]["payload"]["x"] = value
    decodes_or_rejects(json.dumps(frame).encode())


@given(st.sampled_from(ALL_KINDS), st.data())
@settings(max_examples=400, deadline=None)
def test_one_field_mutations_raise_only_wire_format_error(kind, data):
    frame = _sent_frame(kind)
    path = data.draw(st.sampled_from(list(_paths(frame))))
    parent = frame
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_json_values)
    decodes_or_rejects(json.dumps(frame).encode())


@given(st.sampled_from(["v", "t", "src"]), st.booleans(), _json_values)
@settings(max_examples=200, deadline=None)
def test_one_field_mutations_of_a_nudge_raise_only_wire_format_error(
    key, delete, value
):
    frame = json.loads(encode_nudge("P4"))
    if delete:
        del frame[key]
    else:
        frame[key] = value
    decodes_or_rejects(json.dumps(frame).encode())


# -- interned media formats ---------------------------------------------------

def _format_frame(fmt):
    return encode_message(Message(
        kind=protocol.TASK_REQUEST, src="P4", dst="M0",
        payload=dict(PAYLOADS[protocol.TASK_REQUEST](), goal_state=fmt),
        size=512.0,
    ))


def _decoded_format(data):
    return decode_frame(data)["msg"].payload["goal_state"]


def test_a_repeated_format_decodes_to_one_interned_object():
    data = _format_frame(V3)
    first = _decoded_format(data)
    assert first == V3
    assert _decoded_format(data) is first


def test_the_intern_table_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr(codec, "_formats", {})
    frames = [
        _format_frame(MediaFormat("MPEG-4", 640, 480, float(kbps)))
        for kbps in range(1, codec.FORMAT_INTERN_CAP + 11)
    ]
    decoded = [_decoded_format(data) for data in frames]
    assert len(codec._formats) == codec.FORMAT_INTERN_CAP
    # Inside the cap a repeat is the same object; past it, a fresh one.
    assert _decoded_format(frames[0]) is decoded[0]
    late = _decoded_format(frames[-1])
    assert late == decoded[-1] and late is not decoded[-1]
    assert len(codec._formats) == codec.FORMAT_INTERN_CAP
