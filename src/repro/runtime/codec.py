"""Versioned JSON wire format for :class:`~repro.net.message.Message`.

The live runtime ships protocol messages as UDP datagrams.  Two frame
types share one envelope::

    {"v": 1, "t": "msg", "msg": {...}}       a protocol message
    {"v": 1, "t": "ack", "src": ..., "id": ...}   transport-level receipt

The ``msg`` body carries every :class:`Message` field verbatim —
including ``size``, the *nominal* wire size from
:data:`repro.core.protocol.MESSAGE_SIZES` — so the byte accounting of a
live run matches the simulator's (the JSON encoding itself is an
implementation detail, not the accounted size).

Payload values are encoded recursively.  Plain JSON scalars, lists and
string-keyed dicts pass through; everything else is written as a tagged
object ``{"__t__": <tag>, ...}``: tuples, sets, and the protocol's
payload dataclasses (media formats/objects, QoS sets, compose orders,
service steps, load reports, application tasks).  Decoding reverses the
tags; any datagram that is not valid UTF-8 JSON, has the wrong version,
an unknown frame type/tag, ill-typed message fields or an out-of-range
load report raises :class:`WireFormatError` — the transport drops such
datagrams.  A ``JOIN_REQUEST`` record and the roster entries and RM
state a gossip page carries are untagged maps, so their receivers check
them with :func:`check_join_record`, :func:`check_roster_entry` and
:func:`check_rm_state` instead.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Tuple, Type

from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep
from repro.media.formats import MediaFormat
from repro.media.objects import MediaObject
from repro.monitoring.profiler import LoadReport
from repro.net.message import Message
from repro.runtime.roster import KIND_AGENT, KIND_NODE, STATUS_LEFT, STATUS_UP
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskOutcome, TaskState

#: Wire-format version; bump on any incompatible envelope change.
WIRE_VERSION = 1

FRAME_MSG = "msg"
FRAME_ACK = "ack"

_TAG_KEY = "__t__"


class WireFormatError(ValueError):
    """A datagram that cannot be decoded (malformed, wrong version)."""


# --------------------------------------------------------------------------
# value encoding: tagged recursive JSON
# --------------------------------------------------------------------------

_encoders: Dict[Type, Tuple[str, Callable[[Any], Dict[str, Any]]]] = {}
_decoders: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def _register(
    cls: Type, tag: str,
    to_wire: Callable[[Any], Dict[str, Any]],
    from_wire: Callable[[Dict[str, Any]], Any],
) -> None:
    _encoders[cls] = (tag, to_wire)
    _decoders[tag] = from_wire


def _enc(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        items = [_enc(v) for v in value]
        if isinstance(value, tuple):
            return {_TAG_KEY: "tuple", "v": items}
        return items
    if isinstance(value, (set, frozenset)):
        return {_TAG_KEY: "set", "v": sorted((_enc(v) for v in value),
                                             key=repr)}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _TAG_KEY not in value:
            return {k: _enc(v) for k, v in value.items()}
        # Non-string keys (or a reserved key) need the pair form.
        return {
            _TAG_KEY: "dict",
            "v": [[_enc(k), _enc(v)] for k, v in value.items()],
        }
    entry = _encoders.get(type(value))
    if entry is not None:
        tag, to_wire = entry
        body = to_wire(value)
        body[_TAG_KEY] = tag
        return body
    raise WireFormatError(
        f"cannot encode {type(value).__name__!r} value for the wire"
    )


def _dec(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_dec(v) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TAG_KEY)
        if tag is None:
            return {k: _dec(v) for k, v in value.items()}
        if tag == "tuple":
            return tuple(_dec(v) for v in value.get("v", []))
        if tag == "set":
            return set(_dec(v) for v in value.get("v", []))
        if tag == "dict":
            return {_dec(k): _dec(v) for k, v in value.get("v", [])}
        decoder = _decoders.get(tag)
        if decoder is None:
            raise WireFormatError(f"unknown wire tag {tag!r}")
        body = {k: v for k, v in value.items() if k != _TAG_KEY}
        try:
            return decoder(body)
        except WireFormatError:
            raise
        except Exception as exc:
            raise WireFormatError(f"bad {tag!r} body: {exc}") from exc
    raise WireFormatError(f"cannot decode wire value {value!r}")


# -- payload dataclasses ------------------------------------------------------

_register(
    MediaFormat, "fmt",
    lambda f: {"codec": f.codec, "width": f.width, "height": f.height,
               "bitrate_kbps": f.bitrate_kbps, "fps": f.fps},
    lambda d: MediaFormat(**d),
)

_register(
    MediaObject, "media",
    lambda o: {"name": o.name, "fmt": _enc(o.fmt),
               "duration_s": o.duration_s, "content_hash": o.content_hash},
    lambda d: MediaObject(
        name=d["name"], fmt=_dec(d["fmt"]), duration_s=d["duration_s"],
        content_hash=d["content_hash"],
    ),
)

_register(
    QoSRequirements, "qos",
    lambda q: {"deadline": q.deadline, "importance": q.importance,
               "constraints": _enc(dict(q.constraints))},
    lambda d: QoSRequirements(
        deadline=d["deadline"], importance=d["importance"],
        constraints=_dec(d["constraints"]),
    ),
)

_register(
    ServiceStep, "step",
    lambda s: {"index": s.index, "service_id": s.service_id,
               "peer_id": s.peer_id, "work": s.work,
               "out_bytes": s.out_bytes, "src_state": _enc(s.src_state),
               "dst_state": _enc(s.dst_state), "edge_id": s.edge_id},
    lambda d: ServiceStep(
        index=d["index"], service_id=d["service_id"], peer_id=d["peer_id"],
        work=d["work"], out_bytes=d["out_bytes"],
        src_state=_dec(d["src_state"]), dst_state=_dec(d["dst_state"]),
        edge_id=d["edge_id"],
    ),
)

_register(
    ComposeOrder, "order",
    lambda o: {"task_id": o.task_id, "rm_id": o.rm_id,
               "source_peer": o.source_peer, "sink_peer": o.sink_peer,
               "steps": [_enc(s) for s in o.steps],
               "abs_deadline": o.abs_deadline, "importance": o.importance,
               "in_bytes": o.in_bytes, "resume_from": o.resume_from,
               "epoch": o.epoch},
    lambda d: ComposeOrder(
        task_id=d["task_id"], rm_id=d["rm_id"],
        source_peer=d["source_peer"], sink_peer=d["sink_peer"],
        steps=[_dec(s) for s in d["steps"]],
        abs_deadline=d["abs_deadline"], importance=d["importance"],
        in_bytes=d["in_bytes"], resume_from=d["resume_from"],
        epoch=d["epoch"],
    ),
)


def _finite(value: Any, field: str, positive: bool = False) -> None:
    """*field* is a finite real number, > 0 if *positive* else >= 0."""
    try:
        ok = (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
            and (value > 0 if positive else value >= 0)
        )
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        bound = "> 0" if positive else ">= 0"
        raise WireFormatError(
            f"{field} must be a finite number {bound}, got {value!r}"
        )


def _count(value: Any, field: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise WireFormatError(f"{field} must be an int >= 0, got {value!r}")


def _string(value: Any, field: str) -> None:
    if not isinstance(value, str):
        raise WireFormatError(f"{field} must be a string, got {value!r}")


def _port(value: Any, field: str) -> None:
    if not (isinstance(value, int) and not isinstance(value, bool)
            and 1 <= value <= 65535):
        raise WireFormatError(
            f"{field} must be an int in 1-65535, got {value!r}"
        )


def _load_report_from_wire(d: Dict[str, Any]) -> LoadReport:
    # A report feeds the RM's load arithmetic directly: a field of the
    # wrong type or range must be dropped here, at the boundary, not
    # raise later inside an allocation.
    report = LoadReport.from_payload(_dec(d))
    _string(report.peer_id, "load_report peer_id")
    _finite(report.power, "load_report power", positive=True)
    for name in ("time", "utilization", "load", "bw_used", "queue_work"):
        _finite(getattr(report, name), f"load_report {name}")
    _count(report.queue_length, "load_report queue_length")
    _count(report.dependencies, "load_report dependencies")
    if not isinstance(report.services, dict):
        raise WireFormatError("load_report services must be a map")
    for service, mean_time in report.services.items():
        if not isinstance(service, str):
            raise WireFormatError(
                f"load_report service id must be a string, got {service!r}"
            )
        _finite(mean_time, f"load_report services[{service!r}]")
    return report


_register(
    LoadReport, "load_report",
    lambda r: _enc(r.as_payload()),
    _load_report_from_wire,
)


def check_join_record(rec: Dict[str, Any]) -> None:
    """Raise :class:`WireFormatError` unless *rec* is a well-formed
    ``JOIN_REQUEST`` record.

    The record is an untagged map, so decoding cannot check it; its two
    receivers (the roster agent and the RM) call this before admitting
    it, because its fields reach the roster, the RM's information base
    and its load arithmetic as given.
    """
    _string(rec.get("peer_id"), "join peer_id")
    _string(rec.get("host"), "join host")
    _string(rec.get("shard", ""), "join shard")
    _port(rec.get("port"), "join port")
    _finite(rec.get("power"), "join power", positive=True)
    _finite(rec.get("bandwidth"), "join bandwidth", positive=True)
    _finite(rec.get("uptime"), "join uptime")
    objects = rec.get("objects", [])
    if not (isinstance(objects, list)
            and all(isinstance(o, MediaObject) for o in objects)):
        raise WireFormatError(
            f"join objects must be a list of media objects, got {objects!r}"
        )
    edges = rec.get("edges", [])
    if not isinstance(edges, list):
        raise WireFormatError(f"join edges must be a list, got {edges!r}")
    for edge in edges:
        if not isinstance(edge, dict):
            raise WireFormatError(f"join edge must be a map, got {edge!r}")
        try:
            hash((edge["src"], edge["dst"]))
        except (KeyError, TypeError) as exc:
            raise WireFormatError(
                f"join edge needs hashable src/dst states: {exc}"
            ) from exc
        _string(edge.get("service_id"), "join edge service_id")
        _string(edge.get("edge_id", ""), "join edge edge_id")
        _finite(edge.get("work"), "join edge work")
        _finite(edge.get("out_bytes"), "join edge out_bytes")


def check_roster_entry(doc: Any) -> None:
    """Raise :class:`WireFormatError` unless *doc* is a well-formed
    gossiped roster entry (:meth:`RosterEntry.to_wire`).

    A merged entry lands in the roster and, through it, in the address
    directory every node of the receiving host sends through, so one
    bad port there would break their sends.
    """
    if not isinstance(doc, dict):
        raise WireFormatError(f"roster entry must be a map, got {doc!r}")
    _string(doc.get("id"), "roster id")
    _string(doc.get("host"), "roster host")
    _port(doc.get("port"), "roster port")
    if doc.get("kind", KIND_NODE) not in (KIND_NODE, KIND_AGENT):
        raise WireFormatError(f"roster kind {doc.get('kind')!r} unknown")
    if doc.get("status", STATUS_UP) not in (STATUS_UP, STATUS_LEFT):
        raise WireFormatError(f"roster status {doc.get('status')!r} unknown")
    shard = doc.get("shard")
    if shard is not None:
        _string(shard, "roster shard")
    for name in ("power", "bandwidth", "uptime"):
        _finite(doc.get(name, 0.0), f"roster {name}")
    _count(doc.get("version", 1), "roster version")


def check_rm_state(state: Any) -> None:
    """Raise :class:`WireFormatError` unless *state* is a well-formed
    gossiped RM state: ``rm_id`` a string (None before the election),
    ``epoch`` an int >= 0 and ``ready`` a bool."""
    if not isinstance(state, dict):
        raise WireFormatError(f"rm state must be a map, got {state!r}")
    rm_id = state.get("rm_id")
    if rm_id is not None:
        _string(rm_id, "rm_id")
    _count(state.get("epoch", 0), "rm epoch")
    if not isinstance(state.get("ready", False), bool):
        raise WireFormatError(
            f"rm ready must be a bool, got {state.get('ready')!r}"
        )


_register(
    TaskState, "task_state",
    lambda s: {"v": s.value},
    lambda d: TaskState(d["v"]),
)

_register(
    TaskOutcome, "task_outcome",
    lambda o: {"v": o.value},
    lambda d: TaskOutcome(d["v"]),
)


def _task_to_wire(t: ApplicationTask) -> Dict[str, Any]:
    return {
        "name": t.name, "qos": _enc(t.qos),
        "initial_state": _enc(t.initial_state),
        "goal_state": _enc(t.goal_state), "origin_peer": t.origin_peer,
        "task_id": t.task_id, "submitted_at": t.submitted_at,
        "state": _enc(t.state), "allocation": _enc(t.allocation),
        "allocation_fairness": t.allocation_fairness,
        "admitted_domain": t.admitted_domain, "redirects": t.redirects,
        "repairs": t.repairs, "finished_at": t.finished_at,
        "outcome": _enc(t.outcome), "meta": _enc(t.meta),
    }


def _task_from_wire(d: Dict[str, Any]) -> ApplicationTask:
    return ApplicationTask(
        name=d["name"], qos=_dec(d["qos"]),
        initial_state=_dec(d["initial_state"]),
        goal_state=_dec(d["goal_state"]), origin_peer=d["origin_peer"],
        task_id=d["task_id"], submitted_at=d["submitted_at"],
        state=_dec(d["state"]), allocation=_dec(d["allocation"]),
        allocation_fairness=d["allocation_fairness"],
        admitted_domain=d["admitted_domain"], redirects=d["redirects"],
        repairs=d["repairs"], finished_at=d["finished_at"],
        outcome=_dec(d["outcome"]), meta=_dec(d["meta"]),
    )


_register(ApplicationTask, "task", _task_to_wire, _task_from_wire)


# --------------------------------------------------------------------------
# message <-> wire dict
# --------------------------------------------------------------------------

def message_to_wire(msg: Message) -> Dict[str, Any]:
    """The versionless ``msg`` body of a data frame."""
    return {
        "kind": msg.kind,
        "src": msg.src,
        "dst": msg.dst,
        "payload": _enc(msg.payload),
        "size": msg.size,
        "msg_id": msg.msg_id,
        "reply_to": msg.reply_to,
        "sent_at": msg.sent_at,
        "trace_id": msg.trace_id,
    }


def message_from_wire(body: Any) -> Message:
    """Rebuild a :class:`Message`, validating field presence and types."""
    if not isinstance(body, dict):
        raise WireFormatError(f"message body is not an object: {body!r}")
    try:
        kind = body["kind"]
        src = body["src"]
        dst = body["dst"]
        payload = body["payload"]
        size = body["size"]
        msg_id = body["msg_id"]
        reply_to = body["reply_to"]
        sent_at = body["sent_at"]
    except KeyError as exc:
        raise WireFormatError(f"message body missing field {exc}") from exc
    if not (isinstance(kind, str) and isinstance(src, str)
            and isinstance(dst, str)):
        raise WireFormatError("kind/src/dst must be strings")
    if not isinstance(msg_id, int) or isinstance(msg_id, bool):
        raise WireFormatError(f"msg_id must be an int, got {msg_id!r}")
    if reply_to is not None and (
        not isinstance(reply_to, int) or isinstance(reply_to, bool)
    ):
        raise WireFormatError(f"bad reply_to {reply_to!r}")
    if not isinstance(size, (int, float)) or isinstance(size, bool):
        raise WireFormatError(f"size must be a number, got {size!r}")
    if not isinstance(sent_at, (int, float)) or isinstance(sent_at, bool):
        raise WireFormatError(f"sent_at must be a number, got {sent_at!r}")
    # Optional, absent from frames produced by older encoders — the
    # envelope version stays at 1 because decoding tolerates both.
    trace_id = body.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise WireFormatError(f"trace_id must be a string, got {trace_id!r}")
    decoded = _dec(payload)
    if not isinstance(decoded, dict):
        raise WireFormatError("payload must decode to a dict")
    try:
        return Message(
            kind=kind, src=src, dst=dst, payload=decoded, size=float(size),
            msg_id=msg_id, reply_to=reply_to, sent_at=float(sent_at),
            trace_id=trace_id,
        )
    except ValueError as exc:  # e.g. non-positive size
        raise WireFormatError(str(exc)) from exc


# --------------------------------------------------------------------------
# datagram framing
# --------------------------------------------------------------------------

#: One encoder for every datagram (``json.dumps(..., separators=)``
#: would build a ``JSONEncoder`` per call).
_to_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_message(msg: Message) -> bytes:
    """Frame *msg* as a data datagram."""
    frame = {"v": WIRE_VERSION, "t": FRAME_MSG, "msg": message_to_wire(msg)}
    return _to_json(frame).encode("utf-8")


def encode_ack(src: str, msg_id: int) -> bytes:
    """Frame a transport-level receipt for ``(original dst, msg_id)``.

    ``src`` is the *acknowledging* node — the original message's
    destination; the sender keys its pending sends on ``(dst, msg_id)``.
    """
    frame = {"v": WIRE_VERSION, "t": FRAME_ACK, "src": src, "id": msg_id}
    return _to_json(frame).encode("utf-8")


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Parse one datagram.

    Returns ``{"t": "msg", "msg": Message}`` or
    ``{"t": "ack", "src": str, "id": int}``.

    Raises
    ------
    WireFormatError
        On anything that is not a well-formed, current-version frame.
    """
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"undecodable datagram: {exc}") from exc
    if not isinstance(raw, dict):
        raise WireFormatError(f"frame is not an object: {raw!r}")
    if raw.get("v") != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {raw.get('v')!r} "
            f"(expected {WIRE_VERSION})"
        )
    ftype = raw.get("t")
    if ftype == FRAME_MSG:
        return {"t": FRAME_MSG, "msg": message_from_wire(raw.get("msg"))}
    if ftype == FRAME_ACK:
        src, msg_id = raw.get("src"), raw.get("id")
        if not isinstance(src, str):
            raise WireFormatError(f"ack src must be a string, got {src!r}")
        if not isinstance(msg_id, int) or isinstance(msg_id, bool):
            raise WireFormatError(f"ack id must be an int, got {msg_id!r}")
        return {"t": FRAME_ACK, "src": src, "id": msg_id}
    raise WireFormatError(f"unknown frame type {ftype!r}")
