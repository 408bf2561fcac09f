"""Versioned JSON wire format for :class:`~repro.net.message.Message`.

The live runtime ships protocol messages as UDP datagrams.  Three frame
types share one envelope::

    {"v": 1, "t": "msg", "msg": {...}}       a protocol message
    {"v": 1, "t": "ack", "src": ..., "id": ...}   transport-level receipt
    {"v": 1, "t": "nudge", "src": ...}            "resend what is pending to src"

The ``msg`` body carries every :class:`Message` field verbatim —
including ``size``, the *nominal* wire size from
:data:`repro.core.protocol.MESSAGE_SIZES` — so the byte accounting of a
live run matches the simulator's (the JSON encoding itself is an
implementation detail, not the accounted size).

Plain JSON scalars, lists and string-keyed dicts pass through;
everything else is written as a tagged object ``{"__t__": <tag>, ...}``:
tuples, sets, and the protocol's payload dataclasses (media
formats/objects, QoS sets, compose orders, service steps, load reports,
application tasks).  Encoding looks each value's exact type up in one
writer table.  Decoding is one JSON parse whose object hook turns each
tagged object into its value as the parser closes it, children first,
so no value is visited twice; decoded media formats are interned.  Any
datagram that is not valid UTF-8 JSON, has the wrong version, an
unknown frame type/tag, ill-typed message fields or an out-of-range
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
FRAME_NUDGE = "nudge"

_TAG_KEY = "__t__"

#: Distinct decoded media formats kept for reuse; past this many,
#: decode builds fresh (equal) objects.
FORMAT_INTERN_CAP = 1024


class WireFormatError(ValueError):
    """A datagram that cannot be decoded (malformed, wrong version)."""


# --------------------------------------------------------------------------
# value encoding: one writer per exact type; decoding: one reader per tag
# --------------------------------------------------------------------------

#: Exact type -> the value's JSON-ready form.  Tagged bodies carry their
#: tag as the last key.
_writers: Dict[Type, Callable[[Any], Any]] = {}
#: Tag -> the value of a tagged body whose children are already decoded.
_readers: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def _register(
    cls: Type, tag: str,
    to_wire: Callable[[Any], Any],
    from_wire: Callable[[Dict[str, Any]], Any],
) -> None:
    _writers[cls] = to_wire
    _readers[tag] = from_wire


def _wire(value: Any) -> Any:
    writer = _writers.get(type(value))
    if writer is None:
        writer = _resolve(type(value))
    return writer(value)


def _resolve(cls: Type) -> Callable[[Any], Any]:
    """A subclass of a builtin writes as that builtin (an ``IntEnum`` as
    an int, an ``OrderedDict`` as a dict); cached per type."""
    for base in cls.__mro__[1:]:
        if base in _BUILTINS:
            writer = _writers[cls] = _writers[base]
            return writer
    raise WireFormatError(
        f"cannot encode {cls.__name__!r} value for the wire"
    )


def _same(value: Any) -> Any:
    return value


def _write_dict(value: Dict[Any, Any]) -> Any:
    for key in value:
        if not isinstance(key, str) or key == _TAG_KEY:
            # Non-string keys (or a reserved key) need the pair form.
            return {_TAG_KEY: "dict", "v": [
                [_wire(k), _wire(v)] for k, v in value.items()
            ]}
    return {k: _wire(v) for k, v in value.items()}


_BUILTINS = (type(None), bool, int, float, str, list, tuple, set,
             frozenset, dict)
_writers.update(dict.fromkeys(_BUILTINS[:5], _same))
_writers[list] = lambda v: list(map(_wire, v))
_writers[dict] = _write_dict
_register(tuple, "tuple", lambda v: {_TAG_KEY: "tuple",
                                     "v": list(map(_wire, v))},
          lambda d: tuple(d.get("v", [])))
_register(set, "set", lambda v: {_TAG_KEY: "set",
                                 "v": sorted(map(_wire, v), key=repr)},
          lambda d: set(d.get("v", [])))
_writers[frozenset] = _writers[set]
_readers["dict"] = lambda d: {k: v for k, v in d.get("v", [])}


# -- payload dataclasses ------------------------------------------------------

_formats: Dict[Tuple[Tuple[str, Any], ...], MediaFormat] = {}


def _format_from_wire(d: Dict[str, Any]) -> MediaFormat:
    # Formats are frozen values drawn from a small catalog: a repeated
    # one (same keys, equal values) is the object decoded before.
    key = tuple(d.items())
    fmt = _formats.get(key)
    if fmt is None:
        fmt = MediaFormat(**d)
        if len(_formats) < FORMAT_INTERN_CAP:
            _formats[key] = fmt
    return fmt


_register(
    MediaFormat, "fmt",
    lambda f: {"codec": f.codec, "width": f.width, "height": f.height,
               "bitrate_kbps": f.bitrate_kbps, "fps": f.fps,
               _TAG_KEY: "fmt"},
    _format_from_wire,
)

_register(
    MediaObject, "media",
    lambda o: {"name": o.name, "fmt": _wire(o.fmt),
               "duration_s": o.duration_s, "content_hash": o.content_hash,
               _TAG_KEY: "media"},
    lambda d: MediaObject(
        name=d["name"], fmt=d["fmt"], duration_s=d["duration_s"],
        content_hash=d["content_hash"],
    ),
)

_register(
    QoSRequirements, "qos",
    lambda q: {"deadline": q.deadline, "importance": q.importance,
               "constraints": _write_dict(dict(q.constraints)),
               _TAG_KEY: "qos"},
    lambda d: QoSRequirements(
        deadline=d["deadline"], importance=d["importance"],
        constraints=d["constraints"],
    ),
)

_register(
    ServiceStep, "step",
    lambda s: {"index": s.index, "service_id": s.service_id,
               "peer_id": s.peer_id, "work": s.work,
               "out_bytes": s.out_bytes, "src_state": _wire(s.src_state),
               "dst_state": _wire(s.dst_state), "edge_id": s.edge_id,
               _TAG_KEY: "step"},
    lambda d: ServiceStep(
        index=d["index"], service_id=d["service_id"], peer_id=d["peer_id"],
        work=d["work"], out_bytes=d["out_bytes"],
        src_state=d["src_state"], dst_state=d["dst_state"],
        edge_id=d["edge_id"],
    ),
)

_register(
    ComposeOrder, "order",
    lambda o: {"task_id": o.task_id, "rm_id": o.rm_id,
               "source_peer": o.source_peer, "sink_peer": o.sink_peer,
               "steps": list(map(_wire, o.steps)),
               "abs_deadline": o.abs_deadline, "importance": o.importance,
               "in_bytes": o.in_bytes, "resume_from": o.resume_from,
               "epoch": o.epoch, _TAG_KEY: "order"},
    lambda d: ComposeOrder(
        task_id=d["task_id"], rm_id=d["rm_id"],
        source_peer=d["source_peer"], sink_peer=d["sink_peer"],
        steps=list(d["steps"]),
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


def _load_report_to_wire(r: LoadReport) -> Dict[str, Any]:
    body = _write_dict(r.as_payload())
    body[_TAG_KEY] = "load_report"
    return body


def _load_report_from_wire(d: Dict[str, Any]) -> LoadReport:
    # A report feeds the RM's load arithmetic directly: a field of the
    # wrong type or range must be dropped here, at the boundary, not
    # raise later inside an allocation.
    report = LoadReport.from_payload(d)
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
    LoadReport, "load_report", _load_report_to_wire, _load_report_from_wire,
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
    lambda s: {"v": s.value, _TAG_KEY: "task_state"},
    lambda d: TaskState(d["v"]),
)

_register(
    TaskOutcome, "task_outcome",
    lambda o: {"v": o.value, _TAG_KEY: "task_outcome"},
    lambda d: TaskOutcome(d["v"]),
)


def _task_to_wire(t: ApplicationTask) -> Dict[str, Any]:
    return {
        "name": t.name, "qos": _wire(t.qos),
        "initial_state": _wire(t.initial_state),
        "goal_state": _wire(t.goal_state), "origin_peer": t.origin_peer,
        "task_id": t.task_id, "submitted_at": t.submitted_at,
        "state": _wire(t.state), "allocation": _wire(t.allocation),
        "allocation_fairness": t.allocation_fairness,
        "admitted_domain": t.admitted_domain, "redirects": t.redirects,
        "repairs": t.repairs, "finished_at": t.finished_at,
        "outcome": _wire(t.outcome), "meta": _wire(t.meta),
        _TAG_KEY: "task",
    }


def _task_from_wire(d: Dict[str, Any]) -> ApplicationTask:
    return ApplicationTask(
        name=d["name"], qos=d["qos"],
        initial_state=d["initial_state"],
        goal_state=d["goal_state"], origin_peer=d["origin_peer"],
        task_id=d["task_id"], submitted_at=d["submitted_at"],
        state=d["state"], allocation=d["allocation"],
        allocation_fairness=d["allocation_fairness"],
        admitted_domain=d["admitted_domain"], redirects=d["redirects"],
        repairs=d["repairs"], finished_at=d["finished_at"],
        outcome=d["outcome"], meta=d["meta"],
    )


_register(ApplicationTask, "task", _task_to_wire, _task_from_wire)


def _from_tagged(d: Dict[str, Any]) -> Any:
    """The parser's object hook: a tagged object becomes its value."""
    tag = d.get(_TAG_KEY)
    if tag is None:
        return d
    try:
        reader = _readers[tag]
    except (KeyError, TypeError):  # unknown, or not even hashable
        raise WireFormatError(f"unknown wire tag {tag!r}") from None
    del d[_TAG_KEY]
    try:
        return reader(d)
    except WireFormatError:
        raise
    except Exception as exc:
        raise WireFormatError(f"bad {tag!r} body: {exc}") from exc


# --------------------------------------------------------------------------
# datagram framing
# --------------------------------------------------------------------------

#: One encoder for every datagram (``json.dumps(..., separators=)``
#: would build a ``JSONEncoder`` per call).  Every container it sees is
#: fresh from a writer, so there is no cycle to check for.
_to_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_parse = json.JSONDecoder(object_hook=_from_tagged).decode

#: Acknowledging node -> its ack frame up to the message id.
_ack_prefixes: Dict[str, bytes] = {}


def encode_message(msg: Message) -> bytes:
    """Frame *msg* as a data datagram."""
    return _to_json({"v": WIRE_VERSION, "t": FRAME_MSG, "msg": {
        "kind": msg.kind, "src": msg.src, "dst": msg.dst,
        "payload": _wire(msg.payload), "size": msg.size,
        "msg_id": msg.msg_id, "reply_to": msg.reply_to,
        "sent_at": msg.sent_at, "trace_id": msg.trace_id,
    }}).encode("utf-8")


def encode_ack(src: str, msg_id: int) -> bytes:
    """Frame a transport-level receipt for ``(original dst, msg_id)``.

    ``src`` is the *acknowledging* node — the original message's
    destination; the sender keys its pending sends on ``(dst, msg_id)``.
    """
    prefix = _ack_prefixes.get(src)
    if prefix is None:
        head = _to_json({"v": WIRE_VERSION, "t": FRAME_ACK, "src": src})
        prefix = _ack_prefixes[src] = (head[:-1] + ',"id":').encode("utf-8")
    return prefix + int.__repr__(msg_id).encode() + b"}"


def encode_nudge(src: str) -> bytes:
    """Frame a nudge: resend now what is pending to *src*."""
    return _to_json({"v": WIRE_VERSION, "t": FRAME_NUDGE, "src": src}).encode()


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Parse one datagram.

    Returns ``{"t": "msg", "msg": Message}``,
    ``{"t": "ack", "src": str, "id": int}`` or
    ``{"t": "nudge", "src": str}``.

    Raises
    ------
    WireFormatError
        On anything that is not a well-formed, current-version frame.
    """
    try:
        raw = _parse(data.decode("utf-8"))
    except WireFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, too deep
        raise WireFormatError(f"undecodable datagram: {exc}") from exc
    if not isinstance(raw, dict):
        raise WireFormatError(f"frame is not an object: {raw!r}")
    if raw.get("v") != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {raw.get('v')!r} "
            f"(expected {WIRE_VERSION})"
        )
    ftype = raw.get("t")
    if ftype == FRAME_ACK or ftype == FRAME_NUDGE:
        src, msg_id = raw.get("src"), raw.get("id")
        if not isinstance(src, str):
            raise WireFormatError(f"{ftype} src must be a string, got {src!r}")
        if ftype == FRAME_NUDGE:
            return {"t": FRAME_NUDGE, "src": src}
        if not isinstance(msg_id, int) or isinstance(msg_id, bool):
            raise WireFormatError(f"ack id must be an int, got {msg_id!r}")
        return {"t": FRAME_ACK, "src": src, "id": msg_id}
    if ftype != FRAME_MSG:
        raise WireFormatError(f"unknown frame type {ftype!r}")
    body = raw.get("msg")
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
    if not isinstance(payload, dict):
        raise WireFormatError("payload must decode to a dict")
    try:
        msg = Message(kind, src, dst, payload, float(size), msg_id,
                      reply_to, float(sent_at), trace_id)
    except (ValueError, OverflowError) as exc:  # size <= 0, an int > 1e308
        raise WireFormatError(str(exc)) from exc
    return {"t": FRAME_MSG, "msg": msg}
