"""Versioned JSON wire format for :class:`~repro.net.message.Message`.

The live runtime ships protocol messages as UDP datagrams.  Three frame
types share one envelope::

    {"v": 1, "t": "msg", "msg": {...}}       a protocol message
    {"v": 1, "t": "ack", "src": ..., "id": ...}   transport-level receipt
    {"v": 1, "t": "nudge", "src": ...}            "resend what is pending to src"

The ``msg`` body carries every :class:`Message` field verbatim —
including ``size``, the *nominal* wire size from
:data:`repro.core.protocol.SCHEMAS` — so the byte accounting of a live
run matches the simulator's (the JSON encoding itself is an
implementation detail, not the accounted size).

Plain JSON scalars, lists and string-keyed dicts pass through;
everything else is written as a tagged object ``{"__t__": <tag>, ...}``:
tuples, sets, and the protocol's payload dataclasses (media
formats/objects, QoS sets, compose orders, service steps, load reports,
application tasks).  Encoding looks each value's exact type up in one
writer table.  Decoding is one JSON parse whose object hook turns each
tagged object into its value as the parser closes it, children first,
so no value is visited twice; decoded media formats are interned.

Every spec — each tagged body's, the frames', and each message kind's
payload row in :data:`~repro.core.protocol.SCHEMAS` — is compiled once
into a checker, and a frame reaches its receiver only if all of them
accept it: a datagram that is not valid UTF-8 JSON, has the wrong
version, an unknown frame type, kind or tag, or a field its row rejects
raises :class:`WireFormatError`, and the transport drops it whole.
Handlers trust what they are given.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import Any, Callable, Dict, Iterator, Tuple, Type

from repro.core.protocol import SCHEMAS
from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep
from repro.media.formats import MediaFormat
from repro.media.objects import MediaObject
from repro.monitoring.profiler import LoadReport
from repro.net.connections import HANDSHAKE_KIND
from repro.net.message import Message
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
# schemas: each spec (the language is in repro.core.protocol) compiles
# once to a predicate over a decoded value
# --------------------------------------------------------------------------

#: Types every value of which hashes (a format's fields are checked),
#: skipping a dataclass hash per service-graph state.
_HASHABLE = {str, int, float, bool, type(None), MediaFormat}


def _hashable(v: Any) -> bool:
    try:
        hash(v)
    except TypeError:
        return False
    return True


#: The names generated checks read; every registered tag adds its class.
_scope: Dict[str, Any] = {
    "_MAX": sys.float_info.max, "_ABSENT": object(),
    "_HASHABLE": _HASHABLE, "_hashable": _hashable,
}
#: Atom name -> a Python test of the value named ``{0}``; every
#: registered tag adds one for its decoded type.  Decoded JSON numbers
#: are exact ints and floats (a bool is neither).
_atoms: Dict[str, str] = {
    "str": "{0}.__class__ is str",
    "count": "{0}.__class__ is int and {0} >= 0",
    # Bounded by the largest float: an int past it would overflow float().
    "num": "({0}.__class__ is float or {0}.__class__ is int)"
           " and 0 <= {0} <= _MAX",
    "pos": "({0}.__class__ is float or {0}.__class__ is int)"
           " and 0 < {0} <= _MAX",
    "port": "{0}.__class__ is int and 1 <= {0} <= 65535",
    "bool": "{0}.__class__ is bool",
    "state": "({0}.__class__ in _HASHABLE or _hashable({0}))",
    "any": "True",
}


def _compile(spec: Any) -> Callable[[Any], bool]:
    """*spec* as one generated predicate, so a record's fields are
    tested inline rather than by a call each.  The source is built from
    the specs in this program alone, never from received bytes."""
    return eval(f"lambda v: {_test(spec, 'v', itertools.count())}", _scope)


def _test(spec: Any, x: str, ids: Iterator[int]) -> str:
    """A Python expression: does the value named *x* match *spec*?"""
    if isinstance(spec, str):
        test = _atoms[spec.rstrip("?")].format(x)
        return f"({x} is None or {test})" if spec[-1] == "?" else f"({test})"
    if isinstance(spec, tuple):
        return f"({x} in {spec!r})"
    y = f"x{next(ids)}"
    if isinstance(spec, list):
        return (f"({x}.__class__ is list and "
                f"all({_test(spec[0], y, ids)} for {y} in {x}))")
    if "*" in spec:
        k = f"x{next(ids)}"
        return (f"({x}.__class__ is dict and all({k}.__class__ is str and "
                f"{_test(spec['*'], y, ids)} for {k}, {y} in {x}.items()))")
    tests = [f"{x}.__class__ is dict"]
    for name, sub in spec.items():
        y = f"x{next(ids)}"
        got = f"({y} := {x}.get({name.rstrip('?')!r}, _ABSENT))"
        if name[-1] == "?":
            tests.append(f"({got} is _ABSENT or {_test(sub, y, ids)})")
        else:
            tests.append(f"({got} is not _ABSENT and {_test(sub, y, ids)})")
    return "(" + " and ".join(tests) + ")"


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
    spec: Any = None,
) -> None:
    """Write a *cls* as a *tag* body, and read one back through
    *from_wire* once *spec* accepts it; in specs, *tag* names a *cls*."""
    _writers[cls] = to_wire
    _scope[f"_{tag}"] = cls
    _atoms[tag] = f"isinstance({{0}}, _{tag})"
    if spec is None:
        _readers[tag] = from_wire
        return
    check = _compile(spec)

    def read(d: Dict[str, Any]) -> Any:
        if check(d):
            return from_wire(d)
        raise WireFormatError(f"malformed {tag!r} body")
    _readers[tag] = read


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

_register(
    MediaFormat, "fmt",
    lambda f: {"codec": f.codec, "width": f.width, "height": f.height,
               "bitrate_kbps": f.bitrate_kbps, "fps": f.fps,
               _TAG_KEY: "fmt"},
    lambda d: MediaFormat(**d),
    {"codec": "str", "width": "count", "height": "count",
     "bitrate_kbps": "num", "fps": "num"},
)
_read_format = _readers["fmt"]
_formats: Dict[Tuple[Tuple[str, Any], ...], MediaFormat] = {}


def _format_from_wire(d: Dict[str, Any]) -> MediaFormat:
    # Formats are frozen values drawn from a small catalog: a repeated
    # one (same keys, equal values) is the object checked and decoded
    # before.
    key = tuple(d.items())
    fmt = _formats.get(key)
    if fmt is None:
        fmt = _read_format(d)
        if len(_formats) < FORMAT_INTERN_CAP:
            _formats[key] = fmt
    return fmt


_readers["fmt"] = _format_from_wire

_register(
    MediaObject, "media",
    lambda o: {"name": o.name, "fmt": _wire(o.fmt),
               "duration_s": o.duration_s, "content_hash": o.content_hash,
               _TAG_KEY: "media"},
    lambda d: MediaObject(
        name=d["name"], fmt=d["fmt"], duration_s=d["duration_s"],
        content_hash=d["content_hash"],
    ),
    {"name": "str", "fmt": "fmt", "duration_s": "pos", "content_hash": "str"},
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
    {"deadline": "pos", "importance": "pos", "constraints": {"*": "any"}},
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
    {"index": "count", "service_id": "str", "peer_id": "str", "work": "num",
     "out_bytes": "num", "src_state": "state", "dst_state": "state",
     "edge_id": "str"},
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
    {"task_id": "str", "rm_id": "str", "source_peer": "str",
     "sink_peer": "str", "steps": ["step"], "abs_deadline": "num",
     "importance": "pos", "in_bytes": "num", "resume_from": "count",
     "epoch": "count"},
)


def _load_report_to_wire(r: LoadReport) -> Dict[str, Any]:
    body = _write_dict(r.as_payload())
    body[_TAG_KEY] = "load_report"
    return body


_register(
    LoadReport, "load_report", _load_report_to_wire, LoadReport.from_payload,
    {"peer_id": "str", "time": "num", "power": "pos", "utilization": "num",
     "load": "num", "bw_used": "num", "queue_work": "num",
     "queue_length": "count", "services": {"*": "num"},
     "dependencies": "count"},
)

_register(
    TaskState, "task_state",
    lambda s: {"v": s.value, _TAG_KEY: "task_state"},
    lambda d: TaskState(d["v"]),
    {"v": tuple(s.value for s in TaskState)},
)

_register(
    TaskOutcome, "task_outcome",
    lambda o: {"v": o.value, _TAG_KEY: "task_outcome"},
    lambda d: TaskOutcome(d["v"]),
    {"v": tuple(o.value for o in TaskOutcome)},
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


_register(
    ApplicationTask, "task", _task_to_wire, _task_from_wire,
    {"name": "str", "qos": "qos", "initial_state": "state",
     "goal_state": "state", "origin_peer": "str", "task_id": "str",
     "submitted_at": "num", "state": "task_state", "allocation": ["any"],
     "allocation_fairness": "num", "admitted_domain": "str?",
     "redirects": "count", "repairs": "count", "finished_at": "num?",
     "outcome": "task_outcome?", "meta": {"*": "any"}},
)


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


#: Frame type -> the row its frame must match; a message's payload must
#: then match its kind's row in SCHEMAS.
_frame_checks = {ftype: _compile(spec) for ftype, spec in {
    FRAME_MSG: {"msg": {
        "kind": "str", "src": "str", "dst": "str", "payload": "any",
        "size": "pos", "msg_id": "count", "reply_to": "count?",
        "sent_at": "num", "trace_id?": "str?",
    }},
    FRAME_ACK: {"src": "str", "id": "count"},
    FRAME_NUDGE: {"src": "str"},
}.items()}
_payload_checks = {kind: _compile(row) for kind, (_, row) in SCHEMAS.items()}
# The net layer's connection handshake rides as a message, carrying nothing.
_payload_checks[HANDSHAKE_KIND] = _compile({})


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Parse one datagram.

    Returns ``{"t": "msg", "msg": Message}``,
    ``{"t": "ack", "src": str, "id": int}`` or
    ``{"t": "nudge", "src": str}``.

    Raises
    ------
    WireFormatError
        On anything that is not a well-formed, current-version frame
        whose payload matches its kind's row.
    """
    try:
        raw = _parse(data.decode("utf-8"))
    except WireFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, too deep
        raise WireFormatError(f"undecodable datagram: {exc}") from exc
    # Messages name no hostile value: its repr could nest past the limit.
    if not isinstance(raw, dict) or raw.get("v") != WIRE_VERSION:
        raise WireFormatError(f"not a version-{WIRE_VERSION} frame")
    ftype = raw.get("t")
    check = _frame_checks.get(ftype) if isinstance(ftype, str) else None
    if check is None or not check(raw):
        raise WireFormatError("unknown or malformed frame")
    if ftype == FRAME_ACK:
        return {"t": FRAME_ACK, "src": raw["src"], "id": raw["id"]}
    if ftype == FRAME_NUDGE:
        return {"t": FRAME_NUDGE, "src": raw["src"]}
    body = raw["msg"]
    kind, payload = body["kind"], body["payload"]
    check = _payload_checks.get(kind)
    if check is None or not check(payload):
        raise WireFormatError(f"unknown kind or malformed payload: {kind:.40}")
    return {"t": FRAME_MSG, "msg": Message(
        kind, body["src"], body["dst"], payload, float(body["size"]),
        body["msg_id"], body["reply_to"], float(body["sent_at"]),
        body.get("trace_id"),
    )}
