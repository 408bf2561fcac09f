"""Protocol message kinds and payload schemas (peer <-> RM <-> RM).

All payloads are plain dicts of JSON-able values plus task/step objects;
:data:`SCHEMAS` holds each kind's nominal size (a rough wire estimate
that drives transmission delay and the message-overhead accounting of
experiments E4/E7) and payload schema.
"""

from __future__ import annotations

# -- peer -> RM ------------------------------------------------------------
#: Periodic Profiler report; doubles as the peer's liveness heartbeat.
LOAD_UPDATE = "load_update"
#: A user query: run task `name` with QoS q (Fig. 2(A)).
TASK_REQUEST = "task_request"
#: A step of a running task finished at this peer (progress tracking).
STEP_DONE = "step_done"
#: The final stream arrived at the sink: the task is complete.
TASK_DONE = "task_done"
#: Graceful departure announcement.
PEER_LEAVE = "peer_leave"
#: The user changed a running task's QoS requirements (§4.5).
QOS_UPDATE = "qos_update"

# -- RM -> peer ---------------------------------------------------------------
#: Reply to TASK_REQUEST: accepted (with allocation) or rejected.
TASK_ACK = "task_ack"
#: Graph-composition message: the service graph a participant is part of.
COMPOSE = "compose"
#: Instruction to (re)start streaming from a given step index.
START_STREAM = "start_stream"
#: Cancel a task's local jobs (reassignment pulled it away).
CANCEL_TASK = "cancel_task"

# -- peer <-> peer ------------------------------------------------------------
#: A chunk of stream data moving along the service chain.
STREAM = "stream"

# -- RM <-> RM -----------------------------------------------------------------
#: A task redirected from an overloaded/uncovered domain (§4.5).
TASK_REDIRECT = "task_redirect"
#: Gossip digest exchange (inter-domain summaries, §4.4).
GOSSIP_DIGEST = "gossip_digest"
#: Gossip payload: summaries newer than the digest.
GOSSIP_SUMMARIES = "gossip_summaries"
#: Primary -> backup state replication (§4.1).
RM_SYNC = "rm_sync"
#: Backup announcing takeover to domain members (§4.1).
RM_TAKEOVER = "rm_takeover"

# -- overlay management ----------------------------------------------------------
JOIN_REQUEST = "join_request"
JOIN_ACK = "join_ack"

# -- payload schemas ---------------------------------------------------------
# Plain data, compiled once by the live codec (repro.runtime.codec), which
# checks every decoded frame against its kind's row before any handler
# sees it.  A spec is an atom name -- ``str``, ``count`` (int >= 0),
# ``num`` (finite >= 0), ``pos`` (finite > 0), ``port``, ``bool``,
# ``state`` (hashable), ``any``, or a decoded tagged type (``order``,
# ``load_report``, ``task``, ...) -- with a trailing ``?`` also admitting
# None; a tuple of allowed values; ``[spec]`` for a list; ``{"*": spec}``
# for a string-keyed map; or a record, whose fields ending in ``?`` may
# be absent (a handler reads it with a default).  Fields a row does not
# name pass.

JOIN_EDGE = {"src": "state", "dst": "state", "service_id": "str",
             "edge_id?": "str", "work": "num", "out_bytes": "num"}
#: A live member's capability record (node -> agent -> RM).
JOIN_RECORD = {"peer_id": "str", "host": "str", "port": "port",
               "shard?": "str", "power": "pos", "bandwidth": "pos",
               "uptime": "num", "objects?": ["media"], "edges?": [JOIN_EDGE]}
#: A gossiped roster entry (``RosterEntry.to_wire``).
ROSTER_ENTRY = {"id": "str", "host": "str", "port": "port",
                "kind?": ("node", "agent"), "shard?": "str?",
                "power?": "num", "bandwidth?": "num", "uptime?": "num",
                "version?": "count", "status?": ("up", "left")}
#: A gossiped RM state; ``rm_id`` is None before the election.
RM_STATE = {"rm_id": "str?", "epoch?": "count", "ready?": "bool"}
PULL_CURSOR = {"cursor?": "count"}
PULL_REPLY = {"next?": "count?"}
#: The address-only roster slice a JOIN_ACK carries.
ROSTER_SLICE = {"peer_id": "str", "host": "str", "port": "port"}

#: Kind -> (nominal wire size in bytes, for overhead accounting; payload).
SCHEMAS = {
    LOAD_UPDATE: (256.0, {"report": "load_report"}),
    TASK_REQUEST: (512.0, {"name": "str", "goal_state": "state",
                           "deadline": "pos", "importance?": "pos",
                           "origin?": "str"}),
    STEP_DONE: (96.0, {"task_id": "str", "step_index": "count",
                       "peer_id": "str", "epoch?": "count",
                       "started?": "num", "finished?": "num"}),
    TASK_DONE: (128.0, {"task_id": "str", "completed_at": "num"}),
    PEER_LEAVE: (64.0, {"peer_id": "str"}),
    QOS_UPDATE: (96.0, {"task_id": "str", "deadline_abs": "num",
                        "origin?": "str", "importance?": "pos"}),
    TASK_ACK: (256.0, {"task_id": "str",
                       "disposition": ("accepted", "redirected", "rejected")}),
    COMPOSE: (1024.0, {"order": "order"}),
    START_STREAM: (128.0, {"task_id": "str", "from_step?": "count"}),
    CANCEL_TASK: (96.0, {"task_id": "str"}),
    STREAM: (256.0, {"task_id": "str", "step_index": "count",
                     "epoch?": "count", "from?": "str"}),
    TASK_REDIRECT: (768.0, {"task": "task"}),
    # The simulated RMs gossip summaries; the live roster agents reuse
    # both gossip kinds for the roster (docs/runtime.md).
    GOSSIP_DIGEST: (256.0, {"digest?": {"*": "count"},
                            "roster_pull?": PULL_CURSOR}),
    GOSSIP_SUMMARIES: (2048.0, {"summaries?": ["any"],
                                "roster?": [ROSTER_ENTRY], "rm?": RM_STATE,
                                "pull_reply?": PULL_REPLY}),
    RM_SYNC: (4096.0, {"snapshot": {"*": "any"}}),
    RM_TAKEOVER: (128.0, {"rm_id": "str"}),
    JOIN_REQUEST: (256.0, JOIN_RECORD),
    JOIN_ACK: (256.0, {"role": ("rm", "peer"), "rm_id": "str",
                       "domain_id?": "str", "roster?": {"*": ROSTER_SLICE}}),
}


def size_of(kind: str) -> float:
    """Nominal wire size for *kind* (default 256 B)."""
    row = SCHEMAS.get(kind)
    return 256.0 if row is None else row[0]
