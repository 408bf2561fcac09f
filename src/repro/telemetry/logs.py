"""Structured ``logging`` wiring with per-node context.

Every middleware component logs through :func:`get_logger`, which binds
the owning node's id into each record (``record.node``); the stock
formatter prints it, and :class:`JsonLogFormatter` emits one JSON object
per line for machine consumption.  Nothing is configured by default —
an un-configured run pays only the stdlib's is-enabled check — call
:func:`configure_logging` (the CLIs do, behind ``--log-level``).
"""

from __future__ import annotations

import json
import logging
import sys

#: Root of the package's logger namespace.
ROOT = "repro"

_TEXT_FORMAT = (
    "%(asctime)s %(levelname)-7s %(name)s [%(node)s] %(message)s"
)


class _EnsureNode(logging.Filter):
    """Guarantee ``record.node`` exists so the formatter never KeyErrors."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "node"):
            record.node = "-"
        return True


class NodeAdapter(logging.LoggerAdapter):
    """Injects a fixed ``node`` id into every record."""

    def process(self, msg, kwargs):
        extra = kwargs.setdefault("extra", {})
        extra.setdefault("node", self.extra["node"])
        return msg, kwargs


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line (greppable structured logs)."""

    def format(self, record: logging.LogRecord) -> str:
        body = {
            "ts": self.formatTime(record),
            "level": record.levelname,
            "logger": record.name,
            "node": getattr(record, "node", "-"),
            "msg": record.getMessage(),
        }
        if record.exc_info:
            body["exc"] = self.formatException(record.exc_info)
        return json.dumps(body, separators=(",", ":"))


def get_logger(component: str, node: str = "-") -> NodeAdapter:
    """A per-node logger, e.g. ``get_logger("runtime.node", "P3")``."""
    return NodeAdapter(
        logging.getLogger(f"{ROOT}.{component}"), {"node": node}
    )


def configure_logging(
    level: str = "INFO",
    json_lines: bool = False,
) -> logging.Handler:
    """Attach one handler to the ``repro`` logger namespace.

    Idempotent: a second call replaces the handler installed by the
    first (repeated CLI invocations in one process must not stack
    handlers and double-print).
    """
    root = logging.getLogger(ROOT)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_telemetry = True  # type: ignore[attr-defined]
    handler.addFilter(_EnsureNode())
    if json_lines:
        handler.setFormatter(JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter(_TEXT_FORMAT))
    root.addHandler(handler)
    root.setLevel(level.upper())
    root.propagate = False
    return handler
