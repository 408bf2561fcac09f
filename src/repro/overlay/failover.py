"""Primary -> backup state replication and takeover (§4.1).

"The first peer in the list serves as backup Resource Manager, keeping
an up-to-date copy of all the information the Resource Manager stores.
This is achieved by receiving periodic updates from the primary
Resource Manager.  When a Resource Manager disconnects, the backup
Resource Manager senses the withdrawn connection. It then takes over as
a Resource Manager, using its backup copy."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro import telemetry
from repro.core import protocol
from repro.core.manager import ResourceManager
from repro.net.message import Message


@dataclass
class FailoverConfig:
    """Replication and failure-detection tunables."""

    sync_period: float = 5.0
    #: Declare the primary dead after this many silent sync periods.
    dead_after_periods: float = 3.0

    def __post_init__(self) -> None:
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")
        if self.dead_after_periods < 1:
            raise ValueError("dead_after_periods must be >= 1")


class FailoverAgent:
    """Pairs a primary RM with its passive backup."""

    def __init__(
        self,
        primary: ResourceManager,
        backup: ResourceManager,
        config: Optional[FailoverConfig] = None,
        on_takeover: Optional[
            Callable[[str, ResourceManager], None]
        ] = None,
    ) -> None:
        if backup.active:
            raise ValueError("backup must be a passive ResourceManager")
        self.primary = primary
        self.backup = backup
        self.config = config or FailoverConfig()
        self.on_takeover = on_takeover
        self.last_sync: float = backup.env.now
        self.last_snapshot: Optional[Dict[str, Any]] = None
        self.took_over = False
        self.takeover_time: Optional[float] = None

        # replace=True: a spare from the eligible list may be paired
        # with a new primary after a takeover.
        backup.on(protocol.RM_SYNC, self._handle_sync, replace=True)
        period = self.config.sync_period
        self._sync = primary.env.every(period, self._sync_tick)
        self._watch = backup.env.every(period, self._watch_tick)

    # -- primary side ----------------------------------------------------------
    def _sync_tick(self) -> None:
        if not self.primary.alive or not self.primary.active:
            self._sync.cancel()
            return
        self.primary.send(
            protocol.RM_SYNC,
            self.backup.node_id,
            {"snapshot": self.primary.snapshot_state()},
            size=protocol.size_of(protocol.RM_SYNC),
        )

    # -- backup side ---------------------------------------------------------------
    def _handle_sync(self, msg: Message) -> None:
        self.last_sync = self.backup.env.now
        self.last_snapshot = msg.payload["snapshot"]

    def _watch_tick(self) -> None:
        if self.took_over or not self.backup.alive:
            self._watch.cancel()
            return
        limit = self.config.dead_after_periods * self.config.sync_period
        if self.backup.env.now - self.last_sync > limit:
            self._watch.cancel()
            self._takeover()

    def _takeover(self) -> None:
        """The backup becomes the domain's Resource Manager."""
        self.took_over = True
        self.takeover_time = self.backup.env.now
        old_rm_id = self.primary.node_id
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.event(
                "failover.takeover", node=self.backup.node_id,
                old_rm=old_rm_id,
            )
            tel.metrics.counter("repro_rm_takeovers_total").inc()
        if self.last_snapshot is not None:
            self.backup.restore_state(self.last_snapshot)
        self.backup.activate()
        # The dead primary is still in the replicated roster: run the
        # normal departed-peer path so its services are pruned and its
        # tasks repaired.
        if self.backup.info.has_peer(old_rm_id):
            self.backup._peer_down(old_rm_id, graceful=False)
        if self.on_takeover is not None:
            self.on_takeover(old_rm_id, self.backup)

    def stop(self) -> None:
        self._sync.cancel()
        self._watch.cancel()

    @property
    def recovery_delay(self) -> Optional[float]:
        """Takeover time minus the last successful sync (E8 metric)."""
        if self.takeover_time is None:
            return None
        return self.takeover_time - self.last_sync
