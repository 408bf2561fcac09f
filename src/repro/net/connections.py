"""The Connection Manager (paper §2).

"The Connection Manager is responsible for managing the peer
connections; that is, establishing or destroying connections of the
processor to other peers. The number of connections is typically
limited by the resources at the peer."

A :class:`ConnectionManager` tracks the logical connections a peer
holds open.  Opening a connection to a new peer costs one handshake
message (accounted on the wire); when the cap is reached the
least-recently-used connection is torn down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetNode

#: Wire size of a connection handshake message.
HANDSHAKE_SIZE = 128.0
HANDSHAKE_KIND = "conn_open"


class ConnectionManager:
    """Bounded set of open connections with LRU eviction.

    Parameters
    ----------
    node:
        The owning network node (handshakes are sent through it).
    max_connections:
        Slot budget, "limited by the resources at the peer".
    """

    def __init__(self, node: "NetNode", max_connections: int = 32) -> None:
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self.node: Optional["NetNode"] = node
        self.max_connections = max_connections
        #: peer id -> last-use timestamp (insertion order == LRU order
        #: is *not* assumed; we sort on eviction).
        self._last_used: Dict[str, float] = {}
        self.evicted = 0

    # -- queries ------------------------------------------------------------
    @property
    def n_open(self) -> int:
        return len(self._last_used)

    def connections(self) -> list[str]:
        """Open connections, least recently used first."""
        return sorted(self._last_used, key=self._last_used.get)

    # -- lifecycle ---------------------------------------------------------------
    def ensure(self, peer_id: str) -> bool:
        """Make sure a connection to *peer_id* is open.

        Returns ``True`` if a new connection was established (and the
        handshake message sent), ``False`` if it already existed.
        """
        if peer_id == self.node.node_id:
            return False  # no self-connections
        now = self.node.env.now
        if peer_id in self._last_used:
            self._last_used[peer_id] = now
            return False
        if len(self._last_used) >= self.max_connections:
            victim = min(self._last_used, key=self._last_used.get)
            del self._last_used[victim]
            self.evicted += 1
        self._last_used[peer_id] = now
        self.node.send(HANDSHAKE_KIND, peer_id, {}, size=HANDSHAKE_SIZE)
        return True

    def close_all(self) -> None:
        """Close every connection for good (the node departs) and let go
        of the node, which holds this manager: no cycle outlives it."""
        self._last_used.clear()
        self.node = None

    def __repr__(self) -> str:
        owner = self.node.node_id if self.node is not None else "closed"
        return f"<ConnectionManager {owner} {self.n_open}/{self.max_connections} open>"
