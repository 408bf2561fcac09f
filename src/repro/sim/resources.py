"""The shared buffer primitive built on the event kernel.

:class:`Store`
    an unbounded FIFO buffer of Python objects with blocking ``get`` —
    the mailbox under every node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class StorePut(Event):
    """Insertion of *item* into a :class:`Store`; fires at once."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`; fires with the item."""

    __slots__ = ()


class Store:
    """An unbounded FIFO buffer with blocking get.

    Items and waiting getters are never both present: a put hands its
    item to the oldest waiting getter, and a get takes the oldest
    buffered item or waits.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert *item*; the returned event has already fired."""
        ev = StorePut(self, item)
        self.items.append(item)
        ev.succeed()
        if self._getters:
            self._getters.pop(0).succeed(self.items.pop(0))
        return ev

    def get(self) -> StoreGet:
        """Take the oldest item, or wait for the next put."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev
