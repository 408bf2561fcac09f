"""The shared buffer primitive built on the event kernel.

:class:`Store`
    an unbounded (or bounded) buffer of Python objects with blocking
    ``put``/``get`` — the building block for mailboxes and links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class StorePut(Event):
    """Pending insertion of *item* into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`; fires with the item."""

    __slots__ = ("filter",)

    def __init__(
        self,
        store: "Store",
        filter: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        super().__init__(store.env)
        self.filter = filter


class Store:
    """A buffer of items with blocking put/get.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Maximum number of buffered items; ``float('inf')`` (default) for
        an unbounded buffer.

    ``get`` accepts an optional filter predicate, enabling
    selective-receive semantics (e.g. a peer waiting for a reply with a
    specific correlation id).
    """

    def __init__(
        self, env: "Environment", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert *item*; the returned event fires once buffered."""
        ev = StorePut(self, item)
        # Fast path (the overwhelmingly common mailbox case): no queue
        # ahead of us and room in the buffer — buffer, fire, hand the
        # item straight to the first matching waiter.  Identical event
        # ordering to _dispatch, without its rescan loop.
        if not self._putters and len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
            getters = self._getters
            if getters:
                # Unfiltered first waiter (every mailbox get): hand over
                # items[0] directly — the same pairing _serve_getters
                # would produce, minus its scan machinery.
                get = getters[0]
                if get.filter is None:
                    del getters[0]
                    get.succeed(self.items.pop(0))
                    if self.items and getters:
                        self._serve_getters()
                else:
                    self._serve_getters()
        else:
            self._putters.append(ev)
            self._dispatch()
        return ev

    def get(
        self, filter: Optional[Callable[[Any], bool]] = None
    ) -> StoreGet:
        """Take one item (matching *filter*, if given)."""
        ev = StoreGet(self, filter)
        # Fast path mirror of put(): nobody queued ahead of us.  Taking
        # a buffered item may open capacity for a waiting putter, hence
        # the _dispatch afterwards (which fires strictly later than our
        # get — the same order _dispatch itself produces).
        if not self._getters and self.items:
            if filter is None:
                ev.succeed(self.items.pop(0))
                if self._putters:
                    self._dispatch()
                return ev
            idx = self._match(ev)
            if idx is None:
                self._getters.append(ev)
                return ev
            ev.succeed(self.items.pop(idx))
            if self._putters:
                self._dispatch()
            return ev
        self._getters.append(ev)
        self._dispatch()
        return ev

    def cancel_get(self, ev: StoreGet) -> None:
        """Withdraw a pending get (e.g. on timeout)."""
        try:
            self._getters.remove(ev)
        except ValueError:
            pass

    def _serve_getters(self) -> None:
        """One pass of the getter-matching loop (see _dispatch)."""
        i = 0
        while i < len(self._getters):
            get = self._getters[i]
            idx = self._match(get)
            if idx is None:
                i += 1
                continue
            item = self.items.pop(idx)
            self._getters.pop(i)
            get.succeed(item)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move waiting puts into the buffer while capacity allows.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters from the buffer.
            i = 0
            while i < len(self._getters):
                get = self._getters[i]
                idx = self._match(get)
                if idx is None:
                    i += 1
                    continue
                item = self.items.pop(idx)
                self._getters.pop(i)
                get.succeed(item)
                progress = True
            if not self.items and not self._putters:
                break

    def _match(self, get: StoreGet) -> Optional[int]:
        if get.filter is None:
            return 0 if self.items else None
        for idx, item in enumerate(self.items):
            if get.filter(item):
                return idx
        return None
