"""The run's id source: every name a run hands out is drawn here."""

from __future__ import annotations

import itertools
import os


class Ids:
    """One counter per kind of name; domains count from ``d0``.  A
    simulated run's :class:`~repro.sim.core.Environment` owns one from 1."""

    __slots__ = ("msg", "trace", "task", "job", "edge", "domain", "rebirth")

    def __init__(self, start: int = 1) -> None:
        for kind in self.__slots__:
            setattr(self, kind, itertools.count(start))
        self.domain = itertools.count(start - 1)

    @classmethod
    def incarnation(cls) -> "Ids":
        """Ids for one live process life, at a random 48-bit offset: a
        respawned node keeps its node id, so it must not repeat the old
        life's ``(src, msg_id)`` dedup keys or task ids."""
        return cls(1 + int.from_bytes(os.urandom(6), "big"))
