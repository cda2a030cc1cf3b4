"""Coordination primitives built on the simulation kernel.

The one synchronisation tool the protocol code borrows from a runtime: FIFO
message channels (Go channels in the LVI server; every ``Endpoint.inbox``
here).  All waiting is in virtual time and FIFO, so behaviour is
reproducible run-to-run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .core import Event, Simulator, SimulationError

__all__ = ["Channel"]


class Channel:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an :class:`Event` that a process
    yields and that resolves to the next item.  Items are delivered in put
    order, one per waiting getter, FIFO on both sides.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue an item, waking the oldest waiting getter if any."""
        if self._closed:
            raise SimulationError(f"put() on closed channel {self.name!r}")
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event resolving to the next item (yield it)."""
        ev = self.sim.event(name=f"get({self.name})")
        if self._items:
            ev.trigger(self._items.popleft())
        elif self._closed:
            ev.fail(ChannelClosed(self.name))
        else:
            self._getters.append(ev)
        return ev

    def close(self) -> None:
        """Close the channel: pending and future gets fail with
        :class:`ChannelClosed`.  Items already queued are discarded —
        closing models a crashed endpoint, not graceful shutdown."""
        if self._closed:
            return
        self._closed = True
        self._items.clear()
        while self._getters:
            self._getters.popleft().fail(ChannelClosed(self.name))


class ChannelClosed(Exception):
    """Raised inside getters when their channel is closed."""

    def __init__(self, name: str = ""):
        super().__init__(f"channel {name!r} closed")
