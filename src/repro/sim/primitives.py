"""Coordination primitives built on the simulation kernel.

These mirror the handful of synchronisation tools the real system gets from
its runtime: FIFO message channels (Go channels in the LVI server),
semaphores (Lambda concurrency slots), and mutexes.  All waiting is in
virtual time and FIFO, so behaviour is reproducible run-to-run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from .core import Event, Simulator, SimulationError

__all__ = ["Channel", "Semaphore", "Mutex", "Gate"]


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


class Semaphore:
    """A counting semaphore with FIFO wakeup.

    Used to model bounded resources such as server worker pools.  Acquire
    with ``yield sem.acquire()``; release is immediate.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"semaphore capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Number of currently free slots."""
        return self._available

    def acquire(self) -> Event:
        """Return an event that triggers once a slot is held."""
        ev = self.sim.event(name=f"acquire({self.name})")
        if self._available > 0:
            self._available -= 1
            ev.trigger(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free a slot, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().trigger(None)
        else:
            if self._available >= self.capacity:
                raise SimulationError(f"semaphore {self.name!r} over-released")
            self._available += 1


class Mutex(Semaphore):
    """A binary semaphore; ``yield mutex.acquire()`` / ``mutex.release()``."""

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=1, name=name)

    def holding(self, body: Generator) -> Generator:
        """Run ``body`` (a generator) while holding the mutex.

        Usage: ``result = yield from mutex.holding(work())``.
        The mutex is released even if ``body`` raises.
        """
        yield self.acquire()
        try:
            return (yield from body)
        finally:
            self.release()


class Gate:
    """A level-triggered, reusable condition.

    Unlike :class:`~repro.sim.core.Event`, a gate can open and close many
    times; ``wait()`` returns immediately while the gate is open.  Used for
    things like "server is up".
    """

    def __init__(self, sim: Simulator, open_: bool = False, name: str = ""):
        self.sim = sim
        self.name = name
        self._open = open_
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        """Open the gate, releasing every current waiter."""
        self._open = True
        while self._waiters:
            self._waiters.popleft().trigger(None)

    def close(self) -> None:
        """Close the gate; subsequent waits block until re-opened."""
        self._open = False

    def wait(self) -> Event:
        """Return an event that triggers when the gate is (or becomes) open."""
        ev = self.sim.event(name=f"gate({self.name})")
        if self._open:
            ev.trigger(None)
        else:
            self._waiters.append(ev)
        return ev
