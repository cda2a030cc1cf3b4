"""Deterministic discrete-event simulation kernel.

This module is the substrate for the whole reproduction.  The paper's
evaluation is latency-driven (WAN round trips of 7-146 ms, function service
times of 13-272 ms); re-running it in real time would take hours and be
non-deterministic.  Instead every component in this repository is written as
a *process* — a Python generator — scheduled on a virtual clock measured in
milliseconds.  Event ordering is fully deterministic: events that fire at
the same virtual time are executed in scheduling order.

The programming model is intentionally close to SimPy's:

    def client(sim: Simulator):
        yield sim.timeout(5.0)          # advance virtual time
        reply = yield server_proc       # join another process
        ev = sim.event()
        ...
        value = yield ev                # wait for a one-shot event

Processes are spawned with :meth:`Simulator.spawn` and the world is advanced
with :meth:`Simulator.run`.

The wake-up contract (see docs/PERFORMANCE.md): ``events_dispatched``
counts executed queue entries, and a queue entry is what a wake-up costs.

* Costs one dispatch: a timer entry (a :class:`Timeout`, an RPC reply's
  arrival or deadline, a :meth:`Simulator.schedule` callback,
  cancelled-in-the-current-bucket tombstones included — a cancelled
  entry holds no callback or arguments, only its place), a
  :meth:`Simulator.spawn`, a message's delivery — also of one held for a
  later send instant (``Network.send_at``, a Raft follower's ack sent
  when its fsync ends): its delivery is its only entry — and one resume
  per process waiting on any other triggered :class:`Event` (its trigger
  may come from anywhere, so its waiters run from the queue, not from the
  triggerer's stack).
* Costs nothing extra: the waiters of an :class:`Arrival` — a timeout,
  the wait of an RPC attempt (``RpcCall.attempt``), which only an answer's
  delivery or the attempt's one timer completes, or a Raft commit
  (``RaftNode.submit``), which only an ack or append delivery, or a
  crash's fault entry, completes — because that queue entry resumes them
  itself, in waiting order (processing an event runs its callbacks, as in
  SimPy); the forwarding of a child's completion to an
  :class:`AnyOf`/:class:`AllOf` (the composite completes in the dispatch
  that completed its deciding child); and a timer cancelled before its
  calendar bucket was promoted (purged, never dispatched).
* Costs nothing at all, because nothing waits: a lock granted on the spot
  (``LockManager.acquire_all`` yields only for a lock it must queue for),
  the start of an RPC handler, of an open-loop request, of a Raft
  unlock record or of an LVI server's re-execution no one waits on (the
  delivery, arrival, releasing entry, intent timer or queued-behind
  handler runs the new process's first step —
  :meth:`Simulator.spawn_in_dispatch`), and a sub-generator the caller
  would only join (``yield from gen`` runs it inside the calling process;
  ``yield sim.spawn(gen)`` pays the child's start and the joiner's resume
  for the same steps, and the lint's SIM001 rejects it).
  :meth:`Simulator.spawn` itself stays deferred: a child that dies in its
  first step must find its spawner already joined.

What a request then costs is what it models — on the paper's closed loop,
six latency timers (two client hops, invoke + wasm load, f^rw, exec, the
server's storage round trip), one delivery and one reply, whose arrival
resumes the caller: eight (docs/PERFORMANCE.md names every event above
that).

The queue is a calendar/bucket queue with a FIFO lane for zero-delay
entries — most schedules are process resumes at the current instant, and a
deque append/popleft is far cheaper than a heap push/pop.  Ordering is
exactly global (when, seq): zero-delay entries carry ``when == now`` and
increasing sequence numbers, the timed queue's minimum is always ``>= now``,
and the dispatch loop interleaves the two lanes by comparing (when, seq)
across them.  ``tests/test_scheduler_equivalence.py`` holds that order
against a reference binary heap.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.trace import NOOP_COLLECTOR

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Arrival",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupted",
    "SimulationError",
]

#: Calendar bucket width in virtual milliseconds.  Delays in this workload
#: cluster between sub-ms lock waits and ~300 ms WAN round trips; 32 ms
#: keeps each bucket small enough that the heap inside the current bucket
#: stays shallow while future buckets absorb inserts at list-append cost.
_BUCKET_MS = 32.0

class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused or a process crashes.

    A process generator that raises an exception which no other process is
    waiting on aborts the simulation: silent failure would mask protocol
    bugs, which is exactly what this reproduction exists to surface.
    """


class Interrupted(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.  Used by failure-injection tests to model
    crashes of near-user runtimes and LVI servers.
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on by yielding it.

    An event starts *pending*; it is completed exactly once with either
    :meth:`trigger` (success, carrying an optional value) or :meth:`fail`
    (carrying an exception that is re-raised inside every waiter).
    Triggering an already-completed event raises :class:`SimulationError`.
    """

    __slots__ = ("sim", "_value", "_exc", "_done", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._done = False
        # Processes, plus the ``_child_done`` callbacks of composites
        # (AnyOf/AllOf) watching this event.
        self._waiters: list = []

    @property
    def triggered(self) -> bool:
        """True once the event has been triggered or failed."""
        return self._done

    @property
    def ok(self) -> bool:
        """True if the event completed successfully (not failed)."""
        return self._done and self._exc is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises :class:`SimulationError` if the event is still pending and
        re-raises the failure exception if the event failed.
        """
        if not self._done:
            raise SimulationError(f"event {self.name!r} has not completed")
        if self._exc is not None:
            raise self._exc
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Complete the event successfully, waking all waiters."""
        if self._done:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._done = True
        self._value = value
        self._wake()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Complete the event with an exception, which waiters will see."""
        if self._done:
            raise SimulationError(f"event {self.name!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._done = True
        self._exc = exc
        self._wake()
        return self

    def _wake(self) -> None:
        # A process resumes from the queue (one dispatch each); a composite
        # hears of its child's completion here and now.
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for waiter in waiters:
            if type(waiter) is Process:
                sim._schedule_resume(waiter, self)
            else:
                waiter(self)

    def _add_waiter(self, waiter: Any) -> None:
        if not self._done:
            self._waiters.append(waiter)
        elif type(waiter) is Process:
            self.sim._schedule_resume(waiter, self)
        else:
            waiter(self)

    def _discard_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Event {self.name!r} {state}>"


class Arrival(Event):
    """An event completed only by a queue entry of its own — a timer firing,
    a message arriving — which therefore *is* the wake-up: waiters resume
    inside that entry, in waiting order, instead of each paying a second
    zero-delay dispatch.  Completing one from anywhere else would run its
    waiters on the completer's stack."""

    __slots__ = ()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if type(waiter) is Process:
                waiter._resume(self)
            else:
                waiter(self)


class Timeout(Arrival):
    """An event that triggers itself after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        # No per-instance name: timeouts are by far the most-allocated
        # event and the f-string label was pure debug overhead on the hot
        # path (the class name already identifies them in reprs).
        super().__init__(sim)
        self.delay = delay
        sim._schedule(delay, self.trigger, value)


class AnyOf(Event):
    """Triggers when the *first* of the given events completes.

    The value is a dict mapping the completed event(s) to their values at
    the moment of first completion.  A failure of any child fails this
    event.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for ev in self.events:
            ev._add_waiter(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._done:
            return
        if not ev.ok:
            self.fail(ev._exc)  # type: ignore[arg-type]
            return
        self.trigger({e: e._value for e in self.events if e.ok})


class AllOf(Event):
    """Triggers when *all* of the given events complete successfully.

    The value is a dict mapping each event to its value.  The first child
    failure fails this event immediately.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.sim._schedule(0, self._maybe_trigger_empty)
            return
        for ev in self.events:
            ev._add_waiter(self._child_done)

    def _maybe_trigger_empty(self) -> None:
        if not self._done:
            self.trigger({})

    def _child_done(self, ev: Event) -> None:
        if self._done:
            return
        if not ev.ok:
            self.fail(ev._exc)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger({e: e._value for e in self.events})


class Process:
    """A running generator scheduled on the simulator.

    A process is created by :meth:`Simulator.spawn`.  Its generator may
    yield:

    * an :class:`Event` (including :class:`Timeout`) — suspend until it
      completes; the ``yield`` expression evaluates to the event's value.
    * another :class:`Process` — suspend until that process finishes; the
      ``yield`` evaluates to its return value (``StopIteration.value``).

    A process is itself an :class:`Event`-like object: other processes may
    yield it, and :attr:`done_event` completes when it returns or raises.
    """

    __slots__ = ("sim", "gen", "pid", "name", "done_event", "_waiting_on", "_defunct", "ctx")

    _ids = itertools.count()

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() requires a generator, got {gen!r}")
        self.sim = sim
        self.gen = gen
        self.pid = next(Process._ids)
        self.name = name or getattr(gen, "__name__", f"proc-{self.pid}")
        self.done_event = Event(sim)
        self._waiting_on: Optional[Event] = None
        self._defunct = False
        # Trace-context inheritance: a spawned process joins whatever trace
        # its spawner was in (None when tracing is disabled).  The kernel
        # restores this around every step so contexts never leak between
        # concurrently-scheduled processes.
        self.ctx = sim.trace_context

    # -- public API ------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the process generator has returned or raised."""
        return self.done_event.triggered

    @property
    def result(self) -> Any:
        """The process return value; raises if still running or failed."""
        return self.done_event.value

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its current wait.

        Interrupting a finished process is a no-op, mirroring SimPy, so
        failure-injection code does not need to race against completion.
        """
        if self.done or self._defunct:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self.sim._schedule(0, self._step_throw, Interrupted(cause))

    def kill(self) -> None:
        """Terminate the process without running any more of its code.

        Unlike :meth:`interrupt`, the generator gets no chance to clean up
        via ``except``/``finally`` blocks running simulation waits; used to
        model hard crashes.  The done event fails with ``Interrupted``.
        """
        if self.done or self._defunct:
            return
        self._defunct = True
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self.gen.close()
        self.done_event.fail(Interrupted("killed"))

    # -- kernel plumbing --------------------------------------------------

    def _start(self) -> None:
        self.sim._schedule(0, self._step_send, None)

    def _resume(self, event: Event) -> None:
        # Called when an event this process waits on completes.
        self._waiting_on = None
        if event._exc is not None:
            self._step_throw(event._exc)
        else:
            self._step_send(event._value)

    def _step_send(self, value: Any) -> None:
        if self._defunct:
            return
        sim = self.sim
        prev_ctx = sim.trace_context
        sim.trace_context = self.ctx
        try:
            try:
                yielded = self.gen.send(value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except Interrupted as exc:
                self._finish(None, exc)
                return
            except Exception as exc:
                self._finish(None, exc)
                return
            self._wait_on(yielded)
        finally:
            # The generator may have re-activated a different context
            # (e.g. a client starting a new per-request trace): keep it.
            self.ctx = sim.trace_context
            sim.trace_context = prev_ctx

    def _step_throw(self, exc: BaseException) -> None:
        if self._defunct or self.done:
            return
        sim = self.sim
        prev_ctx = sim.trace_context
        sim.trace_context = self.ctx
        try:
            try:
                yielded = self.gen.throw(exc)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except Interrupted as caught:
                self._finish(None, caught)
                return
            except Exception as caught:
                self._finish(None, caught)
                return
            self._wait_on(yielded)
        finally:
            self.ctx = sim.trace_context
            sim.trace_context = prev_ctx

    def _wait_on(self, yielded: Any) -> None:
        if type(yielded) is not Timeout:
            # Timeouts dominate yields; everything else takes the slow
            # type checks (Process join, other Event subclasses, junk).
            if isinstance(yielded, Process):
                yielded = yielded.done_event
            if not isinstance(yielded, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded {yielded!r}; processes may "
                    "only yield Event, Timeout, or Process objects"
                )
                self.gen.close()
                self._finish(None, err)
                return
        self._waiting_on = yielded
        yielded._add_waiter(self)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self._defunct = True
        if exc is None:
            self.done_event.trigger(value)
            return
        had_waiters = bool(self.done_event._waiters)
        self.done_event.fail(exc)
        if not had_waiters and not isinstance(exc, Interrupted):
            # Nobody observed a genuine crash: abort the simulation rather
            # than fail silently.  Uncaught *interrupts* are deliberate
            # failure injection and simply terminate the process.
            self.sim._crash(self, exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} pid={self.pid} {state}>"


class Simulator:
    """The event loop: a virtual clock plus an event queue of callbacks.

    Time is a float in **milliseconds**, matching the units the paper
    reports.  All state in the simulated world must be mutated from within
    scheduled callbacks or processes so that ordering stays deterministic.
    """

    def __init__(self):
        self.now: float = 0.0
        #: Dispatched-callback counter: the numerator of the ledger's
        #: ``events_per_req``.  Incremented once per executed entry.
        self.events_dispatched: int = 0
        # Calendar queue: zero-delay entries go to the FIFO `_imm` (their
        # `when` is always the current clock, so FIFO append order IS
        # (when, seq) order); timed entries land in
        # `_buckets[when // _BUCKET_MS]`, plain unsorted lists, tracked by
        # the small `_bucket_heap` of bucket indices.  A bucket is
        # heapified only when it becomes the current bucket `_cur`; late
        # inserts into the current bucket pay a single heappush.
        self._imm: deque[tuple[float, int, Any, Callable, tuple]] = deque()
        self._buckets: dict[int, list] = {}
        self._bucket_heap: list[int] = []
        self._cur: list[tuple[float, int, Any, Callable, tuple]] = []
        self._cur_idx: int = -1
        self._seq = itertools.count()
        self._crashed: Optional[tuple[Process, BaseException]] = None
        self._running = False
        #: The installed trace collector.  NOOP by default — experiments
        #: that want tracing install a ``repro.obs.TraceCollector`` before
        #: building any component.  Collectors never schedule events or
        #: draw randomness, so determinism is identical on/off.
        self.obs = NOOP_COLLECTOR
        #: The active trace context.  Saved/restored around every process
        #: step and scheduled callback, so spawns, timeouts, event joins,
        #: and timers all inherit the context of the code that created
        #: them (None whenever tracing is disabled).
        self.trace_context = None

    # -- construction helpers ---------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first of several events."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for all of several events."""
        return AllOf(self, events)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator and return its handle."""
        proc = Process(self, gen, name)
        proc._start()
        return proc

    def spawn_in_dispatch(self, gen: Generator, name: str = "") -> Process:
        """Start a process whose first step runs here, inside the caller's
        own queue entry, not from the queue.  For an entry that *is* the
        wake-up (a message delivery starting its handler, an open-loop
        arrival starting its request) or a fire-and-forget child (an LVI
        server's unlock record, submitted as it releases its locks), and a
        process no one will join: no one can have joined it yet, so an
        exception escaping that step aborts the run, exactly as an unjoined
        :meth:`spawn` would.
        Everything else uses :meth:`spawn`."""
        proc = Process(self, gen, name)
        proc._step_send(None)
        return proc

    def schedule(self, delay: float, fn: Callable, *args: Any) -> "TimerHandle":
        """Run a plain callback ``delay`` ms from now; returns a cancellable
        handle.  Used for lightweight timers (e.g. write-intent expiry).

        Cancellation is lazy and O(1) (see :class:`TimerHandle`): the entry
        is dropped unseen when its calendar bucket is promoted, or fires as
        a no-op if that bucket is already the current one."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        handle = TimerHandle(fn, args)
        self._schedule(delay, handle)
        return handle

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None, until_event: Optional[Event] = None) -> float:
        """Execute events until the queue drains, the clock passes
        ``until``, or ``until_event`` triggers.

        Returns the final virtual time.  Raises :class:`SimulationError` if
        any process died with an exception no other process observed.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        dispatched = 0
        try:
            # Locals hoisted: every name touched per iteration is either a
            # local or a single attribute load on `self`.
            imm = self._imm
            heappop = heapq.heappop
            while True:
                # Checked before looking for a next entry: when the entry
                # that triggered the event was the last one, the clock
                # stays at that instant instead of jumping to `until`.
                if until_event is not None and until_event._done:
                    break
                if imm:
                    # All `_imm` entries fire at the current instant; the
                    # timed queue may hold an entry for the same instant
                    # scheduled *earlier* (a timer armed in the past whose
                    # time has come) — global (when, seq) order then pops
                    # the timed entry first.
                    entry = imm[0]
                    if until is not None and entry[0] > until:
                        # Only reachable when run() is called with `until`
                        # already in the past (imm entries fire at `now`):
                        # leave the entry queued.
                        self.now = until
                        break
                    top = self._cur
                    if not top:
                        # Only a bucket the clock has reached can hold such
                        # an entry; later ones stay unpromoted, so timers
                        # cancelled in them can still be purged.
                        pending = self._bucket_heap
                        if pending and pending[0] * _BUCKET_MS <= entry[0]:
                            self._promote_bucket()
                            top = self._cur
                    if top and top[0][0] == entry[0] and top[0][1] < entry[1]:
                        entry = heappop(top)
                    else:
                        imm.popleft()
                else:
                    cur = self._cur
                    while not cur and self._bucket_heap:
                        # A bucket holding only cancelled timers purges to
                        # empty: keep promoting.
                        self._promote_bucket()
                        cur = self._cur
                    if not cur:
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    entry = cur[0]
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    heappop(cur)
                self.now = entry[0]
                self.trace_context = entry[2]
                try:
                    entry[3](*entry[4])
                finally:
                    self.trace_context = None
                dispatched += 1
                if self._crashed is not None:
                    proc, exc = self._crashed
                    self._crashed = None
                    raise SimulationError(
                        f"process {proc.name!r} died at t={self.now:.3f}: {exc!r}"
                    ) from exc
        finally:
            self.events_dispatched += dispatched
            self._running = False
        return self.now

    def run_process(self, gen: Generator, name: str = "", until: Optional[float] = None) -> Any:
        """Spawn a process, run the simulation until it finishes (or the
        deadline passes), and return its result.

        Execution stops as soon as the process completes, even if other
        periodic activity (heartbeats, timers) would keep the event queue
        non-empty forever.
        """
        proc = self.spawn(gen, name)
        self.run(until=until, until_event=proc.done_event)
        if not proc.done:
            raise SimulationError(f"process {proc.name!r} did not finish by t={self.now}")
        return proc.result

    # -- kernel internals ---------------------------------------------------

    def _promote_bucket(self) -> None:
        """Make the earliest pending bucket the current one, minus the
        timers cancelled while it waited (they are never dispatched; the
        result may be empty).  Entries are full (when, seq, ...) tuples, so
        heapifying the bucket's list restores exact global order within
        it; seq uniqueness guarantees comparisons never reach the
        unorderable ctx/fn payload."""
        idx = heapq.heappop(self._bucket_heap)
        cur = [
            entry for entry in self._buckets.pop(idx)
            if not (type(entry[3]) is TimerHandle and entry[3].cancelled)
        ]
        heapq.heapify(cur)
        self._cur = cur
        self._cur_idx = idx

    def _schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        # Callbacks carry the trace context active at scheduling time, so
        # timers (e.g. intent expiry) fire attributed to the invocation
        # that armed them.  The seq tiebreaker keeps queue ordering — and
        # therefore determinism — independent of the ctx payload.
        if delay == 0.0:
            self._imm.append((self.now, next(self._seq), self.trace_context, fn, args))
            return
        when = self.now + delay
        entry = (when, next(self._seq), self.trace_context, fn, args)
        idx = int(when // _BUCKET_MS)
        if idx <= self._cur_idx:
            heapq.heappush(self._cur, entry)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heapq.heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)

    def _schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """:meth:`_schedule` at the absolute instant ``when`` (not before
        now), in the same global (when, seq) order.  For an entry whose
        instant the caller holds as a sum of its own, such as a held
        message's ``sent_at + one_way``: ``now + (when - now)`` can miss
        ``when`` by an ulp."""
        if when < self.now:
            raise ValueError(f"instant {when} is before now ({self.now})")
        # The insertion below is also inlined in _schedule, the hottest
        # call in the kernel: delegating to this method made it ~45% slower.
        entry = (when, next(self._seq), self.trace_context, fn, args)
        idx = int(when // _BUCKET_MS)
        if idx <= self._cur_idx:
            heapq.heappush(self._cur, entry)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heapq.heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)

    def _schedule_resume(self, proc: Process, event: Event) -> None:
        # The hottest schedule in the kernel (every wake-up of a process
        # waiting on a triggered event), hence the inlined zero-delay path.
        self._imm.append(
            (self.now, next(self._seq), self.trace_context, proc._resume, (event,))
        )

    def _crash(self, proc: Process, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = (proc, exc)


class TimerHandle:
    """Cancellable handle returned by :meth:`Simulator.schedule`; also the
    callable the queue entry runs.

    Cancellation is *lazy*: :meth:`cancel` flips a flag and drops the
    callback and its arguments, so the tombstone left in the queue holds
    nothing (a long deadline cancelled early keeps no reply alive, as with
    asyncio's ``TimerHandle.cancel``).  An entry still in a future calendar
    bucket is dropped when that bucket is promoted and is never dispatched;
    one already in the current bucket pops as a no-op.  O(1) cancel, no
    queue surgery, and the dispatch order of live entries is unaffected.
    """

    __slots__ = ("_fn", "_args", "cancelled", "fired")

    def __init__(self, fn: Callable, args: tuple):
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running if it has not fired yet, and
        release it and its arguments."""
        self.cancelled = True
        self._fn = None
        self._args = ()

    def __call__(self) -> None:
        if self.cancelled:
            return
        self.fired = True
        self._fn(*self._args)
