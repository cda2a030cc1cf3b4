"""Client-side robustness policies: deterministic retry, retransmission
timeouts and circuit breaking.

Retry schedules are pure functions of the policy knobs plus draws from a
named :class:`~repro.sim.rand.RandomStreams` stream, so two same-seed runs
back off at byte-identical virtual times.  A :class:`RtoEstimator` times
the re-send of a request inside one attempt from the round trips its
destination has answered in.  The circuit breaker implements
the degradation ladder the runtime follows when the near-storage path
keeps failing: speculative -> direct probe -> clean ``UnavailableError``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..errors import FaultConfigError
from ..sim import AnyOf, Event, Metrics, Simulator, Timeout

__all__ = [
    "RetryPolicy",
    "RtoEstimator",
    "CircuitBreaker",
    "AdaptiveLimiter",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a budgeted number
    of attempts.  ``max_attempts`` counts the first try, so 3 means two
    retries."""

    max_attempts: int = 3
    base_backoff_ms: float = 10.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 1_000.0
    jitter_frac: float = 0.2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FaultConfigError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise FaultConfigError("backoff times must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise FaultConfigError(
                f"backoff multiplier must be >= 1: {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_frac < 1.0:
            raise FaultConfigError(f"jitter fraction out of [0, 1): {self.jitter_frac}")

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Build the policy from a :class:`~repro.core.config.RadicalConfig`."""
        return cls(
            max_attempts=config.retry_max_attempts,
            base_backoff_ms=config.retry_base_backoff_ms,
            backoff_multiplier=config.retry_backoff_multiplier,
            max_backoff_ms=config.retry_max_backoff_ms,
            jitter_frac=config.retry_jitter_frac,
        )

    def backoff_ms(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay after failed attempt number ``attempt`` (1-based)."""
        base = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1),
        )
        if rng is None or self.jitter_frac <= 0.0:
            return base
        return base * (1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0))

    def schedule(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full backoff sequence an exhausted RPC would sleep through —
        what the determinism tests compare byte-for-byte."""
        return [self.backoff_ms(a, rng) for a in range(1, self.max_attempts)]


#: RFC 6298's smoothing gains and variance multiplier:
#: RTO = SRTT + K * RTTVAR.
RTO_ALPHA = 1 / 8
RTO_BETA = 1 / 4
RTO_K = 4
#: The floor under the variance term (Linux's ``TCP_RTO_MIN``, applied as
#: Linux applies it): a timeout stays at least this far above the smoothed
#: round trip, so the queueing delay of a busy server, which stretches
#: round trips faster than the smoothing follows them, does not fire
#: re-sends — each would cost that server a request's processing charge.
RTO_MIN_MS = 200.0


class RtoEstimator:
    """When to re-send a call to one destination: RFC 6298's
    retransmission timeout, and the evidence that a call past it was lost
    rather than late.

    :attr:`rto_ms` is None until the first sample — no early re-send to a
    destination never heard from — then SRTT + max(:data:`RTO_MIN_MS`,
    4·RTTVAR); the caller doubles it per expiry within one attempt
    (:meth:`~repro.sim.RpcCall.attempt`).  Per Karn's rule the caller
    samples only a call answered by its only copy: an answer to a re-sent
    call cannot say which copy it belongs to.

    A timeout alone cannot tell a lost message from a queue: when a
    server falls behind, round trips grow faster than any smoothing
    follows them, every call waiting in the queue outlives its timeout,
    and a copy of each would only lengthen the queue.  So an expiry
    re-sends (:meth:`may_resend`) only when the destination's answers say
    the last copy was lost: a call sent after it has been answered (RACK's
    rule, RFC 8985), or nothing at all has been answered since it went
    out (a tail-loss probe; a dead path drops the copy for free).  A
    destination answering only calls sent earlier is working through a
    queue, and the call waits its turn.
    """

    __slots__ = ("srtt_ms", "rttvar_ms", "rto_ms", "answered_sent_at", "answered_at")

    def __init__(self) -> None:
        self.srtt_ms: Optional[float] = None
        self.rttvar_ms = 0.0
        self.rto_ms: Optional[float] = None
        # The latest first send of an answered call, and the latest answer.
        self.answered_sent_at = self.answered_at = -1.0

    def sample(self, rtt_ms: float) -> None:
        """Fold in one measured round trip (RFC 6298 (2.2)-(2.3))."""
        if self.srtt_ms is None:
            self.srtt_ms = rtt_ms
            self.rttvar_ms = rtt_ms / 2
        else:
            self.rttvar_ms = ((1 - RTO_BETA) * self.rttvar_ms
                              + RTO_BETA * abs(self.srtt_ms - rtt_ms))
            self.srtt_ms = (1 - RTO_ALPHA) * self.srtt_ms + RTO_ALPHA * rtt_ms
        self.rto_ms = self.srtt_ms + max(RTO_MIN_MS, RTO_K * self.rttvar_ms)

    def answered(self, first_sent_at: float, at: float) -> None:
        """A call first sent at ``first_sent_at`` was answered at ``at``."""
        self.answered_sent_at = max(self.answered_sent_at, first_sent_at)
        self.answered_at = max(self.answered_at, at)

    def may_resend(self, last_sent_at: float) -> bool:
        """Was the copy sent at ``last_sent_at`` lost, by the answers?"""
        return self.answered_sent_at > last_sent_at or self.answered_at <= last_sent_at


CLOSED = "closed"        # normal operation
OPEN = "open"            # failing fast; no near-storage traffic
HALF_OPEN = "half_open"  # cooldown elapsed; one probe in flight


class CircuitBreaker:
    """Consecutive-failure breaker over the runtime's near-storage calls.

    A call feeds it once: a failure when it ends unavailable, a success
    when it is answered — however many attempts either took, so a
    half-open probe is judged by its call, not by its first attempt.

    * CLOSED: requests flow; ``failure_threshold`` consecutive failures
      trip the breaker.
    * OPEN: :meth:`allow` fails fast until ``cooldown_ms`` of virtual time
      has elapsed, then admits exactly one probe (-> HALF_OPEN).
    * HALF_OPEN: the probe's success closes the breaker; its failure
      re-opens it and restarts the cooldown.
    """

    def __init__(
        self,
        sim: Simulator,
        failure_threshold: int = 5,
        cooldown_ms: float = 5_000.0,
        metrics: Optional[Metrics] = None,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise FaultConfigError(f"failure threshold must be >= 1: {failure_threshold}")
        if cooldown_ms < 0:
            raise FaultConfigError(f"cooldown must be non-negative: {cooldown_ms}")
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.metrics = metrics or Metrics()
        self.name = name
        self.state = CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None

    def allow(self) -> bool:
        """May a request proceed right now?  Transitions OPEN -> HALF_OPEN
        (admitting the single probe) once the cooldown has elapsed."""
        if self.state == CLOSED:
            return True
        if (
            self.state == OPEN
            and self.sim.now - self.opened_at >= self.cooldown_ms
        ):
            self.state = HALF_OPEN
            self._note("breaker.half_open")
            return True
        return False

    @property
    def probing(self) -> bool:
        return self.state == HALF_OPEN

    def record_success(self) -> None:
        if self.state != CLOSED:
            self._note("breaker.closed")
        self.state = CLOSED
        self.failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == HALF_OPEN:
            self._trip()  # the probe failed: back to fail-fast
        elif self.state == CLOSED and self.failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = OPEN
        self.opened_at = self.sim.now
        self._note("breaker.open")

    def _note(self, what: str) -> None:
        self.metrics.incr(what)
        obs = self.sim.obs
        if obs.enabled:
            obs.event(what, breaker=self.name, failures=self.failures)


class AdaptiveLimiter:
    """AIMD in-flight limiter over the runtime's near-storage invocations.

    The window starts at ``max_inflight`` (its permanent ceiling), halves —
    at most once per ``decrease_cooldown_ms`` of virtual time, so one burst
    of shed replies counts once — whenever the server sheds a request
    (:meth:`on_overload`), and creeps back up by one slot per ``window``
    consecutive successes (:meth:`on_success`).  The floor is 1: the
    limiter never blocks the half-open probe the circuit breaker relies on
    to recover.

    :meth:`acquire` is a process generator: it waits (FIFO) for a slot or
    for ``deadline_at``, whichever comes first, and returns ``True`` only
    when a slot was actually taken.  The wait queue itself is bounded by
    ``max_queue`` (default: the ceiling) — an arrival that finds the queue
    full is rejected *immediately*, because an unbounded client-side queue
    just moves the metastable backlog from the server into the limiter:
    after a surge ends, queued work would keep the region saturated long
    past the window.  Callers must :meth:`release` exactly once per
    successful acquire.
    """

    def __init__(
        self,
        sim: Simulator,
        max_inflight: int,
        decrease_cooldown_ms: float = 200.0,
        max_queue: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        name: str = "",
    ):
        if max_inflight < 1:
            raise FaultConfigError(f"max_inflight must be >= 1: {max_inflight}")
        if decrease_cooldown_ms < 0:
            raise FaultConfigError(
                f"decrease cooldown must be non-negative: {decrease_cooldown_ms}"
            )
        if max_queue is not None and max_queue < 0:
            raise FaultConfigError(f"max_queue must be non-negative: {max_queue}")
        self.sim = sim
        self.ceiling = max_inflight
        self.decrease_cooldown_ms = decrease_cooldown_ms
        self.max_queue = max_inflight if max_queue is None else max_queue
        self.metrics = metrics or Metrics()
        self.name = name
        self._window = float(max_inflight)
        self.inflight = 0
        self._successes = 0
        self._last_decrease: Optional[float] = None
        self._waiters: Deque[Event] = deque()

    @property
    def window(self) -> int:
        """The current in-flight limit (AIMD window, floored at 1)."""
        return max(1, int(self._window))

    def acquire(self, deadline_at: float):
        """Process generator: take an in-flight slot, or give up when the
        deadline passes.  Returns ``True`` iff a slot was acquired."""
        while True:
            if self.inflight < self.window:
                self.inflight += 1
                return True
            remaining = deadline_at - self.sim.now
            if remaining <= 0:
                return False
            if len(self._waiters) >= self.max_queue:
                self._note("limiter.reject")
                return False
            slot = Event(self.sim, name="limiter.slot")
            self._waiters.append(slot)
            yield AnyOf(self.sim, [slot, Timeout(self.sim, remaining)])
            if not slot.triggered:
                try:
                    self._waiters.remove(slot)
                except ValueError:
                    pass
                return False
            # Woken with a reserved slot: the releaser already counted us.
            return True

    def release(self) -> None:
        """Return a slot; hands it straight to the oldest waiter if the
        window still has room for it."""
        if self.inflight <= 0:
            raise FaultConfigError("limiter release without acquire")
        self.inflight -= 1
        while self._waiters and self.inflight < self.window:
            slot = self._waiters.popleft()
            self.inflight += 1  # reserve for the waiter before it runs
            slot.trigger(True)

    def on_success(self) -> None:
        """Additive increase: one extra slot per full window of successes."""
        self._successes += 1
        if self._successes >= self.window and self._window < self.ceiling:
            self._successes = 0
            self._window = min(float(self.ceiling), self._window + 1.0)
            self._note("limiter.grow")

    def on_overload(self) -> None:
        """Multiplicative decrease on a shed reply, rate-limited so one
        overloaded burst shrinks the window once, not once per reply."""
        self._successes = 0
        now = self.sim.now
        if (
            self._last_decrease is not None
            and now - self._last_decrease < self.decrease_cooldown_ms
        ):
            return
        self._last_decrease = now
        self._window = max(1.0, self._window / 2.0)
        self._note("limiter.shrink")

    def _note(self, what: str) -> None:
        self.metrics.incr(what)
        self.metrics.record_tagged("limiter.window", float(self.window), limiter=self.name)
        obs = self.sim.obs
        if obs.enabled:
            obs.event(what, limiter=self.name, window=self.window, inflight=self.inflight)
