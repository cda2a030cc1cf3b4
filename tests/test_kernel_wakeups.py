"""The kernel's wake-up contract (``repro.sim.core`` docstring): what costs
a dispatch and what does not, plus the same-instant orders that must not
move when the cost does.

``Simulator.events_dispatched`` counts executed queue entries, so every
"costs N dispatches" below is an exact count.
"""

import gc
import random
import weakref
from types import SimpleNamespace

import pytest

from repro.core.messages import LVIRequest
from repro.mesh import CacheMesh, MeshSpec
from repro.sim import (
    Metrics,
    Network,
    Process,
    RandomStreams,
    Region,
    RequestBatcher,
    RpcTimeout,
    SimulationError,
    Simulator,
    paper_latency_table,
)
from repro.storage.locks import LockManager
from repro.workloads import OpenLoopClient

from conftest import build_counter_deployment


@pytest.fixture
def sim():
    return Simulator()


class TestTimeoutWakesItsWaiter:
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_n_timeouts_cost_n_plus_one_dispatches(self, sim, n):
        def proc():
            for _ in range(n):
                yield sim.timeout(3.0)

        sim.spawn(proc())
        assert sim.run() == 3.0 * n
        assert sim.events_dispatched == n + 1  # the spawn, then one per timeout

    def test_same_instant_order_is_arming_order(self, sim):
        order = []

        def waiter(label, delay, then=None):
            yield sim.timeout(delay)
            order.append(label)
            if then is not None:
                sim.schedule(0.0, order.append, then)

        sim.spawn(waiter("first", 10.0, then="first+imm"))
        sim.spawn(waiter("second", 10.0))
        sim.run()
        # The second timeout was armed before "first" scheduled its
        # zero-delay callback, so global (when, seq) order runs it first.
        assert order == ["first", "second", "first+imm"]

    def test_every_waiter_of_one_timeout_resumes_in_waiting_order(self, sim):
        order = []
        shared = sim.timeout(5.0)

        def waiter(label):
            yield shared
            order.append((sim.now, label))

        for label in "abc":
            sim.spawn(waiter(label))
        sim.run()
        assert order == [(5.0, "a"), (5.0, "b"), (5.0, "c")]
        assert sim.events_dispatched == 3 + 1  # three spawns, one timeout entry

    def test_waiting_on_an_expired_timeout_still_resumes(self, sim):
        def proc():
            t = sim.timeout(1.0)
            yield sim.timeout(2.0)
            assert t.triggered
            return (yield t), sim.now

        sim.timeout(1.0, value="x")
        assert sim.run_process(proc()) == (None, 2.0)


class TestCompositesCompleteWithTheirDecidingChild:
    def test_any_of_completes_in_the_dispatch_that_triggers_the_child(self, sim):
        ev = sim.event()
        composite = sim.any_of([ev, sim.timeout(50.0)])
        seen = []

        def fire():
            ev.trigger("v")
            seen.append((composite.triggered, composite.value))

        sim.schedule(1.0, fire)
        sim.run(until=2.0)
        assert seen == [(True, {ev: "v"})]

    def test_any_of_decided_by_a_timeout_costs_no_forwarding_hop(self, sim):
        ev = sim.event()

        def proc():
            to = sim.timeout(5.0, value="late")
            first = yield sim.any_of([ev, to])
            return first == {to: "late"}, sim.now

        assert sim.run_process(proc()) == (True, 5.0)
        # spawn, the timeout's entry (which completes the composite), and
        # the resume of the process waiting on the composite.
        assert sim.events_dispatched == 3

    def test_all_of_completes_with_its_last_child(self, sim):
        a, b = sim.event(), sim.event()
        composite = sim.all_of([a, b])
        seen = []

        def fire(ev, value):
            ev.trigger(value)
            seen.append(composite.triggered)

        sim.schedule(1.0, fire, a, 1)
        sim.schedule(2.0, fire, b, 2)
        sim.run()
        assert seen == [False, True]
        assert composite.value == {a: 1, b: 2}

    @pytest.mark.parametrize("kind", ["any_of", "all_of"])
    def test_a_failing_child_fails_the_composite(self, sim, kind):
        good, bad = sim.event(), sim.event()

        def proc():
            try:
                yield getattr(sim, kind)([good, bad])
            except KeyError as exc:
                return exc.args[0], sim.now

        sim.schedule(4.0, bad.fail, KeyError("boom"))
        assert sim.run_process(proc()) == ("boom", 4.0)

    def test_any_of_accepts_an_already_completed_child(self, sim):
        done = sim.event().trigger("early")
        pending = sim.event()
        composite = sim.any_of([done, pending])
        assert composite.triggered and composite.value == {done: "early"}

        def proc():
            return (yield composite)

        assert sim.run_process(proc()) == {done: "early"}


class TestCancelledTimers:
    def test_cancelled_in_a_future_bucket_is_never_dispatched(self, sim):
        fired = []
        far = sim.schedule(200.0, fired.append, "far")  # > 64 ms: two buckets on
        sim.schedule(1.0, far.cancel)
        sim.schedule(2.0, fired.append, "near")
        assert sim.run() == 2.0  # the clock never visits t=200
        assert fired == ["near"]
        assert sim.events_dispatched == 2
        assert not far.fired

    def test_cancelled_in_the_current_bucket_fires_as_a_noop(self, sim):
        fired = []
        soon = sim.schedule(3.0, fired.append, "soon")
        sim.schedule(1.0, soon.cancel)  # bucket 0 is already current at t=1
        assert sim.run() == 3.0
        assert fired == []
        assert sim.events_dispatched == 2
        assert not soon.fired

    def test_cancel_releases_what_the_callback_holds(self, sim):
        # The tombstone stays queued in its future bucket, but it holds
        # neither the callback nor its arguments once cancelled.
        class Payload:
            pass

        held = Payload()
        ref = weakref.ref(held)
        far = sim.schedule(200.0, lambda payload: None, held)
        near = sim.schedule(1.0, lambda: (held,))  # a closure over it too
        del held
        assert ref() is not None
        far.cancel()
        near.cancel()
        gc.collect()
        assert ref() is None
        # Neither bucket was promoted yet: both entries purge unseen.
        assert sim.run() == 0.0 and sim.events_dispatched == 0

    def test_released_tombstone_in_the_current_bucket_still_costs_its_dispatch(self, sim):
        fired = []
        soon = sim.schedule(3.0, fired.append, "soon")
        sim.schedule(1.0, soon.cancel)
        sim.schedule(3.0, fired.append, "after")
        assert sim.run() == 3.0
        assert fired == ["after"]
        assert sim.events_dispatched == 3  # cancel, tombstone no-op, "after"
        assert soon.cancelled and not soon.fired

    def test_cancel_after_firing_is_harmless(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        handle.cancel()
        sim.run()
        assert fired == ["x"] and handle.fired


class TestRunUntilEvent:
    """``run(until=..., until_event=...)`` stops at the instant the event
    triggered, also when nothing (or only cancelled timers) is left."""

    def test_queue_drained_by_the_triggering_entry(self, sim):
        def proc():
            yield sim.timeout(5.0)
            return "done"

        assert sim.run_process(proc(), until=1_000.0) == "done"
        assert sim.now == 5.0

    def test_only_purged_timers_remain(self, sim):
        def proc():
            timers = [sim.schedule(100.0 * k, lambda: None) for k in (1, 2, 3)]
            yield sim.timeout(5.0)
            for t in timers:
                t.cancel()
            return "done"

        assert sim.run_process(proc(), until=1_000.0) == "done"
        assert sim.now == 5.0
        # Draining the rest purges three buckets to empty, dispatches
        # nothing, and then honours the horizon.
        before = sim.events_dispatched
        assert sim.run(until=1_000.0) == 1_000.0
        assert sim.events_dispatched == before


class TestGrantedLockCostsNothing:
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_n_uncontended_locks_dispatch_nothing(self, sim, n):
        locks = LockManager(sim)
        keys = [("t", f"k{i}") for i in range(n)]

        def proc():
            return (yield from locks.acquire_all("a", keys[:1], keys[1:]))

        assert sim.run_process(proc()) == n
        assert sim.events_dispatched == 1  # the spawn alone
        assert len(locks.held_by("a")) == n

    def test_one_contended_lock_costs_exactly_its_grant(self, sim):
        locks = LockManager(sim)
        free, hot = ("t", "a-free"), ("t", "b-hot")
        granted_at = []

        def holder():
            yield from locks.acquire_all("h", (), [hot])
            yield sim.timeout(5.0)
            locks.release_all("h")

        def waiter():
            yield from locks.acquire_all("w", [free], [hot])
            granted_at.append(sim.now)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert granted_at == [5.0]
        # Two spawns and the hold timer, then one resume: the grant.
        assert sim.events_dispatched == 3 + 1
        assert locks.contended_acquisitions == 1

    def test_a_double_grant_names_the_event_kind(self, sim):
        locks = LockManager(sim)
        key = ("t", "k")
        sim.run_process(locks.acquire_all("h", (), [key]))
        sim.spawn(locks.acquire_all("w", (), [key]))
        sim.run()
        queued = locks._locks[key].queue[0].event
        locks.release_all("h")
        with pytest.raises(SimulationError, match="'lock' triggered twice"):
            queued.trigger(None)


class TestHandlerStartsAtDelivery:
    """One process per served request, started by the delivery itself.
    CA -> VA is 37 ms one way."""

    @staticmethod
    def _net(sim, handler):
        net = Network(sim, paper_latency_table(), RandomStreams(7))
        net.serve("server", Region.VA, handler)
        net.register("client", Region.CA)
        return net

    def test_a_round_trip_costs_deliver_reply_and_resume(self, sim):
        def handler(payload, src):
            return ("echo", payload)
            yield  # a generator that never suspends

        net = self._net(sim, handler)
        assert sim.run_process(net.call("client", "server", "x")) == ("echo", "x")
        assert sim.now == 74.0
        # The caller's spawn, then the trip: the request's delivery and the
        # reply's, which resumes the caller in its own entry.
        assert sim.events_dispatched == 1 + 2

    def test_a_handler_raising_in_its_first_step_fails_the_reply(self, sim):
        def handler(payload, src):
            raise KeyError("boom")
            yield

        net = self._net(sim, handler)

        def client():
            try:
                yield from net.call("client", "server", "x")
            except KeyError as exc:
                return exc.args[0], sim.now

        # The in-dispatch first step has no joiner; the handler process
        # itself turns the exception into the failed reply.
        assert sim.run_process(client()) == ("boom", 74.0)
        sim.run()  # nothing died unobserved

    def test_a_double_reply_names_the_event_kind(self, sim):
        refs = []
        net = Network(sim, paper_latency_table(), RandomStreams(7))
        net.register_handler("server", Region.VA, lambda wrapped, src: refs.append(wrapped[1]))
        net.register("client", Region.CA)
        sim.spawn(net.call("client", "server", "x"))
        sim.run()
        reply = refs[0]._waiting  # the pending attempt's wait
        reply.trigger("once")
        with pytest.raises(SimulationError, match="'rpc' triggered twice"):
            reply.trigger("twice")

    @pytest.mark.parametrize("crash_first, killed, dropped", [(False, 1, 0), (True, 0, 1)])
    def test_a_crash_in_the_delivery_instant(self, crash_first, killed, dropped):
        """The handler's first step is part of the delivery, so a crash at
        the same instant lands cleanly on one side of it: after it, the
        handler has started under the old incarnation and is fenced at its
        next step; before it, the message finds no endpoint.  (With a
        deferred start the handler began *on the crashed server*, under
        the new incarnation, and ran on unfenced.)"""
        dep = build_counter_deployment()
        sim, net, server = dep.sim, dep.net, dep.server
        rt = dep.runtimes[Region.JP]
        key = ("counters", "c:x")
        req = LVIRequest(
            execution_id="e-1", function_id="t.read", args=("x",),
            read_keys=(key,), write_keys=(), versions={key: 1},
        )
        arrives = net.latency.one_way(Region.JP, server.region)

        def caller():
            try:
                yield from net.call(rt.name, server.name, req, timeout=1_000.0)
            except RpcTimeout:
                return "silence"

        if crash_first:
            sim.schedule(arrives, server.crash)  # armed before the send
        proc = sim.spawn(caller())
        sim.run(until=arrives / 2)
        if not crash_first:
            sim.schedule(arrives - sim.now, server.crash)  # armed after it
        sim.run(until_event=proc.done_event)
        assert proc.result == "silence"
        assert dep.metrics.counter("server.killed_handlers") == killed
        assert net.messages_dropped == dropped


class TestSpawnStaysDeferred:
    def test_a_child_dying_in_its_first_step_reaches_its_joiner(self, sim):
        """``spawn`` must not run the child's first step itself: the child
        would die before its spawner could join it, and an unobserved
        death aborts the simulation."""
        def child():
            raise KeyError("early")
            yield

        def parent():
            try:
                yield sim.spawn(child())
            except KeyError as exc:
                return exc.args[0]

        assert sim.run_process(parent()) == "early"
        assert sim.events_dispatched == 3  # parent start, child start, parent resume


def test_open_loop_client_retains_in_flight_not_issued(sim):
    """A finished request leaves no process behind: ~2000 requests of 10 ms
    at 1000/s keep about ten alive, and the drain is one wait."""
    def invoke(function_id, args):
        yield sim.timeout(10.0)
        return SimpleNamespace(path="stub")

    metrics = Metrics()
    client = OpenLoopClient(
        sim, SimpleNamespace(generate_request=lambda rng: ("f", [])), Region.CA,
        invoke, metrics, random.Random(5), rate_rps=1000.0, duration_ms=2_000.0,
    )
    alive = []

    def census():
        gc.collect()
        alive.append(sum(type(o) is Process for o in gc.get_objects()))

    sim.schedule(1_990.0, census)
    proc = sim.spawn(client.run())
    sim.run()
    issued = metrics.counter("requests.total")
    assert proc.done and issued > 1_500
    assert alive[0] < 50
    # The census; per request its arrival gap (whose entry starts it) and
    # its timer; the last gap (past the deadline), the generator's start,
    # its drain.
    assert sim.events_dispatched == 1 + 2 * issued + 1 + 1 + 1


def _call_through_network(net):
    net.register("client", Region.CA)
    return lambda payload, timeout: net.call("client", "server", payload, timeout=timeout)


def _call_through_batcher(net):
    net.register("client", Region.CA)
    batcher = RequestBatcher(net, "client", window_ms=2.0)
    return lambda payload, timeout: batcher.rpc("server", payload).attempt(timeout)


@pytest.mark.parametrize(
    "make_call, send_delay", [(_call_through_network, 0.0), (_call_through_batcher, 2.0)]
)
class TestRpcDeadlineIsOneCancellableTimer:
    """CA <-> VA is 74 ms round trip; the echo server answers after
    ``service`` ms.  The batcher adds its 2 ms window before sending."""

    @staticmethod
    def _net(sim, service):
        net = Network(sim, paper_latency_table(), RandomStreams(7))

        def handler(payload, src):
            yield sim.timeout(service)
            return ("echo", payload)

        net.serve("server", Region.VA, handler)
        return net

    def test_answered_call_leaves_nothing_at_the_deadline(self, sim, make_call, send_delay):
        call = make_call(self._net(sim, service=1.0))
        answered = sim.run_process(call("x", 500.0))
        assert answered == ("echo", "x")
        assert sim.now == send_delay + 75.0
        before = sim.events_dispatched
        assert sim.run() == send_delay + 75.0  # not t + 500: the timer is gone
        assert sim.events_dispatched == before

    def test_answered_call_keeps_no_response_alive(self, sim, make_call, send_delay):
        # The deadline's tombstone waits ~500 ms in a future bucket; it
        # must not keep the reply (and through it the response) alive.
        class Response:
            pass

        net = Network(sim, paper_latency_table(), RandomStreams(7))

        def handler(payload, src):
            yield sim.timeout(1.0)
            return Response()

        net.serve("server", Region.VA, handler)
        call = make_call(net)
        ref = weakref.ref(sim.run_process(call("x", 500.0)))
        gc.collect()
        assert ref() is None
        assert sim.run() == send_delay + 75.0

    def test_unanswered_call_times_out_at_exactly_the_deadline(self, sim, make_call, send_delay):
        net = self._net(sim, service=1.0)
        call = make_call(net)
        net.partition(Region.CA, Region.VA)

        def client():
            try:
                yield from call("x", 500.0)
            except RpcTimeout as exc:
                return sim.now, str(exc)

        assert sim.run_process(client()) == (
            500.0, "rpc client->server timed out after 500.0 ms"
        )

    def test_reply_after_the_deadline_is_dropped(self, sim, make_call, send_delay):
        call = make_call(self._net(sim, service=300.0))

        def client():
            try:
                yield from call("x", 100.0)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(client()) == 100.0
        # The response lands at t = 374 (+ window) on a reply that already
        # failed; it must be ignored, not "triggered twice".
        assert sim.run() == send_delay + 374.0

    def test_the_deadline_entry_resumes_the_caller(self, sim, make_call, send_delay):
        call = make_call(self._net(sim, service=300.0))

        def client():
            try:
                yield from call("x", 100.0)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(client()) == 100.0
        # The caller's spawn, the batch flush (if any), the request's
        # delivery, then the deadline, whose entry resumes the caller.
        sent = 1 + (send_delay > 0) + 1
        assert sim.events_dispatched == sent + 1
        # The handler's service timer, then the late response, dropped.
        assert sim.run() == send_delay + 374.0
        assert sim.events_dispatched == sent + 1 + 2


class TestFencedHandlerCollection:
    """``server.killed_handlers`` means "resumed after a crash and found
    fenced".  A fenced handler that is never resumed is closed by the
    garbage collector at an arbitrary moment; with callers no longer pinned
    by Timeout/AnyOf plumbing that moment moved, so it must count nothing."""

    def test_closing_a_suspended_fenced_handler_counts_nothing(self):
        dep = build_counter_deployment()
        server, closed = dep.server, []

        def inner():
            try:
                yield dep.sim.event()
            finally:
                closed.append(True)

        guarded = server._guarded(inner())
        next(guarded)
        server._incarnation += 1
        guarded.close()  # what collection does
        assert closed == [True]
        assert dep.metrics.counter("server.killed_handlers") == 0

    def test_resuming_a_fenced_handler_still_counts(self):
        dep = build_counter_deployment()
        server = dep.server

        def inner():
            yield dep.sim.timeout(1.0)
            raise AssertionError("a fenced handler must not run on")

        proc = dep.sim.spawn(server._guarded(inner()))
        dep.sim.run(until=0.5)  # started, suspended on the timeout
        server._incarnation += 1
        dep.sim.run(until_event=proc.done_event)
        assert dep.metrics.counter("server.killed_handlers") == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_n_pop_mesh_ticks_once_per_interval(n):
    """The mesh gossips in rounds of the whole mesh: one timer entry per
    ``gossip_interval_ms`` however many PoPs there are.  Idle links stay
    quiet for ``gossip_timeout_ms``, so the only other entries are the
    first round's heartbeats, one per directed link."""
    sim = Simulator()
    net = Network(sim, paper_latency_table(), RandomStreams(1))
    regions = Region.NEAR_USER[:n]
    spec = MeshSpec(gossip_interval_ms=25.0, gossip_timeout_ms=10_000.0)
    mesh = CacheMesh(sim, net, spec, regions, Metrics())
    for region in regions:
        mesh.make_pop(region)
    mesh.start()
    sim.run(until=1_000.0)
    links = n * (n - 1)
    assert net.messages_sent == links
    assert sim.events_dispatched == 1_000 // 25 + links


def test_plumbing_ratchet_social_closed_loop():
    """Process plumbing per request cannot creep back unnoticed: the
    200-request seed-42 social closed loop on the seed topology dispatched
    30.56 events per request before wake-ups became direct, 18.41 after,
    9.2 once a request stopped paying for granted locks, spawn-then-join
    processes and deferred handler starts, and 8.2 once an RPC reply's
    arrival resumed its caller itself (8 is what it models)."""
    from repro.apps.social import social_media_app
    from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
    from repro.topology import Deployment, TopologySpec

    spec = TopologySpec(seed=42, network_jitter_sigma=PAPER_JITTER_SIGMA)
    app = social_media_app()
    dep = drive_closed_loop(Deployment.build(spec, app=app), app, requests=200)
    requests = dep.metrics.summary("e2e").count
    assert requests == 200
    assert dep.sim.events_dispatched / requests <= 9.0


def test_copies_ratchet_social_closed_loop(monkeypatch):
    """Copies per request cannot creep back unnoticed either: a value is
    copied only at the sandbox boundary (``repro.storage.fastcopy``).  The
    200-request seed-42 social closed loop made 5.87 ``fast_deepcopy`` calls
    per request while every storage crossing copied, and 3.52 once only the
    boundary does; warming the caches, whose shared entries hold the
    store's values, copies nothing (25,000 calls before)."""
    import sys

    from repro.apps.social import social_media_app
    from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
    from repro.storage import NearUserCache, fastcopy
    from repro.topology import Deployment, TopologySpec, deployment

    copies = {"run": 0, "warm": 0}
    phase = ["build"]
    original = fastcopy.fast_deepcopy

    def counted(x):
        if phase[0] in copies:
            copies[phase[0]] += 1
        return original(x)

    # Every importer's binding, as the ledger's probe counts them.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not fastcopy and module is not None:
            if vars(module).get("fast_deepcopy") is original:
                monkeypatch.setattr(module, "fast_deepcopy", counted)
    def warming(step):
        def counted_step(*args):
            phase[0] = "warm"
            try:
                return step(*args)
            finally:
                phase[0] = "build"
        return counted_step

    # Warming is taking the shared snapshot, then handing it to each PoP.
    monkeypatch.setattr(deployment, "_warm_snapshot", warming(deployment._warm_snapshot))
    monkeypatch.setattr(NearUserCache, "warm", warming(NearUserCache.warm))
    spec = TopologySpec(seed=42, network_jitter_sigma=PAPER_JITTER_SIGMA)
    app = social_media_app()
    dep = Deployment.build(spec, app=app)
    phase[0] = "run"
    drive_closed_loop(dep, app, requests=200)
    assert dep.metrics.summary("e2e").count == 200
    assert copies["warm"] == 0
    assert copies["run"] / 200 <= 3.6
