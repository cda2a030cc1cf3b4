"""Differential tests: the calendar-queue scheduler must be observationally
identical to a plain binary heap ordered by global (when, seq).

The production kernel has one queue (``docs/PERFORMANCE.md``): a calendar
of time buckets plus a FIFO lane for zero-delay entries, which drops
cancelled timers unseen when it promotes their bucket.  The reference below
is the obvious implementation — one heap, every entry popped, a cancelled
timer popping as a no-op — patched over ``Simulator`` for the duration of
a test.  Both must execute the same *live* callbacks in the same order at
the same instants and produce the same end-to-end results; they may differ
in ``events_dispatched``, because a purged tombstone is by design not an
event.
"""

import contextlib
import heapq

import pytest

from repro.sim.core import SimulationError, Simulator

from conftest import build_counter_deployment


def _ref_schedule(sim, delay, fn, *args):
    _ref_schedule_at(sim, sim.now + delay, fn, *args)


def _ref_schedule_at(sim, when, fn, *args):
    heap = sim.__dict__.setdefault("_ref_heap", [])
    heapq.heappush(heap, (when, next(sim._seq), sim.trace_context, fn, args))


def _ref_schedule_resume(sim, proc, event):
    _ref_schedule(sim, 0, proc._resume, event)


def _ref_run(sim, until=None, until_event=None):
    heap = sim.__dict__.setdefault("_ref_heap", [])
    while not (until_event is not None and until_event.triggered):
        if not heap or (until is not None and heap[0][0] > until):
            if until is not None and until > sim.now:
                sim.now = until
            break
        sim.now, _seq, sim.trace_context, fn, args = heapq.heappop(heap)
        try:
            fn(*args)
        finally:
            sim.trace_context = None
        sim.events_dispatched += 1
        if sim._crashed is not None:
            proc, exc = sim._crashed
            raise SimulationError(f"process {proc.name!r} died: {exc!r}") from exc
    return sim.now


@contextlib.contextmanager
def reference_heap(monkeypatch):
    """Every Simulator, however it is constructed, runs on the reference
    heap inside this block."""
    with monkeypatch.context() as m:
        m.setattr(Simulator, "_schedule", _ref_schedule)
        m.setattr(Simulator, "_schedule_at", _ref_schedule_at)
        m.setattr(Simulator, "_schedule_resume", _ref_schedule_resume)
        m.setattr(Simulator, "run", _ref_run)
        yield


def _both(monkeypatch, fn):
    """``fn()`` on the reference heap, then on the calendar queue."""
    with reference_heap(monkeypatch):
        heap = fn()
    return heap, fn()


class TestKernelEventOrder:
    """Direct kernel-level equivalence on adversarial schedules."""

    @staticmethod
    def _trace():
        sim = Simulator()
        order = []

        def cb(label):
            order.append((sim.now, label))
            # Same-time insertions from inside a callback: these land in
            # the immediate lane (calendar) or the heap at key (now, seq),
            # and must fire in FIFO order either way.
            if label.startswith("t") and label.endswith("0"):
                sim.schedule(0.0, cb, label + "+imm")

        def proc(i):
            for k in range(5):
                # Collides across processes (same delay buckets) and with
                # the plain timers below; 0-delay hits the immediate lane.
                yield sim.timeout((i % 7) * 8.0)
                order.append((sim.now, f"p{i}.{k}"))

        for i in range(20):
            sim.spawn(proc(i))
        for i in range(30):
            # Multiples of 16 ms straddle the 32 ms bucket width, so ties
            # occur at bucket boundaries and across bucket promotions.
            sim.schedule(float((i * 16) % 96), cb, f"t{i}")
        for i in range(12):
            # Absolute instants on the same grid, armed later: they tie
            # with the timers above and the processes' timeouts.
            sim._schedule_at(float((i * 24) % 96), cb, f"a{i}")

        def arm_from_inside():
            # Into the current bucket and into a later one, mid-run.
            sim._schedule_at(sim.now + 8.0, cb, "a-cur")
            sim._schedule_at(sim.now + 40.0, cb, "a-later")

        sim.schedule(16.0, arm_from_inside)
        sim.run()
        return order

    def test_event_order_identical(self, monkeypatch):
        heap, calendar = _both(monkeypatch, self._trace)
        assert heap == calendar
        assert len(heap) > 100  # the scenario actually exercised ties

    @staticmethod
    def _trace_cancel():
        sim = Simulator()
        fired = []

        def fire(i):
            fired.append((sim.now, i))

        # 25 ms steps: delays 0..100 ms span four 32 ms buckets, so some
        # cancelled timers are purged at promotion (calendar) and some pop
        # as no-ops from the current bucket; the heap pops every one.
        handles = [sim.schedule(float(i % 5) * 25.0, fire, i) for i in range(40)]
        for i in range(0, 40, 3):
            handles[i].cancel()
        sim.schedule(15.0, handles[1].cancel)  # in-flight, current bucket
        sim.schedule(15.0, handles[2].cancel)  # in-flight, a later bucket
        sim.run()
        # The last entry (i=34, 100 ms) is live, so both clocks end on it.
        return sim.now, fired, sim.events_dispatched

    def test_cancel_semantics_identical(self, monkeypatch):
        heap, calendar = _both(monkeypatch, self._trace_cancel)
        assert heap[:2] == calendar[:2]
        assert len(heap[1]) == 40 - 14 - 2
        # The heap dispatched all 42 entries; the calendar never saw the
        # timers cancelled before their bucket was promoted.
        assert heap[2] == 42
        assert calendar[2] < heap[2]

    @staticmethod
    def _trace_until():
        sim = Simulator()
        fired = []
        for i in range(20):
            sim.schedule(float(i) * 7.0, fired.append, i)
        sim.run(until=50.0)
        mid = (sim.now, list(fired))
        sim.run()  # resume past the horizon: nothing may have been lost
        return mid, sim.now, fired

    def test_run_until_identical(self, monkeypatch):
        heap, calendar = _both(monkeypatch, self._trace_until)
        assert heap == calendar

    def test_there_is_one_queue(self):
        with pytest.raises(TypeError):
            Simulator(queue="heap")


class TestFig4Equivalence:
    """The paper's closed-loop workload, end to end, under both queues."""

    @staticmethod
    def _fig4():
        from repro.apps.social import social_media_app
        from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
        from repro.topology import Deployment, TopologySpec

        spec = TopologySpec(seed=42, network_jitter_sigma=PAPER_JITTER_SIGMA)
        app = social_media_app()
        dep = drive_closed_loop(Deployment.build(spec, app=app), app, requests=400)
        return {
            "samples": dep.metrics.samples("e2e"),
            "virtual": dep.sim.now,
            "counters": dep.metrics.counters(),
        }

    def test_fig4_identical_under_both_queues(self, monkeypatch):
        heap, calendar = _both(monkeypatch, self._fig4)
        assert heap == calendar
        assert len(heap["samples"]) > 0


class TestChaosEquivalence:
    """A fault plan (drops, duplicates; a Raft node's crash, whose
    followers' acks are queued at absolute instants) under both queues:
    every RNG draw happens in the same order, so verdicts and latencies
    match exactly."""

    @staticmethod
    def _case(monkeypatch, name):
        from repro.faults import builtin_plans, run_chaos_case

        plan = builtin_plans()[name]

        def case():
            return run_chaos_case(plan, seed=7, requests_per_client=10).to_dict()

        return _both(monkeypatch, case)

    def test_flaky_links_identical_under_both_queues(self, monkeypatch):
        heap, calendar = self._case(monkeypatch, "flaky-links")
        assert heap == calendar

    def test_raft_follower_crash_identical_under_both_queues(self, monkeypatch):
        heap, calendar = self._case(monkeypatch, "raft-follower-crash")
        assert heap == calendar


class TestShardedEquivalence:
    """Cross-shard scatter/gather under both queues."""

    @staticmethod
    def _sharded():
        from repro.sim import Region

        dep = build_counter_deployment(shards=2)
        runtime = dep.runtimes[Region.JP]
        results = []
        for i in range(8):
            out = dep.sim.run_process(runtime.invoke("t.bump", [i % 3]))
            results.append((out.result, out.path))
        dep.sim.run(until=dep.sim.now + 3_000.0)
        counters = {
            (s_idx, key): item.value
            for s_idx, store in enumerate(dep.stores)
            for key, item in store.scan("counters")
        }
        return results, counters, dep.sim.now

    def test_sharded_identical_under_both_queues(self, monkeypatch):
        heap, calendar = _both(monkeypatch, self._sharded)
        assert heap == calendar
