"""Direct tests for the workload clients (closed- and open-loop)."""

import pytest

from repro.apps import social_media_app
from repro.consistency import HistoryRecorder
from repro.sim import Metrics, RandomStreams, Simulator
from repro.workloads import ClosedLoopClient, OpenLoopClient, run_clients, run_open_loop


def make_invoker(sim, latency_ms=10.0):
    """A stub deployment: fixed-latency invocations with dummy outcomes."""
    calls = []

    class Outcome:
        result = "ok"
        path = "stub"
        read_versions = {("t", "k"): 1}
        write_versions = {}

    def invoke(function_id, args):
        def flow():
            calls.append((function_id, list(args)))
            yield sim.timeout(latency_ms)
            return Outcome()

        return flow()

    return invoke, calls


class TestClosedLoop:
    def test_issues_exact_request_count(self):
        sim = Simulator()
        metrics = Metrics()
        invoke, calls = make_invoker(sim)
        client = ClosedLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=metrics, rng=RandomStreams(1).stream("w"), requests=25,
        )
        run_clients(sim, [client])
        assert len(calls) == 25
        assert metrics.counter("requests.total") == 25

    def test_latency_includes_client_hop(self):
        sim = Simulator()
        metrics = Metrics()
        invoke, _calls = make_invoker(sim, latency_ms=10.0)
        client = ClosedLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=metrics, rng=RandomStreams(1).stream("w"), requests=5,
            client_app_rtt_ms=4.0,
        )
        run_clients(sim, [client])
        assert metrics.summary("e2e").median == pytest.approx(14.0)

    def test_per_region_and_per_function_labels(self):
        sim = Simulator()
        metrics = Metrics()
        invoke, calls = make_invoker(sim)
        client = ClosedLoopClient(
            sim=sim, app=social_media_app(), region="de", invoke=invoke,
            metrics=metrics, rng=RandomStreams(2).stream("w"), requests=40,
        )
        run_clients(sim, [client])
        assert metrics.summary("e2e.region.de").count == 40
        assert metrics.has("e2e.fn.social.timeline")

    def test_history_recorded_when_provided(self):
        sim = Simulator()
        metrics = Metrics()
        history = HistoryRecorder()
        invoke, _calls = make_invoker(sim)
        client = ClosedLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=metrics, rng=RandomStreams(1).stream("w"), requests=7,
            history=history,
        )
        run_clients(sim, [client])
        assert len(history) == 7
        assert all(r.responded_at > r.invoked_at for r in history.records())

    def test_think_time_spaces_requests(self):
        sim = Simulator()
        fast_metrics, slow_metrics = Metrics(), Metrics()
        invoke, _ = make_invoker(sim)
        fast = ClosedLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=fast_metrics, rng=RandomStreams(1).stream("w"), requests=10,
        )
        run_clients(sim, [fast])
        t_fast = sim.now
        sim2 = Simulator()
        invoke2, _ = make_invoker(sim2)
        slow = ClosedLoopClient(
            sim=sim2, app=social_media_app(), region="jp", invoke=invoke2,
            metrics=slow_metrics, rng=RandomStreams(1).stream("w"), requests=10,
            think_time_ms=50.0,
        )
        run_clients(sim2, [slow])
        assert sim2.now > t_fast

    def test_client_failure_surfaces(self):
        sim = Simulator()

        def invoke(function_id, args):
            def flow():
                yield sim.timeout(1.0)
                raise RuntimeError("app bug")

            return flow()

        client = ClosedLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=Metrics(), rng=RandomStreams(1).stream("w"), requests=3,
        )
        with pytest.raises(Exception, match="app bug"):
            run_clients(sim, [client])


class TestOpenLoop:
    def test_request_count_tracks_rate(self):
        sim = Simulator()
        metrics = Metrics()
        invoke, calls = make_invoker(sim, latency_ms=5.0)
        client = OpenLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=metrics, rng=RandomStreams(3).stream("w"),
            rate_rps=100.0, duration_ms=5000.0,
        )
        proc = sim.spawn(client.run())
        sim.run(until_event=proc.done_event)
        # Expect ~500 requests (100 rps for 5 virtual seconds).
        assert 380 <= len(calls) <= 620

    def test_arrivals_do_not_wait_for_responses(self):
        # With a 1000 ms invocation latency and a 100 rps rate, a closed
        # loop could do ~5 requests in 5 s; the open loop keeps emitting.
        sim = Simulator()
        metrics = Metrics()
        invoke, calls = make_invoker(sim, latency_ms=1000.0)
        client = OpenLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=metrics, rng=RandomStreams(3).stream("w"),
            rate_rps=100.0, duration_ms=5000.0,
        )
        proc = sim.spawn(client.run())
        sim.run(until_event=proc.done_event)
        assert len(calls) > 300

    def test_waits_for_in_flight_before_finishing(self):
        sim = Simulator()
        metrics = Metrics()
        invoke, calls = make_invoker(sim, latency_ms=500.0)
        client = OpenLoopClient(
            sim=sim, app=social_media_app(), region="jp", invoke=invoke,
            metrics=metrics, rng=RandomStreams(3).stream("w"),
            rate_rps=20.0, duration_ms=1000.0,
        )
        proc = sim.spawn(client.run())
        sim.run(until_event=proc.done_event)
        # All issued requests completed and were recorded.
        assert metrics.counter("requests.total") == len(calls)
        assert sim.now >= 1000.0


class TestRunOpenLoop:
    """``run_open_loop``: the one open-loop drive every sweep goes through."""

    @staticmethod
    def _client(sim, invoke, region="jp", **kw):
        return OpenLoopClient(
            sim=sim, app=social_media_app(), region=region, invoke=invoke,
            metrics=Metrics(), rng=RandomStreams(3).stream(f"w.{region}"),
            rate_rps=100.0, duration_ms=100.0, **kw,
        )

    def test_returns_the_makespan_and_leaves_the_drain_to_the_caller(self):
        sim = Simulator()
        invoke, calls = make_invoker(sim, latency_ms=500.0)
        sim.schedule(5_000.0, lambda: None)  # a followup timer, say
        makespan = run_open_loop(
            sim, [self._client(sim, invoke, "jp"), self._client(sim, invoke, "ca")],
            name="probe",
        )
        # Generation window plus the backlog: the last request's reply.
        assert makespan == sim.now
        assert 500.0 < makespan < 700.0 and calls

    @staticmethod
    def _first_call_fails_late(sim):
        """Every request takes 500 ms; the first one then raises."""
        stub, calls = make_invoker(sim, latency_ms=500.0)

        def invoke(function_id, args):
            if calls:
                return stub(function_id, args)

            def flow():
                calls.append((function_id, list(args)))
                yield sim.timeout(500.0)
                raise RuntimeError("app bug")

            return flow()

        return invoke, calls

    def test_one_late_failure_is_not_swallowed(self):
        # The request that dies is the one its (finished) generator is
        # waiting on, every other request completes: run() returns
        # normally and only the dead client's result holds the failure.  A
        # sweep that never read it published a partial distribution.
        sim = Simulator()
        invoke, calls = self._first_call_fails_late(sim)
        with pytest.raises(RuntimeError, match="app bug"):
            run_open_loop(sim, [self._client(sim, invoke)], name="probe")
        assert len(calls) > 1

    def test_a_dead_client_is_reported_not_the_clients_it_cut_short(self):
        sim = Simulator()
        slow, _ = make_invoker(sim, latency_ms=5_000.0)
        failing, _ = self._first_call_fails_late(sim)
        clients = [self._client(sim, slow, "jp"), self._client(sim, failing, "ca")]
        with pytest.raises(RuntimeError, match="app bug"):
            run_open_loop(sim, clients, name="probe")
        assert sim.now < 1_000.0  # jp was still going

    def test_an_app_whose_function_traps_fails_the_sweep(self):
        from repro.apps.base import App, AppFunction
        from repro.core import FunctionSpec, RadicalConfig
        from repro.sim import Region
        from repro.topology import Deployment, TopologySpec

        source = '''
def boom(k):
    items = db_get("t", f"k:{k}")
    return items[3]
'''
        app = App(
            name="trapper",
            functions=[AppFunction(
                FunctionSpec("t.boom", source, 5.0, 100.0, "indexes past the end"),
                lambda ctx, rng: ["x"],
            )],
            seed=lambda store, streams, ctx: store.put("t", "k:x", []),
        )
        dep = Deployment.build(
            TopologySpec(regions=(Region.JP,), seed=1, config=RadicalConfig()), app=app,
        )
        client = OpenLoopClient(
            sim=dep.sim, app=app, region=Region.JP,
            invoke=dep.runtimes[Region.JP].invoke, metrics=dep.metrics,
            rng=dep.streams.fork("probe").stream("workload"),
            rate_rps=50.0, duration_ms=200.0,
        )
        with pytest.raises(Exception, match="index failed"):
            run_open_loop(dep.sim, [client], name="probe")
