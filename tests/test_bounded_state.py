"""What a run leaves behind is bounded by what is in flight: the census of
the LVI server's and runtime's per-execution state, checked by doubling
the run.

The counter app runs through the chaos ``baseline`` plan at N and 2N
requests per client.  At makespan (every client finished, before the
drain) the intent timers and prepare leases still armed in the queue may
number no more than the executions that still owe a settlement; after
the drain, the server's execution records, its client table and each
runtime's open seqs must not grow with the run, and each location's
change set — the keys its next repair carries — holds at most the shard's
distinct written keys.  With conflict detection on, no dirty-set entry
outlives its execution, under any of the fault plans that kill, lose or
delay one.
"""

import pytest

from repro.faults import chaos
from repro.sim.core import TimerHandle

TIMERS = ("_on_intent_timer", "_on_prepare_lease")
N = 25


def queue_entries(sim):
    yield from sim._imm
    yield from sim._cur
    for bucket in sim._buckets.values():
        yield from bucket


def live_timers(sim):
    """Uncancelled queue entries of the server's settlement timers."""
    return sum(
        1 for entry in queue_entries(sim)
        if type(entry[3]) is TimerHandle and not entry[3].cancelled
        and getattr(entry[3]._fn, "__name__", "") in TIMERS
    )


def unsettled(dep):
    """Durable intents not yet settled, plus read-only prepared slices
    (which write no intent)."""
    read_slices = sum(
        1 for server in dep.servers
        for eid, rec in server._executions.items()
        if rec.phase == "prepared" and server.intents.get(eid) is None
    )
    return len(dep.pending_intents()) + read_slices


def census(requests_per_client, monkeypatch):
    """Run the baseline case; return the makespan and post-drain census."""
    built = {}
    build = chaos.Deployment.build

    def capturing(*args, **kwargs):
        dep = built["dep"] = build(*args, **kwargs)
        run = dep.sim.run

        def run_with_census(until=None, until_event=None):
            now = run(until=until, until_event=until_event)
            if until_event is not None:
                built["makespan"] = {
                    "live_timers": live_timers(dep.sim),
                    "unsettled": unsettled(dep),
                }
            return now

        dep.sim.run = run_with_census
        return dep

    monkeypatch.setattr(chaos.Deployment, "build", capturing)
    plan = chaos.builtin_plans()["baseline"]
    result = chaos.run_chaos_case(plan, seed=3, requests_per_client=requests_per_client)
    assert result.ok, result.violation
    dep = built["dep"]
    drained = {
        "executions": sum(len(s._executions) for s in dep.servers),
        "clients": sum(len(s._clients) for s in dep.servers),
        "open": sum(len(r._open) for r in dep.runtimes.values()),
        "live_timers": live_timers(dep.sim),
        "repaired_locations": sum(len(store._repaired) for store in dep.stores),
        "largest_change_set": max(
            (len(change_set(store, location))
             for store in dep.stores for location in store._repaired),
            default=0,
        ),
        "written_keys": sum(len(store._written or ()) for store in dep.stores),
        "app_keys": sum(
            len(rows) for store in dep.stores for rows in store.snapshot().values()
        ),
    }
    return built["makespan"], drained


def change_set(store, location):
    """The keys ``location``'s next repair at ``store`` would carry."""
    since = store._repaired[location]
    return [key for key, stamp in store._written.items() if stamp > since]


@pytest.fixture(scope="module")
def censuses():
    with pytest.MonkeyPatch.context() as mp:
        small = census(N, mp)
    with pytest.MonkeyPatch.context() as mp:
        large = census(2 * N, mp)
    return small, large


def test_no_timer_outlives_its_settlement(censuses):
    for makespan, _drained in censuses:
        assert makespan["live_timers"] <= makespan["unsettled"], f"census: {censuses}"


def test_drained_state_does_not_grow_with_the_run(censuses):
    (_, small), (_, large) = censuses
    for name in ("executions", "clients", "open", "repaired_locations", "written_keys"):
        assert small[name] == large[name], f"{name}: census {censuses}"
    assert large["live_timers"] == 0, f"census: {censuses}"


def test_a_change_set_is_bounded_by_the_written_keys(censuses):
    for _makespan, drained in censuses:
        assert drained["repaired_locations"] > 0, f"census: {censuses}"
        assert drained["largest_change_set"] <= drained["written_keys"]
        assert drained["written_keys"] <= drained["app_keys"], f"census: {censuses}"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "plan", ["baseline", "followup-burst", "server-crash", "partition-pulse", "lvi-blackout"]
)
def test_no_dirty_entry_outlives_its_execution(plan, seed, monkeypatch):
    built = []
    build = chaos.Deployment.build
    monkeypatch.setattr(
        chaos.Deployment, "build",
        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1],
    )
    result = chaos.run_chaos_case(chaos.builtin_plans()[plan], seed=seed, detect=True)
    assert result.ok, result.violation
    dirty = built[0].router.detector.dirty
    assert dirty.total_depth == 0, f"{plan}: {dirty.stats()}"
    assert dirty.balanced
