"""Runtime rw-set soundness: the corpus under the sanitizer, and a
deliberately broken slice proving the sanitizer actually fires.

The first half is the machine-checked version of §3.3's soundness
argument: every registered function of all five apps, replayed on seeded
randomized inputs, must produce a speculative trace fully covered by its
f^rw prediction (zero ``analysis.unsound``).  The second half tampers
with a registered function's slice and asserts the runtime refuses to
commit — the check that licenses the slice's trap relaxation.
"""

import random

import pytest

from conftest import build_counter_deployment
from repro.analysis import (
    access_checker,
    analyze_source,
    check_coverage,
    derive_rwset,
)
from repro.apps import all_apps
from repro.sim import RandomStreams, Region
from repro.sim.core import SimulationError
from repro.storage.kvstore import KVStore
from repro.wasm import VM


class _ReplayEnv:
    """Reads hit the seeded store (read-your-writes); writes are buffered."""

    def __init__(self, read):
        self._read = read
        self._writes = {}

    def db_get(self, table, key):
        if (table, key) in self._writes:
            return self._writes[(table, key)]
        return self._read(table, key)

    def db_put(self, table, key, value):
        self._writes[(table, key)] = value


def _reader(store):
    def read(table, key):
        item = store.get_or_none(table, key)
        return None if item is None else item.copy_value()

    return read


APPS = {app.name: app for app in all_apps()}


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_corpus_soundness(app_name):
    """Every function in the app, on randomized seeded inputs: the actual
    access trace never escapes the optimized f^rw's prediction, and the
    streaming interposition hook agrees with the post-hoc verdict."""
    app = APPS[app_name]
    store = KVStore(app.name)
    app.seed(store, RandomStreams(7), app.context)
    read = _reader(store)
    for fn in app.functions:
        analyzed = analyze_source(fn.spec.source)
        rng = random.Random(f"sanitizer:{fn.function_id}")
        for _ in range(5):
            args = fn.arggen(app.context, rng)
            rwset, _gas = derive_rwset(analyzed.frw, list(args), read)
            violations = []
            vm = VM(_ReplayEnv(read), access_hook=access_checker(rwset, violations))
            trace = vm.execute(analyzed.f, list(args))
            report = check_coverage(fn.function_id, rwset, trace)
            assert report.sound, report.describe()
            assert violations == [], (
                f"{fn.function_id}: interposition hook caught {violations} "
                f"but check_coverage judged the execution sound"
            )


# t.bump's real slice predicts {read c:k, write c:k}; this read-only
# imposter compiles to a valid f^rw that forgets the write.
BROKEN_BUMP_FRW_SRC = '''
def bump(k):
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    return count + 1
'''

# Over-approximating slice: predicts an extra read the execution never
# performs (plus the real one), so the prediction still covers the trace.
OVERAPPROX_READ_FRW_SRC = '''
def read(k):
    a = db_get("counters", f"c:{k}")
    b = db_get("counters", "c:never-touched")
    return [a, b]
'''


def _graft_frw(dep, function_id, src):
    """Swap a registered function's slice for an imposter compiled from
    ``src`` (same params, different access prediction)."""
    imposter = analyze_source(src)
    dep.registry.get(function_id).analyzed.frw = imposter.frw


class TestSanitizerFires:
    def test_broken_slice_is_rejected(self):
        # The deliberately-broken fixture: with the write missing from
        # the prediction, the speculative write MUST NOT commit — the
        # runtime raises before any LVI request is sent.
        dep = build_counter_deployment()
        _graft_frw(dep, "t.bump", BROKEN_BUMP_FRW_SRC)
        runtime = dep.runtimes[Region.JP]
        with pytest.raises(SimulationError, match="UNSOUND"):
            dep.sim.run_process(runtime.invoke("t.bump", ["x"]))
        assert dep.metrics.counter("analysis.unsound") == 1
        # The acked-write invariant survives: nothing landed near storage.
        dep.sim.run(until=dep.sim.now + 5_000.0)
        assert dep.store.get("counters", "c:x").value == 0

    def test_overapproximation_is_sound_but_counted(self):
        dep = build_counter_deployment()
        _graft_frw(dep, "t.read", OVERAPPROX_READ_FRW_SRC)
        outcome = dep.sim.run_process(
            dep.runtimes[Region.JP].invoke("t.read", ["x"])
        )
        assert outcome is not None
        assert dep.metrics.counter("analysis.unsound") == 0
        assert dep.metrics.counter("analysis.overapprox") == 1
        assert dep.metrics.counter("analysis.wasted_locks") == 1

    def test_healthy_corpus_emits_no_sanitizer_noise(self):
        dep = build_counter_deployment()
        runtime = dep.runtimes[Region.JP]
        for _ in range(3):
            dep.sim.run_process(runtime.invoke("t.bump", ["x"]))
        assert dep.metrics.counter("analysis.unsound") == 0
        assert dep.metrics.counter("analysis.overapprox") == 0
        # Single-key function: the affinity fast path routed every attempt.
        assert dep.metrics.counter("affinity.fast_path") >= 3


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
