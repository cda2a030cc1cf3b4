"""The coverage-guided chaos explorer and its supporting machinery:
plan serde round-trips, plan resolution (globs, @file references),
schedule generation, delta-debug shrinking, corpus integrity, full-run
determinism — and the planted-bug proof that the explorer actually finds
and minimizes an exactly-once violation within a smoke-sized budget."""

import dataclasses
import json
import math
import os

import pytest

from repro.errors import FaultConfigError
from repro.faults import (
    CrashWindow,
    DelayWindow,
    DropWindow,
    DuplicateWindow,
    FaultPlan,
    FollowupLossWindow,
    MigrationWindow,
    PartitionWindow,
    PoPCrashWindow,
    PoPPartitionWindow,
    SlowServerWindow,
    SurgeWindow,
    plan_from_dict,
    plan_hash,
    plan_to_dict,
)
from repro.faults.serde import WINDOW_KINDS, load_plan_file


def _one_of_each():
    """A valid plan touching every window kind (mesh vocabulary)."""
    return FaultPlan(
        name="everything",
        actions=(
            PartitionWindow("jp", "va", 100.0, 400.0),
            DropWindow("ca", "va", 500.0, 800.0, 0.5),
            DuplicateWindow("jp", "va", 900.0, 1_200.0, 0.25,
                            bidirectional=True),
            DelayWindow("ca", "va", 1_300.0, 30.0, 1_600.0),
            FollowupLossWindow(1_700.0, 1_900.0),
            CrashWindow("lvi-server", 2_000.0, 2_500.0),
            SurgeWindow("jp", 2_600.0, 2_900.0, rate_rps=80.0),
            SlowServerWindow("lvi-server", 3_000.0, 3_300.0, proc_ms=40.0),
            PoPPartitionWindow("ca", 3_400.0, 3_700.0, peers=("jp", "ie")),
            PoPCrashWindow("ie", 3_800.0, 4_200.0),
            MigrationWindow("jp-0", "ca", 4_300.0),
        ),
        description="one window of every kind",
        mesh=True,
    )


class TestSerde:
    def test_every_window_kind_round_trips(self):
        plan = _one_of_each()
        assert len({type(a) for a in plan.actions}) == len(WINDOW_KINDS)
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored == plan
        assert plan_hash(restored) == plan_hash(plan)

    def test_dicts_are_json_safe_including_inf(self):
        plan = FaultPlan(
            "open", (DropWindow("jp", "va", 0.0, math.inf, 1.0),)
        )
        encoded = json.dumps(plan_to_dict(plan))  # inf would raise here
        assert '"inf"' in encoded
        restored = plan_from_dict(json.loads(encoded))
        assert restored.actions[0].end_ms == math.inf

    def test_none_and_tuple_fields_round_trip(self):
        plan = FaultPlan(
            "mixed",
            (
                CrashWindow("lvi-server", 100.0, None),  # never restarts
                PoPPartitionWindow("jp", 500.0, 900.0, peers=("ca", "ie")),
            ),
            mesh=True,
        )
        restored = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert restored == plan
        assert restored.actions[1].peers == ("ca", "ie")  # tuple, not list

    def test_window_methods_attached(self):
        w = PartitionWindow("jp", "va", 100.0, 400.0)
        assert PartitionWindow.from_dict(w.to_dict()) == w
        with pytest.raises(FaultConfigError, match="decodes to"):
            CrashWindow.from_dict(w.to_dict())

    @pytest.mark.parametrize("raw,message", [
        ("nope", "must be an object"),
        ({"actions": []}, "needs a non-empty 'name'"),
        ({"name": "p", "retries": 3}, "unknown fault-plan key"),
        ({"name": "p", "actions": [{"kind": "meteor"}]}, "unknown action kind"),
        ({"name": "p", "actions": [{"kind": "drop", "src": "a", "dst": "b",
                                    "start_ms": 0, "severity": 9}]},
         "unknown field"),
        ({"name": "p", "actions": [{"kind": "drop", "src": "a"}]},
         "missing field"),
        ({"name": "p", "actions": [{"kind": "drop", "src": 3, "dst": "b",
                                    "start_ms": 0}]},
         "must be string"),
        ({"name": "p", "actions": [{"kind": "drop", "src": "a", "dst": "b",
                                    "start_ms": "soon"}]},
         "must be number"),
        ({"name": "p", "actions": [{"kind": "drop", "src": "a", "dst": "b",
                                    "start_ms": 0, "bidirectional": 1}]},
         "must be boolean"),
        ({"name": "p", "actions": [{"kind": "pop_partition", "region": "jp",
                                    "start_ms": 0, "peers": [1, 2]}]},
         "must be list of strings"),
    ])
    def test_schema_violations_fail_actionably(self, raw, message):
        with pytest.raises(FaultConfigError, match=message):
            plan_from_dict(raw)

    def test_hash_is_content_addressed(self):
        a = FaultPlan("p", (DropWindow("jp", "va", 0.0, 100.0),))
        b = FaultPlan("p", (DropWindow("jp", "va", 0.0, 100.0),))
        assert plan_hash(a) == plan_hash(b)
        c = dataclasses.replace(
            a, actions=(DropWindow("jp", "va", 0.0, 101.0),)
        )
        assert plan_hash(c) != plan_hash(a)

    def test_load_plan_file(self, tmp_path):
        plan = _one_of_each()
        single = tmp_path / "one.json"
        single.write_text(json.dumps(plan_to_dict(plan)))
        assert load_plan_file(str(single)) == [plan]
        many = tmp_path / "many.json"
        many.write_text(json.dumps([plan_to_dict(plan)] * 2))
        assert len(load_plan_file(str(many))) == 2
        # Corpus-entry wrappers are unwrapped to their inner plan.
        wrapped = tmp_path / "entry.json"
        wrapped.write_text(json.dumps(
            {"schema": 1, "hash": plan_hash(plan),
             "plan": plan_to_dict(plan)}
        ))
        assert load_plan_file(str(wrapped)) == [plan]
        with pytest.raises(FaultConfigError, match="not found"):
            load_plan_file(str(tmp_path / "ghost.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{oops")
        with pytest.raises(FaultConfigError, match="not valid JSON"):
            load_plan_file(str(broken))


class TestResolvePlans:
    def test_globs_match_builtins(self):
        from repro.faults import builtin_plans, resolve_plans

        mesh = resolve_plans("mesh-*")
        assert {p.name for p in mesh} == {
            n for n in builtin_plans() if n.startswith("mesh-")
        }
        # Duplicate selections collapse.
        assert len(resolve_plans("mesh-*,mesh-pop-crash")) == len(mesh)

    def test_glob_with_no_match_fails(self):
        from repro.faults import resolve_plans

        with pytest.raises(FaultConfigError, match="no builtin plan matches"):
            resolve_plans("solar-*")

    def test_file_reference(self, tmp_path):
        from repro.faults import resolve_plans

        plan = FaultPlan("from-file", (DropWindow("jp", "va", 0.0, 100.0),))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)))
        resolved = resolve_plans(f"baseline,@{path}")
        assert [p.name for p in resolved] == ["baseline", "from-file"]

    def test_unknown_name_still_fails(self):
        from repro.faults import resolve_plans

        with pytest.raises(FaultConfigError, match="unknown plan"):
            resolve_plans("solar-flare")


class TestGenerator:
    def test_same_seed_same_schedules(self):
        from repro.faults.generate import SHAPES, ScheduleGenerator

        a, b = ScheduleGenerator(11), ScheduleGenerator(11)
        for i in range(20):
            shape = SHAPES[i % len(SHAPES)]
            assert a.sample(shape) == b.sample(shape)

    def test_all_samples_validate_and_match_shape(self):
        from repro.faults.generate import SHAPES, ScheduleGenerator

        gen = ScheduleGenerator(3)
        for i in range(40):
            shape = SHAPES[i % len(SHAPES)]
            plan = gen.sample(shape)
            plan.validate()  # must not raise
            assert plan.replicated == (shape == "replicated")
            assert plan.mesh == (shape == "mesh")

    def test_generator_covers_the_full_window_vocabulary(self):
        from repro.faults.generate import SHAPES, ScheduleGenerator
        from repro.faults.serde import _KIND_OF

        gen = ScheduleGenerator(5)
        seen = set()
        for i in range(120):
            plan = gen.sample(SHAPES[i % len(SHAPES)])
            seen.update(_KIND_OF[type(a)] for a in plan.actions)
        assert seen == set(WINDOW_KINDS)

    def test_generator_expresses_the_raft_leader_builtin(self):
        # The hand-written raft-leader-mid-validate plan must be a point
        # in the generator's space: a replicated-shape crash window naming
        # the dynamic "raft-leader" target, with a restart.
        from repro.faults.generate import ScheduleGenerator

        gen = ScheduleGenerator(1)
        for _ in range(200):
            plan = gen.sample("replicated")
            crashes = [a for a in plan.actions
                       if isinstance(a, CrashWindow)
                       and a.target == "raft-leader"]
            if crashes:
                assert crashes[0].restart_at_ms is not None
                return
        pytest.fail("no raft-leader crash generated in 200 samples")

    def test_mutate_returns_valid_neighbours(self):
        from repro.faults.generate import ScheduleGenerator

        gen = ScheduleGenerator(9)
        plan = gen.sample("mesh")
        for _ in range(10):
            plan = gen.mutate(plan, "mesh")
            plan.validate()


class TestShrink:
    def test_drops_irrelevant_windows(self):
        from repro.faults.shrink import shrink_plan

        culprit = DuplicateWindow("jp", "va", 0.0, 1_000.0, 1.0)
        plan = FaultPlan("fat", (
            culprit,
            DelayWindow("ca", "va", 100.0, 20.0, 500.0),
            FollowupLossWindow(1_200.0, 1_400.0),
        ))

        def oracle(candidate):
            return any(isinstance(a, DuplicateWindow)
                       for a in candidate.actions)

        minimal = shrink_plan(plan, oracle)
        assert len(minimal.actions) == 1
        assert isinstance(minimal.actions[0], DuplicateWindow)
        assert minimal.name == "fat-min"

    def test_narrows_time_ranges(self):
        from repro.faults.shrink import shrink_plan

        plan = FaultPlan("wide", (DropWindow("jp", "va", 0.0, 4_000.0, 1.0),))

        def oracle(candidate):
            # Fails whenever the window covers t=200.
            a = candidate.actions[0]
            return a.start_ms <= 200.0 <= a.end_ms

        minimal = shrink_plan(plan, oracle)
        span = minimal.actions[0].end_ms - minimal.actions[0].start_ms
        assert span < 4_000.0  # strictly narrowed
        assert minimal.actions[0].start_ms <= 200.0 <= minimal.actions[0].end_ms

    def test_probe_budget_bounds_oracle_calls(self):
        from repro.faults.shrink import shrink_plan

        plan = FaultPlan("fat", tuple(
            DropWindow("jp", "va", 1_000.0 * i, 1_000.0 * i + 500.0, 1.0)
            for i in range(4)
        ))
        calls = []

        def oracle(candidate):
            calls.append(1)
            return True

        shrink_plan(plan, oracle, max_probes=5)
        assert len(calls) <= 5


class TestExplorer:
    def test_same_seed_and_budget_byte_identical(self):
        from repro.faults.explorer import explore

        a = explore(budget=6, seed=3).to_payload()
        b = explore(budget=6, seed=3).to_payload()
        assert (json.dumps(a, indent=2, sort_keys=True, default=str)
                == json.dumps(b, indent=2, sort_keys=True, default=str))

    def test_green_stack_yields_no_violations_and_novelty(self):
        from repro.faults.explorer import explore

        record = explore(budget=8, seed=3)
        assert record.schedules_tried == 8
        assert record.violations == []
        assert record.novel_schedules >= 1  # the first case always is
        assert record.coverage_curve == sorted(record.coverage_curve)
        assert record.distinct_signatures >= 1
        assert len(record.coverage_curve) == 8

    def test_rejects_unknown_shape(self):
        from repro.faults.explorer import explore

        with pytest.raises(FaultConfigError, match="unknown deployment shape"):
            explore(budget=1, shapes=("torus",))

    def test_planted_exactly_once_bug_found_and_minimized(self, monkeypatch):
        # Weaken the followup commit point — ignore the intent-CAS verdict
        # so duplicate or late followups re-apply writes — and the
        # explorer must find an invariant violation within a smoke-sized
        # budget and shrink it to <= 2 windows.
        from repro.core.config import SERVER_STORAGE_RTT_MS
        from repro.core.server import LVIServer
        from repro.faults.explorer import explore
        from repro.storage import IdempotencyTable, WriteOp

        def weakened(self, followup):
            intent = self.intents.get(followup.execution_id)
            yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
            if intent is not None:
                self.intents.try_complete(followup.execution_id)  # ignored!
            self.store.apply_writes(
                [WriteOp(t, k, v) for (t, k, v) in followup.writes]
            )
            self.idem.claim(followup.execution_id, IdempotencyTable.NEAR_STORAGE)
            if intent is not None:
                self.intents.remove(followup.execution_id)
                self._pending_exec.pop(followup.execution_id, None)
                self._release(followup.execution_id)
            return "applied"

        monkeypatch.setattr(LVIServer, "_handle_followup", weakened)
        record = explore(budget=12, seed=7)
        assert record.violations, "planted bug not found in a smoke budget"
        for v in record.violations:
            assert v["minimal_windows"] <= 2
            assert v["minimal_windows"] <= v["original_windows"]
            # The reproducer row is complete and self-contained.
            restored = plan_from_dict(v["plan"])
            assert plan_hash(restored) == v["hash"]

    def test_explorer_can_write_the_corpus(self, tmp_path, monkeypatch):
        from repro.core.config import SERVER_STORAGE_RTT_MS
        from repro.core.server import LVIServer
        from repro.faults.explorer import explore, load_corpus
        from repro.storage import IdempotencyTable, WriteOp

        def weakened(self, followup):
            intent = self.intents.get(followup.execution_id)
            yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
            if intent is not None:
                self.intents.try_complete(followup.execution_id)
            self.store.apply_writes(
                [WriteOp(t, k, v) for (t, k, v) in followup.writes]
            )
            self.idem.claim(followup.execution_id, IdempotencyTable.NEAR_STORAGE)
            if intent is not None:
                self.intents.remove(followup.execution_id)
                self._pending_exec.pop(followup.execution_id, None)
                self._release(followup.execution_id)
            return "applied"

        monkeypatch.setattr(LVIServer, "_handle_followup", weakened)
        corpus = tmp_path / "corpus"
        record = explore(budget=12, seed=7, corpus_dir=str(corpus))
        assert record.violations
        entries = load_corpus(str(corpus))
        assert len(entries) == len(record.violations)


class TestCorpus:
    def test_checked_in_corpus_loads_and_replays_green(self):
        from repro.faults.explorer import load_corpus, replay_corpus

        corpus_dir = os.path.join(os.path.dirname(__file__), "..", "corpus")
        entries = load_corpus(corpus_dir)
        assert len(entries) >= 3
        rows = replay_corpus(corpus_dir)
        assert all(r["ok"] for r in rows), [
            r for r in rows if not r["ok"]
        ]

    def test_tampered_entry_fails_integrity_check(self, tmp_path):
        from repro.faults.explorer import (
            CORPUS_SCHEMA,
            load_corpus,
            write_corpus_entry,
        )

        plan = FaultPlan("t", (DropWindow("jp", "va", 0.0, 100.0),))
        entry = {
            "schema": CORPUS_SCHEMA,
            "hash": plan_hash(plan),
            "shape": "seed",
            "seed": 1,
            "plan": plan_to_dict(plan),
        }
        path = write_corpus_entry(str(tmp_path), entry)
        raw = json.load(open(path))
        raw["plan"]["actions"][0]["end_ms"] = 999.0  # hand edit
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(FaultConfigError, match="hash mismatch"):
            load_corpus(str(tmp_path))


class TestRaftLeaderPlan:
    def test_builtin_passes_across_seeds(self):
        from repro.faults import builtin_plans, run_chaos_case

        plan = builtin_plans()["raft-leader-mid-validate"]
        for seed in range(3):
            result = run_chaos_case(plan, seed, requests_per_client=12)
            assert result.ok, result.violation

    def test_crash_fires_on_the_actual_leader(self):
        # The "raft-leader" target is dynamic: whichever node leads at
        # 700 ms goes down, and the same node is revived at restart.
        from repro.core.config import RadicalConfig
        from repro.topology.deployment import Deployment, TopologySpec

        plan = FaultPlan(
            "t", (CrashWindow("raft-leader", 700.0, 2_000.0),),
            replicated=True,
        )
        spec = TopologySpec(
            regions=("jp", "ca"), config=RadicalConfig(replicated=True),
            fault_plan=plan,
        )
        dep = Deployment.build(spec)
        dep.sim.run(until=650.0)
        leader = dep.raft.leader()
        assert leader is not None
        dep.sim.run(until=900.0)
        assert not leader._alive  # the then-leader went down
        dep.sim.run(until=2_500.0)
        assert leader._alive  # and the same node came back


class TestScenarioIntegration:
    def test_chaos_explore_scenario_smoke(self):
        from repro.scenarios import run_scenario

        payload = run_scenario(
            "chaos_explore", smoke=True, save=False, present=False,
        )
        assert payload["violations"] == []
        assert payload["novel_schedules"] >= 1
        assert payload["schedules_tried"] == 12

    def test_chaos_scenario_accepts_globs_and_files(self, tmp_path):
        from repro.scenarios import parse_scenario

        plan = FaultPlan("extra", (DropWindow("jp", "va", 0.0, 100.0),))
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(plan_to_dict(plan)))
        raw = {
            "scenario": "demo", "kind": "chaos", "artifact": "demo",
            "params": {"plans": ["mesh-*", f"@{path}"]},
        }
        parse_scenario(raw)  # must not raise

    def test_chaos_scenario_rejects_unmatched_glob(self):
        from repro.scenarios import ScenarioError, parse_scenario

        raw = {
            "scenario": "demo", "kind": "chaos", "artifact": "demo",
            "params": {"plans": ["solar-*"]},
        }
        with pytest.raises(ScenarioError, match="no builtin plan matches"):
            parse_scenario(raw)
