"""The scenario layer (repro.scenarios): strict config validation,
scenario discovery/selection, parameter precedence, and the migration
guarantee — the driver regenerates checked-in artifacts byte-identically
from the checked-in configs."""

import json
import os

import pytest

from repro.scenarios import (
    ScenarioError,
    discover_scenarios,
    load_all_scenarios,
    load_scenario_file,
    parse_fault_plan,
    parse_scenario,
    parse_set_args,
    run_scenario,
)
from repro.scenarios.driver import select_scenarios
from repro.scenarios.runners import KINDS


def _base(**overrides):
    raw = {
        "scenario": "demo",
        "kind": "eval-trio",
        "artifact": "demo",
        "params": {"view": "fig4"},
    }
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_config_parses(self):
        spec = parse_scenario(_base())
        assert spec.name == "demo" and spec.kind == "eval-trio"

    @pytest.mark.parametrize("raw,message", [
        ("not an object", "must be a JSON object"),
        (_base(flavour="spicy"), "unknown top-level key"),
        ({"kind": "eval-trio", "artifact": "x"}, r"missing required key\(s\): scenario"),
        (_base(scenario=""), "'scenario' must be a non-empty string"),
        (_base(kind="warp-drive"), "unknown kind 'warp-drive'"),
        (_base(params="fast"), "'params' must be an object"),
        (_base(params={"view": "fig4", "warp": 9}), "unknown parameter"),
        (_base(params={}), r"missing required parameter\(s\) for kind 'eval-trio': view"),
        (_base(params={"view": "fig9"}), "parameter 'view' must be one of"),
        (_base(params={"view": "fig4", "requests": "lots"}),
         "parameter 'requests' must be int"),
        (_base(smoke=[1, 2]), "'smoke' must be an object"),
        (_base(smoke={"warp": 9}), "unknown parameter"),
        (_base(params={"view": "fig4", "rtt": {"kind": "starlink"}}),
         "bad RTT dataset reference"),
        (_base(params={"view": "fig4", "rtt": {"kind": "synthetic-geo"}}),
         "needs 'n'"),
    ])
    def test_malformed_configs_fail_actionably(self, raw, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(raw, source="bad.json")

    def test_errors_name_the_source_file(self):
        with pytest.raises(ScenarioError, match="bad.json"):
            parse_scenario(_base(kind="warp-drive"), source="bad.json")

    def test_unknown_kind_lists_available(self):
        with pytest.raises(ScenarioError, match="available:.*chaos"):
            parse_scenario(_base(kind="nope"))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario_file(str(tmp_path / "ghost.json"))


class TestFaultPlanParsing:
    @staticmethod
    def _plan(actions):
        return {"name": "inline", "actions": actions}

    def test_round_trip(self):
        plan = parse_fault_plan(self._plan([
            {"kind": "drop", "src": "jp", "dst": "va",
             "start_ms": 100, "end_ms": 400},
        ]))
        assert plan.name == "inline" and len(plan.actions) == 1

    @pytest.mark.parametrize("raw,message", [
        ("nope", "must be an object"),
        ({"actions": []}, "needs a non-empty 'name'"),
        ({"name": "p", "retries": 3}, "unknown fault-plan key"),
        ({"name": "p", "actions": "all"}, "'actions' must be a list"),
        ({"name": "p", "actions": ["drop"]}, "must be an object"),
        ({"name": "p", "actions": [{"kind": "meteor"}]}, "unknown action kind"),
        ({"name": "p", "actions": [{"kind": "drop", "src": "a", "dst": "b",
                                    "start_ms": 0, "severity": 9}]},
         "unknown field"),
        ({"name": "p", "actions": [{"kind": "drop", "src": "a"}]},
         "missing field"),
    ])
    def test_malformed_plans(self, raw, message):
        with pytest.raises(ScenarioError, match=message):
            parse_fault_plan(raw)

    def test_conflicting_windows_rejected(self):
        # Two drop windows driving the same directed link overlap in
        # [200, 400) — the plan must be rejected before any build.
        with pytest.raises(ScenarioError, match="conflicting windows on"):
            parse_fault_plan(self._plan([
                {"kind": "drop", "src": "jp", "dst": "va",
                 "start_ms": 100, "end_ms": 400},
                {"kind": "drop", "src": "jp", "dst": "va",
                 "start_ms": 200, "end_ms": 600},
            ]))

    def test_chaos_scenario_validates_extra_plans(self):
        raw = {
            "scenario": "demo", "kind": "chaos", "artifact": "demo",
            "params": {"plans": "baseline", "extra_plans": [
                {"name": "bad", "actions": [{"kind": "meteor"}]},
            ]},
        }
        with pytest.raises(ScenarioError, match="unknown action kind"):
            parse_scenario(raw)

    def test_chaos_scenario_rejects_unknown_builtin_plan(self):
        raw = {
            "scenario": "demo", "kind": "chaos", "artifact": "demo",
            "params": {"plans": ["baseline", "solar-flare"]},
        }
        with pytest.raises(ScenarioError, match="unknown plan 'solar-flare'"):
            parse_scenario(raw)


class TestResolvedParams:
    def test_precedence_defaults_config_smoke_overrides(self):
        spec = parse_scenario(_base(
            params={"view": "fig4", "requests": 1000},
            smoke={"requests": 99},
        ))
        kind = KINDS["eval-trio"]
        assert spec.resolved_params()["requests"] == 1000
        assert spec.resolved_params(smoke=True)["requests"] == 99
        assert spec.resolved_params(
            overrides={"requests": 5})["requests"] == 5
        # None overrides mean "no override": config value wins.
        assert spec.resolved_params(
            overrides={"requests": None})["requests"] == 1000
        # Defaults fill everything the config left out.
        assert spec.resolved_params()["seed"] == kind.params["seed"].default

    def test_unknown_override_rejected(self):
        spec = parse_scenario(_base())
        with pytest.raises(ScenarioError, match="unknown override"):
            spec.resolved_params(overrides={"warp": 9})


class TestSetOverrides:
    """``--set key=value`` is typed by the kind's ParamSpec."""

    @staticmethod
    def _spec(kind, **params):
        return parse_scenario(
            {"scenario": "demo", "kind": kind, "artifact": "demo", "params": params}
        )

    def test_list_of_number_is_comma_split_into_floats(self):
        got = parse_set_args(self._spec("overload"), ["rates=40,60.5", "duration_ms=500"])
        assert got == {"rates": [40.0, 60.5], "duration_ms": 500.0}
        assert [type(v) for v in got["rates"]] == [float, float]

    def test_list_of_int_and_of_str(self):
        routing = self._spec("routing")
        got = parse_set_args(routing, ["region_counts=10, 25", "policies=tiered,direct"])
        assert got == {"region_counts": [10, 25], "policies": ["tiered", "direct"]}
        with pytest.raises(ScenarioError, match="expected list of int"):
            parse_set_args(routing, ["region_counts=10,2.5"])

    def test_list_may_be_given_as_json(self):
        chaos = self._spec("chaos")
        plan = {"name": "extra", "actions": []}
        got = parse_set_args(chaos, [f"extra_plans={json.dumps([plan])}"])
        assert got == {"extra_plans": [plan]}
        with pytest.raises(ScenarioError, match=r"'extra_plans'\[0\] must be dict"):
            parse_set_args(chaos, ["extra_plans=extra"])

    @pytest.mark.parametrize("raw,value", [
        ("true", True), ("1", True), ("on", True), ("False", False), ("no", False),
    ])
    def test_bool(self, raw, value):
        assert parse_set_args(self._spec("chaos"), [f"detect={raw}"]) == {"detect": value}

    def test_bool_rejects_anything_else(self):
        with pytest.raises(ScenarioError, match="detect='maybe': expected bool"):
            parse_set_args(self._spec("chaos"), ["detect=maybe"])

    def test_any_is_json_with_the_raw_string_as_fallback(self):
        chaos = self._spec("chaos")
        # `plans` keeps the harness's own grammar: all, names, globs, @files.
        assert parse_set_args(chaos, ["plans=all"]) == {"plans": "all"}
        assert parse_set_args(chaos, ["plans=surge-jp,mesh-*"]) == {"plans": "surge-jp,mesh-*"}
        assert parse_set_args(chaos, ['plans=["surge-jp", "gray-limp"]']) == {
            "plans": ["surge-jp", "gray-limp"]
        }

    def test_json_dict(self):
        fig4 = self._spec("eval-trio", view="fig4")
        got = parse_set_args(fig4, ['rtt={"kind": "synthetic-geo", "n": 5}'])
        assert got == {"rtt": {"kind": "synthetic-geo", "n": 5}}
        # The ParamSpec's own check still runs on the coerced value.
        with pytest.raises(ScenarioError, match="bad RTT dataset reference"):
            parse_set_args(fig4, ["rtt=starlink"])

    def test_choices_and_unknown_keys_name_what_is_accepted(self):
        fig4 = self._spec("eval-trio", view="fig4")
        with pytest.raises(ScenarioError, match="'view' must be one of 'fig4', 'fig5', 'fig6'"):
            parse_set_args(fig4, ["view=fig9"])
        with pytest.raises(ScenarioError, match=r"unknown parameter\(s\).*warp \(accepted: apps, "):
            parse_set_args(fig4, ["warp=9"])
        with pytest.raises(ScenarioError, match="expects KEY=VALUE"):
            parse_set_args(fig4, ["requests"])

    def test_value_may_contain_equals_signs(self):
        got = parse_set_args(self._spec("chaos"), ["plans=@dir/a=b.json"])
        assert got == {"plans": "@dir/a=b.json"}

    def test_an_override_repeating_the_config_runs_at_the_configs_own_values(self, monkeypatch):
        import dataclasses

        seen = []
        kind = KINDS["overload"]
        monkeypatch.setitem(KINDS, "overload", dataclasses.replace(
            kind, run=lambda p: seen.append(p) or {"points": []}, gate=None,
        ))
        own = load_all_scenarios()["overload"].resolved_params()
        ints = [int(r) for r in own["rates"]]
        run_scenario("overload", overrides={"rates": ints}, save=False, present=False)
        run_scenario("overload", overrides={"rates": ints[:1]}, save=False, present=False)
        # 40 == 40.0, but "40" != "40.0" in the artifact's bytes.
        assert [type(r) for r in seen[0]["rates"]] == [float] * len(ints)
        assert seen[1]["rates"] == ints[:1]


class TestDiscovery:
    def test_all_checked_in_configs_validate(self):
        specs = load_all_scenarios()
        assert len(specs) >= 20
        for name in ("fig4", "chaos", "scalability", "routing"):
            assert name in specs
        # Every artifact a config declares exists under results/.
        from repro.bench.report import results_dir
        for spec in specs.values():
            assert os.path.exists(
                os.path.join(results_dir(), f"{spec.artifact}.json")
            ), f"{spec.name}: missing artifact {spec.artifact}.json"

    def test_file_stem_must_match_scenario_name(self, tmp_path):
        (tmp_path / "alias.json").write_text(json.dumps(_base()))
        with pytest.raises(ScenarioError, match="does not match scenario name"):
            load_all_scenarios(str(tmp_path))

    def test_select_globs_and_all(self):
        specs = load_all_scenarios()
        assert select_scenarios(["all"], specs) == list(specs.values())
        sweeps = select_scenarios(["sweep_*"], specs)
        assert {s.name for s in sweeps} == {
            n for n in specs if n.startswith("sweep_")
        }
        # Duplicates collapse.
        assert len(select_scenarios(["fig4", "fig*"], specs)) == len(
            select_scenarios(["fig*"], specs)
        )

    def test_select_unknown_pattern(self):
        specs = load_all_scenarios()
        with pytest.raises(ScenarioError, match="no scenario matches"):
            select_scenarios(["fig99"], specs)

    def test_discover_missing_dir(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            discover_scenarios(str(tmp_path / "nowhere"))


def _artifact_bytes(name):
    from repro.bench.report import results_dir

    with open(os.path.join(results_dir(), f"{name}.json"), "r",
              encoding="utf-8") as fh:
        return fh.read()


def _payload_bytes(payload):
    # Exactly what the driver's writer (repro.bench.report.save_results) writes.
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


@pytest.mark.slow
class TestMigration:
    """The config-driven driver reproduces the checked-in artifacts
    byte-for-byte — the refactor moved the knobs, not the physics."""

    def test_fig4_byte_identical(self):
        payload = run_scenario("fig4", save=False, present=False)
        assert _payload_bytes(payload) == _artifact_bytes("fig4_end_to_end")

    def test_scalability_byte_identical(self):
        payload = run_scenario("scalability", save=False, present=False)
        assert _payload_bytes(payload) == _artifact_bytes("scalability")

    def test_chaos_plan_byte_identical(self):
        # One plan's worth of the chaos matrix: the driver run with
        # plans=["partition-pulse"] must reproduce exactly the cases the
        # checked-in full matrix holds for that plan.
        payload = run_scenario(
            "chaos", overrides={"plans": ["partition-pulse"]},
            save=False, present=False,
        )
        full = json.loads(_artifact_bytes("chaos"))
        want = [c for c in full["cases"] if c["plan"] == "partition-pulse"]
        assert want, "checked-in chaos.json lacks the partition-pulse plan"
        assert _payload_bytes(payload["cases"]) == _payload_bytes(want)
