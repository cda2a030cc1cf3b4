"""Each kind's console output and structural probes, on the checked-in
artifacts: no simulation runs here.

A kind declares its row tables as :class:`repro.scenarios.Table` data and
its probes are derived from them, so presenting an artifact, probing it,
and noticing a field gone missing are all checked against the same
declaration — for every config, not only the ones CI's smoke job runs.
"""

import copy
import dataclasses

import pytest

from repro.bench.report import load_results
from repro.scenarios import KINDS, ScenarioKind, ScenarioSpec, load_all_scenarios, schema_failures
from repro.scenarios.driver import _check_schema
from repro.scenarios.runners import _TITLE

SPECS = load_all_scenarios()


def _artifact(name):
    return load_results(SPECS[name].artifact)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_artifact_presents_with_every_table_title(name, capsys):
    kind, payload = KINDS[SPECS[name].kind], _artifact(name)
    kind.present(payload)
    out = capsys.readouterr().out
    assert out.strip()
    for table in kind.tables:
        assert _TITLE.vformat(table.title, (), payload) in out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_derived_probes_hold_on_the_artifact(name):
    kind = KINDS[SPECS[name].kind]
    assert kind.required_keys, f"{name}: no structural probe"
    assert schema_failures(_artifact(name), kind.required_keys) == []


@pytest.mark.parametrize("name", sorted(
    name for name, spec in SPECS.items() if KINDS[spec.kind].tables
))
def test_a_row_missing_a_printed_field_is_reported(name):
    kind = KINDS[SPECS[name].kind]
    for table in kind.tables:
        payload = copy.deepcopy(_artifact(name))
        field = table.columns[0][1]
        del payload[table.rows][0][field]
        assert f"missing or mis-shaped '{table.rows}[].{field}'" in " ".join(
            schema_failures(payload, kind.required_keys)
        )


def test_fig5_probes_every_app_with_its_table_columns(capsys):
    kind, payload = KINDS["fig5"], _artifact("fig5")
    kind.present(payload)
    out = capsys.readouterr().out
    for app in payload:
        assert f"Figure 5 ({app}): regional variation" in out
    del payload["hotel"][0]["region"]
    assert schema_failures(payload, kind.required_keys) == [
        "payload: missing or mis-shaped '*[].region'"
    ]


@pytest.mark.parametrize("kind", [
    "fig4", "fig5", "fig6",
    "ablation-overlap", "ablation-two-rtt", "ablation-cache-bootstrap",
])
def test_headline_kinds_carry_probes(kind):
    assert len(KINDS[kind].required_keys) >= 2


def test_a_kind_without_probes_fails_the_schema_check(monkeypatch):
    stub = ScenarioKind(name="stub", params={}, run=lambda p: {})
    monkeypatch.setitem(KINDS, "stub", stub)
    spec = ScenarioSpec(name="demo", kind="stub", artifact="demo")
    assert _check_schema(spec, {}) == ["demo: kind declares no structural probe"]
    probed = dataclasses.replace(stub, probes=("rows",))
    monkeypatch.setitem(KINDS, "stub", probed)
    assert _check_schema(spec, {"rows": []}) == []
