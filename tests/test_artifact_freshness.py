"""The checked-in ``results/*.json`` are the byte-identity contract every
refactor is judged against (CI's ``artifact-freshness`` job regenerates
them all), so **an artifact is written only at its config's own
parameters**: a ``--set`` that changes any resolved parameter, or
``--smoke``, prints its tables and leaves ``results/`` alone.  The rule
lives in the scenario driver — the one writer, behind the one command —
and is checked here for every parameter of every checked-in config.

The simulations are stubbed (each kind "runs" by returning its checked-in
artifact): this suite is about who reaches the writer, not the physics.
"""

import dataclasses
import json

import pytest

from repro.bench.report import load_results
from repro.cli import main
from repro.scenarios import KINDS, driver, load_all_scenarios

SPECS = load_all_scenarios()
PARAMS = [
    (name, key) for name, spec in SPECS.items() for key in KINDS[spec.kind].params
]
#: A valid other value for the few parameters with no generic neighbour.
OTHER = {
    "apps": "forum",
    "workloads": "counter",
    "plans": "baseline",
    "rtt": '{"kind": "synthetic-geo", "n": 5}',
    "extra_plans": '[{"name": "extra", "actions": []}]',
}


def different(key, p, value):
    """A ``--set`` value for ``key`` that is valid and is not ``value``."""
    if p.type == "bool":
        return "false" if value else "true"
    if p.type in ("int", "number"):
        return str((value or 0) + 1)
    if p.type == "list" and value and len(value) > 1:
        return ",".join(str(v) for v in value[:-1])
    return OTHER[key]


def same(p, value):
    """``value`` as its owner would type it after ``--set key=``."""
    if p.type == "list":
        return ",".join(str(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


def stub(monkeypatch, *names):
    """Stub the named scenarios' simulations and the writer; returns the
    list that records what reaches the writer."""
    for name in names:
        kind = KINDS[SPECS[name].kind]
        payload = load_results(SPECS[name].artifact)
        monkeypatch.setitem(
            KINDS, kind.name, dataclasses.replace(kind, run=lambda p, payload=payload: payload)
        )
    out = []
    monkeypatch.setattr(driver, "save_results", lambda name, payload: out.append(name))
    return out


@pytest.mark.parametrize("name,key", PARAMS)
def test_changed_parameter_is_not_written(name, key, monkeypatch, capsys):
    spec, written = SPECS[name], stub(monkeypatch, name)
    value = different(key, KINDS[spec.kind].params[key], spec.resolved_params()[key])
    assert main(["run", name, "--set", f"{key}={value}"]) == 0
    assert written == []
    assert f"results/{spec.artifact}.json left untouched" in capsys.readouterr().out


@pytest.mark.parametrize("name,key", [
    (name, key) for name, key in PARAMS if SPECS[name].resolved_params()[key] is not None
])
def test_repeated_parameter_is_written(name, key, monkeypatch, capsys):
    # An explicit --set that merely repeats the config's value is canonical.
    spec, written = SPECS[name], stub(monkeypatch, name)
    value = same(KINDS[spec.kind].params[key], spec.resolved_params()[key])
    assert main(["run", name, "--set", f"{key}={value}"]) == 0
    assert written == [spec.artifact]
    assert f"results written to results/{spec.artifact}.json" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_smoke_is_never_written(name, monkeypatch, capsys):
    # Including the scenarios whose smoke size *is* their full size.
    written = stub(monkeypatch, name)
    assert main(["run", name, "--smoke"]) == 0
    assert written == []
    assert "no artifacts written" in capsys.readouterr().out


def test_plain_run_is_written(monkeypatch):
    written = stub(monkeypatch, "table1", "sec57")
    assert main(["run", "table1", "sec57"]) == 0
    assert written == ["table1_functions", "sec57_cost"]


def test_library_callers_can_opt_out(monkeypatch):
    written = stub(monkeypatch, "table2")
    driver.run_scenario("table2", save=False, present=False)
    assert written == []
