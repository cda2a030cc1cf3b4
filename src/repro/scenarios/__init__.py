"""Config-driven scenario matrix: one JSON file per paper artifact.

``configs/<name>.json`` declares a scenario (kind + parameters + output
artifact); :mod:`repro.scenarios.driver` runs any subset, is the only
writer of ``results/*.json``, and regenerates each artifact byte-identically
at its config's own parameters.  See EXPERIMENTS.md for the full
config ↔ paper artifact ↔ results map.
"""

from .driver import (
    config_dir,
    discover_scenarios,
    load_all_scenarios,
    load_scenario,
    run_matrix,
    run_scenario,
)
from .runners import KINDS, ScenarioKind, schema_failures
from .spec import (
    ParamSpec,
    ScenarioError,
    ScenarioSpec,
    load_scenario_file,
    parse_fault_plan,
    parse_scenario,
    parse_set_args,
)

__all__ = [
    "KINDS",
    "ParamSpec",
    "ScenarioError",
    "ScenarioKind",
    "ScenarioSpec",
    "config_dir",
    "discover_scenarios",
    "load_all_scenarios",
    "load_scenario",
    "load_scenario_file",
    "parse_fault_plan",
    "parse_scenario",
    "parse_set_args",
    "run_matrix",
    "run_scenario",
    "schema_failures",
]
