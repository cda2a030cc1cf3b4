"""The scenario driver: ``radical-repro run <scenario|glob|all>``.

One entry point runs any subset of the checked-in configs, and is the only
writer of ``results/``:

* ``run all`` — every scenario, in config-name order;
* ``run fig4 chaos`` — an explicit subset;
* ``run 'sweep_*'`` — shell-style globs over scenario names;
* ``--set key=value`` — override a parameter of the selected scenarios
  (typed and validated by the kind's schema, before anything runs);
* ``--smoke`` — CI-sized runs (each kind's smoke overrides), plus a
  structural schema check of both the smoke payload and the checked-in
  artifact — drift in either direction fails.

**An artifact is written only at its config's own parameters.**  A run
resized with ``--set`` or ``--smoke`` prints its table and passes its gate
but leaves ``results/<artifact>.json`` untouched, so the checked-in
artifacts can only ever hold what their configs declare.  Runs are
deterministic: a full run writes exactly the bytes of the checked-in
artifact unless the config (or the simulation) changed.
"""

from __future__ import annotations

import fnmatch
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.report import load_results, results_dir, save_results
from .runners import KINDS, schema_failures
from .spec import ScenarioError, ScenarioSpec, load_scenario_file, parse_set_args

__all__ = [
    "config_dir",
    "discover_scenarios",
    "load_all_scenarios",
    "load_scenario",
    "run_scenario",
    "run_matrix",
]


def config_dir() -> str:
    """``configs/``, beside ``results/`` at the repo root."""
    return os.path.join(os.path.dirname(results_dir()), "configs")


def discover_scenarios(configs: Optional[str] = None) -> Dict[str, str]:
    """Map scenario-file stem -> path for every ``configs/*.json``."""
    root = configs or config_dir()
    if not os.path.isdir(root):
        raise ScenarioError(f"scenario config directory not found: {root}")
    out: Dict[str, str] = {}
    for entry in sorted(os.listdir(root)):
        if entry.endswith(".json"):
            out[entry[: -len(".json")]] = os.path.join(root, entry)
    if not out:
        raise ScenarioError(f"no scenario configs (*.json) under {root}")
    return out


def load_all_scenarios(configs: Optional[str] = None) -> Dict[str, ScenarioSpec]:
    """Load + validate every config; the file stem must match the
    ``scenario`` name inside (one file, one scenario, no aliasing)."""
    specs: Dict[str, ScenarioSpec] = {}
    for stem, path in discover_scenarios(configs).items():
        spec = load_scenario_file(path)
        if spec.name != stem:
            raise ScenarioError(
                f"{path}: file stem {stem!r} does not match scenario "
                f"name {spec.name!r}"
            )
        specs[stem] = spec
    return specs


def load_scenario(name: str) -> ScenarioSpec:
    """Load + validate the checked-in config of one scenario, by name."""
    paths = discover_scenarios()
    if name not in paths:
        raise ScenarioError(
            f"unknown scenario {name!r} (available: {', '.join(sorted(paths))})"
        )
    return load_scenario_file(paths[name])


def select_scenarios(patterns: Sequence[str],
                     specs: Dict[str, ScenarioSpec]) -> List[ScenarioSpec]:
    if not patterns or list(patterns) == ["all"]:
        return list(specs.values())
    chosen: Dict[str, ScenarioSpec] = {}
    for pattern in patterns:
        hits = fnmatch.filter(sorted(specs), pattern)
        if not hits:
            raise ScenarioError(
                f"no scenario matches {pattern!r} "
                f"(available: {', '.join(sorted(specs))})"
            )
        for name in hits:
            chosen[name] = specs[name]
    return list(chosen.values())


def run_scenario(
    spec_or_name: Any,
    overrides: Optional[Dict[str, Any]] = None,
    smoke: bool = False,
    save: bool = True,
    present: bool = True,
) -> Dict[str, Any]:
    """Run one scenario and return its payload — the single code path
    behind every experiment, and the single writer of ``results/``.

    ``results/<artifact>.json`` is written only when the resolved
    parameters equal the config's own: an overridden or ``smoke`` run
    presents and gates, then leaves the artifact untouched.  ``save=False``
    never writes (library callers that only want the payload).  Gate
    failures raise :class:`ScenarioError`.
    """
    spec = (
        spec_or_name if isinstance(spec_or_name, ScenarioSpec)
        else load_scenario(spec_or_name)
    )
    kind = KINDS[spec.kind]
    own = spec.resolved_params()
    params = spec.resolved_params(smoke=smoke, overrides=overrides)
    canonical = not smoke and params == own
    if canonical:
        # An override that repeats the config (``--set rates=40`` against
        # ``40.0``) must also repeat its bytes.
        params = own
    payload = kind.run(params)
    if present:
        kind.present(payload)
    if kind.gate is not None:
        failures = kind.gate(payload)
        if failures:
            raise ScenarioError(
                f"scenario {spec.name!r} gate failed: " + "; ".join(failures)
            )
    if canonical and save:
        save_results(spec.artifact, payload)
        print(f"results written to results/{spec.artifact}.json")
    elif save and not smoke:
        print(f"non-default parameters: results/{spec.artifact}.json left untouched")
    return payload


def _check_schema(spec: ScenarioSpec, payload: Dict[str, Any]) -> List[str]:
    """Structural drift check: the kind's probes must hold for both the
    fresh (smoke) payload and the checked-in artifact, so either side
    drifting away from the declared shape fails CI.  A kind with no probe
    at all fails too: it could drift unseen."""
    kind = KINDS[spec.kind]
    if not kind.required_keys:
        return [f"{spec.name}: kind declares no structural probe"]
    failures = schema_failures(
        payload, kind.required_keys, label=f"{spec.name} (regenerated)"
    )
    try:
        checked_in = load_results(spec.artifact)
    except json.JSONDecodeError as exc:
        return failures + [f"results/{spec.artifact}.json: not valid JSON ({exc})"]
    if checked_in is not None:
        failures += schema_failures(
            checked_in, kind.required_keys, label=f"{spec.name} (checked-in)"
        )
    return failures


def run_matrix(
    patterns: Sequence[str],
    smoke: bool = False,
    list_only: bool = False,
    sets: Sequence[str] = (),
) -> int:
    """Run a scenario selection; returns a process exit code.  ``sets``
    are ``--set key=value`` strings applied to every selected scenario;
    a bad selection, key or value exits 2 before anything runs."""
    try:
        chosen = select_scenarios(patterns, load_all_scenarios())
        overrides = {spec.name: parse_set_args(spec, sets) for spec in chosen}
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if list_only:
        width = max(len(s.name) for s in chosen)
        kind_width = max(len(s.kind) for s in chosen)
        for spec in chosen:
            ref = f" [{spec.paper_ref}]" if spec.paper_ref else ""
            print(f"{spec.name:{width}s}  {spec.kind:{kind_width}s} -> "
                  f"results/{spec.artifact}.json{ref}")
        return 0

    failures: List[Tuple[str, str]] = []
    ran = 0
    for spec in chosen:
        print(f"\n### {spec.name} ({spec.kind})"
              + (f" — {spec.title}" if spec.title else ""))
        try:
            payload = run_scenario(spec, overrides=overrides[spec.name], smoke=smoke)
            ran += 1
            if smoke:
                for msg in _check_schema(spec, payload):
                    failures.append((spec.name, f"schema drift: {msg}"))
        except ScenarioError as exc:
            failures.append((spec.name, str(exc)))
    print(f"\n{ran} scenario(s) ran"
          + (", smoke mode (no artifacts written)" if smoke else ""))
    for name, msg in failures:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    return 1 if failures else 0
