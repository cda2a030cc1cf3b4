"""Scenario specs: schema-validated, declarative experiment descriptions.

One JSON file under ``configs/`` per paper artifact (table, figure, sweep,
chaos matrix).  A spec names a *kind* (the runner that knows how to build
and drive the deployment), the parameters that kind accepts, the output
artifact under ``results/``, and optionally reduced ``smoke`` overrides
for CI.  Validation is strict — unknown keys, missing required fields,
wrongly typed parameters, and any value a parameter's ``check`` rejects
(bad fault plans, bad RTT dataset references, unknown apps or shapes)
all fail at load time with messages that name the file and the
offending field, never mid-simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

__all__ = [
    "ParamSpec",
    "ScenarioError",
    "ScenarioSpec",
    "load_scenario_file",
    "parse_fault_plan",
    "parse_scenario",
    "parse_set_args",
]

#: Top-level keys a scenario file may carry.
_TOP_LEVEL_REQUIRED = ("scenario", "kind", "artifact")
_TOP_LEVEL_OPTIONAL = ("title", "description", "paper_ref", "params", "smoke")


class ScenarioError(ValueError):
    """A scenario config is malformed.  The message always names the
    scenario (or file) and the field that failed."""


@dataclass(frozen=True)
class ParamSpec:
    """Schema for one parameter a scenario kind accepts."""

    #: "int" | "float" | "number" | "str" | "bool" | "list" | "dict" | "any"
    type: str
    default: Any = None
    #: For lists: required element type ("number", "str", "int", "dict").
    element: Optional[str] = None
    #: Value check: fn(value) raises on bad input; the message is reported
    #: after the config location and the parameter's name.
    check: Optional[Callable[[Any], Any]] = None


_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, (list, tuple)),
    "dict": lambda v: isinstance(v, dict),
    "any": lambda v: True,
}


@dataclass
class ScenarioSpec:
    """A validated scenario: everything the driver needs to run it."""

    name: str
    kind: str
    artifact: str
    params: Dict[str, Any] = field(default_factory=dict)
    smoke_params: Dict[str, Any] = field(default_factory=dict)
    title: str = ""
    description: str = ""
    paper_ref: str = ""
    path: Optional[str] = None

    def resolved_params(self, smoke: bool = False,
                        overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Effective parameters: defaults < config < smoke < overrides."""
        from .runners import KINDS

        kind = KINDS[self.kind]
        out = {name: p.default for name, p in kind.params.items()}
        out.update(self.params)
        if smoke:
            out.update(kind.smoke_defaults)
            out.update(self.smoke_params)
        if overrides:
            unknown = set(overrides) - set(kind.params)
            if unknown:
                raise ScenarioError(
                    f"scenario {self.name!r}: unknown override(s) "
                    f"{', '.join(sorted(unknown))} for kind {self.kind!r}"
                )
            out.update({k: v for k, v in overrides.items() if v is not None})
        return out


# -- ``--set key=value`` overrides -------------------------------------------

def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("true", "1", "yes", "on"):
        return True
    if word in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SCALAR_COERCIONS = {
    "int": int, "float": float, "number": float, "str": str, "bool": _parse_bool,
}


def _coerce(type_: Optional[str], raw: str) -> Any:
    if type_ in _SCALAR_COERCIONS:
        return _SCALAR_COERCIONS[type_](raw)
    # dict / any / an untyped list written as JSON: JSON when it parses,
    # the raw string otherwise (``plans=all``, ``plans=surge-jp,gray-limp``).
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_set_args(spec: ScenarioSpec, items: Sequence[str]) -> Dict[str, Any]:
    """Turn ``--set key=value`` strings into a validated override dict.

    The value is coerced by the :class:`ParamSpec` its kind declares for
    ``key``: a ``list`` is comma-split and each item coerced by
    ``element`` (or given whole as a JSON array), ``int`` / ``number`` /
    ``bool`` are parsed, ``dict`` / ``any`` are read as JSON with the raw
    string as the fallback.  The result then passes the same unknown-key,
    type and ``check`` validation as a config file; any problem
    raises :class:`ScenarioError` naming the scenario and the keys its
    kind accepts.
    """
    from .runners import KINDS

    schema = KINDS[spec.kind].params
    where = f"scenario {spec.name!r}"
    overrides: Dict[str, Any] = {}
    for item in items:
        key, eq, raw = item.partition("=")
        if not eq or not key:
            raise ScenarioError(f"{where}: --set expects KEY=VALUE, got {item!r}")
        p = schema.get(key)
        try:
            if p is None:
                overrides[key] = raw  # unknown: _check_params names the accepted keys
            elif p.type == "list" and not raw.lstrip().startswith("["):
                overrides[key] = [
                    _coerce(p.element or "str", part.strip())
                    for part in raw.split(",") if part.strip()
                ]
            else:
                overrides[key] = _coerce(p.type, raw)
        except ValueError:
            raise ScenarioError(
                f"{where}: --set {key}={raw!r}: expected "
                f"{p.type}{f' of {p.element}' if p.element else ''} "
                f"(accepted: {', '.join(sorted(schema))})"
            ) from None
    _check_params(where, spec.kind, overrides, schema)
    return overrides


def _check_params(where: str, kind_name: str, params: Dict[str, Any],
                  schema: Dict[str, ParamSpec]) -> None:
    unknown = set(params) - set(schema)
    if unknown:
        raise ScenarioError(
            f"{where}: unknown parameter(s) for kind {kind_name!r}: "
            f"{', '.join(sorted(unknown))} "
            f"(accepted: {', '.join(sorted(schema)) or 'none'})"
        )
    for name, value in params.items():
        p = schema[name]
        if value is None:
            continue
        if not _TYPE_CHECKS[p.type](value):
            raise ScenarioError(
                f"{where}: parameter {name!r} must be {p.type}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if p.type == "list" and p.element is not None:
            for i, item in enumerate(value):
                if not _TYPE_CHECKS[p.element](item):
                    raise ScenarioError(
                        f"{where}: parameter {name!r}[{i}] must be "
                        f"{p.element}, got {type(item).__name__} ({item!r})"
                    )
        if p.check is not None:
            try:
                p.check(value)
            except Exception as exc:
                raise ScenarioError(
                    f"{where}: parameter {name!r}: {exc}"
                ) from None


def parse_scenario(raw: Any, source: str = "<inline>") -> ScenarioSpec:
    """Validate a raw (JSON-decoded) scenario and return the spec.

    Raises :class:`ScenarioError` with an actionable message on any
    problem: unknown keys, missing fields, unknown kind, bad parameter
    types/values, bad RTT dataset references, malformed or conflicting
    fault plans.
    """
    from .runners import KINDS

    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: scenario config must be a JSON object")
    unknown = set(raw) - set(_TOP_LEVEL_REQUIRED) - set(_TOP_LEVEL_OPTIONAL)
    if unknown:
        raise ScenarioError(
            f"{source}: unknown top-level key(s): {', '.join(sorted(unknown))} "
            f"(accepted: {', '.join(_TOP_LEVEL_REQUIRED + _TOP_LEVEL_OPTIONAL)})"
        )
    missing = [k for k in _TOP_LEVEL_REQUIRED if k not in raw]
    if missing:
        raise ScenarioError(
            f"{source}: missing required key(s): {', '.join(missing)}"
        )
    for key in ("scenario", "kind", "artifact"):
        if not isinstance(raw[key], str) or not raw[key]:
            raise ScenarioError(f"{source}: {key!r} must be a non-empty string")
    name, kind_name = raw["scenario"], raw["kind"]
    where = f"{source} (scenario {name!r})"
    if kind_name not in KINDS:
        raise ScenarioError(
            f"{where}: unknown kind {kind_name!r} "
            f"(available: {', '.join(sorted(KINDS))})"
        )
    kind = KINDS[kind_name]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{where}: 'params' must be an object")
    smoke = raw.get("smoke", {})
    if not isinstance(smoke, dict):
        raise ScenarioError(f"{where}: 'smoke' must be an object")
    _check_params(where, kind_name, params, kind.params)
    _check_params(where, kind_name, smoke, kind.params)
    return ScenarioSpec(
        name=name,
        kind=kind_name,
        artifact=raw["artifact"],
        params=dict(params),
        smoke_params=dict(smoke),
        title=raw.get("title", ""),
        description=raw.get("description", ""),
        paper_ref=raw.get("paper_ref", ""),
        path=None if source == "<inline>" else source,
    )


def load_scenario_file(path: str) -> ScenarioSpec:
    """Load + validate one ``configs/*.json`` scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario config not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return parse_scenario(raw, source=path)


# -- inline fault plans ------------------------------------------------------

def parse_fault_plan(raw: Any, where: str = "<inline plan>") -> Any:
    """Parse an inline fault-plan dict into a validated ``FaultPlan``.

    Shape::

        {"name": "my-plan", "description": "...",
         "replicated": false, "overload": false, "mesh": false,
         "actions": [{"kind": "drop", "src": "jp", "dst": "va",
                      "start_ms": 100, "end_ms": 400}, ...]}

    Action fields beyond ``kind`` map onto the matching window dataclass;
    unknown or missing fields, wrongly typed fields, and conflicting
    windows (overlapping windows driving the same knob of the same link)
    are rejected here, before any deployment is built.  The heavy lifting
    lives in :func:`repro.faults.serde.plan_from_dict`; this wrapper just
    re-raises as :class:`ScenarioError` with the config location.
    """
    from ..errors import FaultConfigError
    from ..faults import serde

    try:
        return serde.plan_from_dict(raw, where=where)
    except FaultConfigError as exc:
        raise ScenarioError(str(exc)) from None
