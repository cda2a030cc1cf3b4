"""Deterministic fault injection: plans, scheduling, retries, chaos.

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` windows
  (partitions, drops, duplicates, delays, followup loss, crash/restart).
* :mod:`repro.faults.scheduler` — :class:`FaultScheduler` replays a plan
  against a live deployment at exact virtual times, emitting every
  injection through the observability spine.
* :mod:`repro.faults.retry` — :class:`RetryPolicy` (deterministic
  backoff + jitter) and :class:`CircuitBreaker` (the degradation ladder
  speculative -> direct -> ``UnavailableError``).
* :mod:`repro.faults.chaos` — the seeds x plans harness behind the
  ``chaos*`` scenarios (``radical-repro run chaos``); proves strict
  serializability and exactly-once writes under every plan.

``chaos`` is imported lazily (PEP 562): it builds full deployments from
:mod:`repro.core`, which itself imports the retry policies from here.
"""

from .plan import (
    CrashWindow,
    DelayWindow,
    DropWindow,
    DuplicateWindow,
    FaultAction,
    FaultPlan,
    FollowupLossWindow,
    MigrationWindow,
    PartitionWindow,
    PoPCrashWindow,
    PoPPartitionWindow,
    SlowServerWindow,
    SurgeWindow,
)
from .retry import CLOSED, HALF_OPEN, OPEN, AdaptiveLimiter, CircuitBreaker, RetryPolicy
from .scheduler import FaultScheduler
from .serde import (
    WINDOW_KINDS,
    action_from_dict,
    action_to_dict,
    load_plan_file,
    plan_from_dict,
    plan_hash,
    plan_to_dict,
)

__all__ = [
    "CrashWindow",
    "DelayWindow",
    "DropWindow",
    "DuplicateWindow",
    "FaultAction",
    "FaultPlan",
    "FollowupLossWindow",
    "MigrationWindow",
    "PartitionWindow",
    "PoPCrashWindow",
    "PoPPartitionWindow",
    "SurgeWindow",
    "SlowServerWindow",
    "RetryPolicy",
    "CircuitBreaker",
    "AdaptiveLimiter",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "FaultScheduler",
    "WINDOW_KINDS",
    "action_to_dict",
    "action_from_dict",
    "plan_to_dict",
    "plan_from_dict",
    "plan_hash",
    "load_plan_file",
    # lazily resolved from .chaos:
    "ChaosCaseResult",
    "chaos_config",
    "run_chaos_case",
    "run_chaos_matrix",
    "builtin_plans",
    "resolve_plans",
    # lazily resolved from .generate / .shrink / .explorer:
    "ScheduleGenerator",
    "shrink_plan",
    "ExplorationResult",
    "explore",
    "load_corpus",
    "replay_corpus",
]

_CHAOS_EXPORTS = {
    "ChaosCaseResult",
    "chaos_config",
    "run_chaos_case",
    "run_chaos_matrix",
    "builtin_plans",
    "resolve_plans",
}

# These pull in .chaos (and through it repro.core), so they stay lazy for
# the same reason the chaos exports do.
_EXPLORER_EXPORTS = {
    "ScheduleGenerator": "generate",
    "shrink_plan": "shrink",
    "ExplorationResult": "explorer",
    "explore": "explorer",
    "load_corpus": "explorer",
    "replay_corpus": "explorer",
}


def __getattr__(name):
    if name in _CHAOS_EXPORTS:
        from . import chaos

        return getattr(chaos, name)
    if name in _EXPLORER_EXPORTS:
        import importlib

        mod = importlib.import_module(f".{_EXPLORER_EXPORTS[name]}", __name__)
        return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
