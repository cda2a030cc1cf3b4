"""Coverage-guided search over the fault-schedule space.

FoundationDB-style simulation testing for the Radical stack: because the
whole system runs on a deterministic virtual-time simulator, a fault
schedule plus a seed *is* the bug report.  The explorer

1. samples random :class:`FaultPlan` s from the seeded generator (or
   mutates a previously interesting one),
2. runs each through :func:`~repro.faults.chaos.run_chaos_case` on one
   of the deployment shapes (seed / sharded / replicated / mesh) with
   every verdict of :func:`repro.consistency.verdicts` plus the run's own
   (completed, deadline) as the invariant set,
3. extracts a **coverage signature** from the run's metrics counters
   (which fault kinds fired, which protocol paths ran, which recovery
   transitions happened, bucketed by magnitude), and keeps schedules
   that reached novel coverage in a pool the mutator feeds on — the
   AFL trick, pointed at fault interleavings instead of branches,
4. delta-debugs any violating schedule to a minimal reproducer
   (:func:`~repro.faults.shrink.shrink_plan`) and serializes it to a
   ``corpus/`` directory that CI replays forever.

Everything is driven by one seeded RNG and virtual time, so the same
(seed, budget, shapes) triple produces byte-identical results.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import FaultConfigError
from .generate import SHAPES, ScheduleGenerator
from .plan import FaultPlan, _describe
from .serde import plan_from_dict, plan_hash, plan_to_dict
from .shrink import shrink_plan

__all__ = [
    "CORPUS_SCHEMA",
    "ExplorationResult",
    "explore",
    "load_corpus",
    "replay_corpus",
]

CORPUS_SCHEMA = 1

#: Counter magnitudes collapse into log2 buckets (0, 1, 2-3, 4-7, ...,
#: capped) so "retried 7 times" and "retried 6 times" are the same state
#: but "retried once" and "retried 50 times" are not.
_BUCKET_CAP = 6


def _bucket(count: int) -> int:
    return min(count.bit_length(), _BUCKET_CAP)


def _signature(shape: str, counters: Dict[str, int]) -> Tuple[str, ...]:
    """The run's coverage signature: every non-zero counter, bucketed,
    qualified by deployment shape (a crash on the mesh is a different
    state than a crash on the seed topology)."""
    return tuple(sorted(
        f"{shape}:{name}:{_bucket(count)}"
        for name, count in counters.items() if count
    ))


@dataclasses.dataclass
class ExplorationResult:
    """Everything one ``explore()`` call learned."""

    budget: int
    seed: int
    shapes: Tuple[str, ...]
    requests_per_client: int
    clients_per_region: int
    schedules_tried: int = 0
    novel_schedules: int = 0
    #: cumulative distinct-feature count after each case (the curve).
    coverage_curve: List[int] = dataclasses.field(default_factory=list)
    #: all features ever seen, sorted.
    features: List[str] = dataclasses.field(default_factory=list)
    #: distinct full-run signatures (distinct states reached).
    distinct_signatures: int = 0
    #: violating schedules, already shrunk; [] on a green run.
    violations: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: the novelty pool: schedules that reached new coverage.
    pool: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "shapes": list(self.shapes),
            "requests_per_client": self.requests_per_client,
            "clients_per_region": self.clients_per_region,
            "schedules_tried": self.schedules_tried,
            "novel_schedules": self.novel_schedules,
            "coverage": {
                "curve": self.coverage_curve,
                "features": self.features,
                "distinct_signatures": self.distinct_signatures,
            },
            "violations": self.violations,
            "pool": self.pool,
        }


def _shape_kwargs(shape: str) -> Dict[str, Any]:
    return {"shards": 2} if shape == "sharded" else {}


def _run_case(plan: FaultPlan, shape: str, case_seed: int,
              requests_per_client: int, clients_per_region: int):
    """(result, counters, violation-or-None); a harness crash is a
    violation too — it means the schedule found an unhandled state."""
    from .chaos import run_chaos_case

    captured: Dict[str, int] = {}
    try:
        result = run_chaos_case(
            plan, case_seed,
            requests_per_client=requests_per_client,
            clients_per_region=clients_per_region,
            on_metrics=lambda m: captured.update(m.counters()),
            **_shape_kwargs(shape),
        )
    except Exception as exc:  # noqa: BLE001 - the oracle must be total
        return None, captured, f"harness exception: {type(exc).__name__}: {exc}"
    return result, captured, None if result.ok else result.violation


def explore(
    budget: int = 48,
    seed: int = 7,
    shapes: Sequence[str] = SHAPES,
    requests_per_client: int = 12,
    clients_per_region: int = 1,
    corpus_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ExplorationResult:
    """Search ``budget`` schedules across ``shapes``; return the record.

    Shapes are swept round-robin so a small budget still touches each
    one.  When the novelty pool is non-empty, roughly half the candidates
    are mutations of pooled schedules instead of fresh samples — the
    coverage signal biasing search toward new states.  Violations are
    shrunk to minimal reproducers; with ``corpus_dir`` set, each is also
    written there as a replayable JSON file keyed by its content hash.
    """
    for shape in shapes:
        if shape not in SHAPES:
            raise FaultConfigError(
                f"unknown deployment shape {shape!r} "
                f"(available: {', '.join(SHAPES)})"
            )
    gen = ScheduleGenerator(seed)
    record = ExplorationResult(
        budget=budget, seed=seed, shapes=tuple(shapes),
        requests_per_client=requests_per_client,
        clients_per_region=clients_per_region,
    )
    seen_features: set = set()
    seen_signatures: set = set()
    seen_hashes: set = set()

    for i in range(budget):
        shape = shapes[i % len(shapes)]
        pooled = [p for p in record.pool if p["shape"] == shape]
        if pooled and gen.rng.random() < 0.5:
            parent = plan_from_dict(
                gen.rng.choice(pooled)["plan"], where="<pool>"
            )
            plan = gen.mutate(parent, shape)
        else:
            plan = gen.sample(shape)
        if plan_hash(plan) in seen_hashes:
            plan = gen.mutate(plan, shape)
        seen_hashes.add(plan_hash(plan))
        case_seed = gen.rng.randrange(1_000)

        result, counters, violation = _run_case(
            plan, shape, case_seed, requests_per_client, clients_per_region
        )
        record.schedules_tried += 1
        sig = _signature(shape, counters)
        seen_signatures.add(sig)
        new_features = sorted(set(sig) - seen_features)
        if new_features:
            record.novel_schedules += 1
            seen_features.update(new_features)
            record.pool.append({
                "hash": plan_hash(plan),
                "shape": shape,
                "name": plan.name,
                "seed": case_seed,
                "windows": [_describe(a) for a in plan.actions],
                "new_features": new_features,
                "plan": plan_to_dict(plan),
            })
        record.coverage_curve.append(len(seen_features))

        if violation is not None:
            if log:
                log(f"[{i + 1}/{budget}] {plan.name} on {shape} seed "
                    f"{case_seed}: VIOLATION — {violation}; shrinking")
            entry = _shrink_and_record(
                plan, shape, case_seed, requests_per_client,
                clients_per_region, violation,
            )
            record.violations.append(entry)
            if corpus_dir is not None:
                write_corpus_entry(corpus_dir, entry)
        elif log:
            log(f"[{i + 1}/{budget}] {plan.name} on {shape} seed "
                f"{case_seed}: ok, +{len(new_features)} features")

    record.features = sorted(seen_features)
    record.distinct_signatures = len(seen_signatures)
    return record


def _shrink_and_record(
    plan: FaultPlan, shape: str, case_seed: int,
    requests_per_client: int, clients_per_region: int, violation: str,
) -> Dict[str, Any]:
    def still_fails(candidate: FaultPlan) -> bool:
        _, _, v = _run_case(
            candidate, shape, case_seed, requests_per_client,
            clients_per_region,
        )
        return v is not None

    minimal = shrink_plan(plan, still_fails)
    _, _, min_violation = _run_case(
        minimal, shape, case_seed, requests_per_client, clients_per_region
    )
    return {
        "schema": CORPUS_SCHEMA,
        "hash": plan_hash(minimal),
        "shape": shape,
        "seed": case_seed,
        "requests_per_client": requests_per_client,
        "clients_per_region": clients_per_region,
        "violation": min_violation or violation,
        "original_windows": len(plan.actions),
        "minimal_windows": len(minimal.actions),
        "plan": plan_to_dict(minimal),
    }


# -- the regression corpus ---------------------------------------------------

def write_corpus_entry(corpus_dir: str, entry: Dict[str, Any]) -> str:
    """Persist one minimized reproducer as ``<hash>.json``."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"{entry['hash']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_corpus(corpus_dir: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Load every reproducer, integrity-checked: the stored hash must
    match the stored plan (a hand-edited entry fails loudly)."""
    if not os.path.isdir(corpus_dir):
        raise FaultConfigError(f"corpus directory not found: {corpus_dir}")
    entries: List[Tuple[str, Dict[str, Any]]] = []
    for fname in sorted(os.listdir(corpus_dir)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, fname)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                entry = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FaultConfigError(f"{path}: not valid JSON ({exc})") from None
        for key in ("schema", "hash", "shape", "seed", "plan"):
            if key not in entry:
                raise FaultConfigError(f"{path}: missing corpus key {key!r}")
        if entry["schema"] != CORPUS_SCHEMA:
            raise FaultConfigError(
                f"{path}: corpus schema {entry['schema']} != {CORPUS_SCHEMA}"
            )
        plan = plan_from_dict(entry["plan"], where=path)
        if plan_hash(plan) != entry["hash"]:
            raise FaultConfigError(
                f"{path}: content hash mismatch — file says {entry['hash']}, "
                f"plan hashes to {plan_hash(plan)}"
            )
        if entry["shape"] not in SHAPES:
            raise FaultConfigError(
                f"{path}: unknown deployment shape {entry['shape']!r}"
            )
        entries.append((path, entry))
    return entries


def replay_corpus(
    corpus_dir: str, log: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Re-run every corpus reproducer; each row reports ok/violation.

    A checked-in reproducer documents a *fixed* bug, so replays must be
    green: any red row means a regression resurrected the schedule.
    """
    rows: List[Dict[str, Any]] = []
    for path, entry in load_corpus(corpus_dir):
        plan = plan_from_dict(entry["plan"], where=path)
        _, _, violation = _run_case(
            plan, entry["shape"], entry["seed"],
            entry.get("requests_per_client", 12),
            entry.get("clients_per_region", 1),
        )
        rows.append({
            "file": os.path.basename(path),
            "hash": entry["hash"],
            "shape": entry["shape"],
            "seed": entry["seed"],
            "ok": violation is None,
            "violation": violation,
        })
        if log:
            status = "ok" if violation is None else f"FAIL — {violation}"
            log(f"{os.path.basename(path)} [{entry['shape']}] {status}")
    return rows
