"""Static-analysis benchmark: replay the app corpus through the IR pipeline.

For every registered function in the five ported applications this module
measures what the analysis tentpole actually buys:

* **executed f^rw gas, before vs after the IR optimizer** — each function
  is replayed on seeded randomized inputs against its app's seeded store,
  and both slice bodies derive the rw-set; the optimized body must produce
  the *identical* rw-set for strictly-not-more gas, and neither may trap
  on an input ``f`` completes (any violation lands in ``checks`` and fails
  the smoke gate),
* **exactness** — the full ``f`` runs on the same inputs and the sanitizer
  (:func:`~repro.analysis.sanitizer.check_coverage`) verifies the
  prediction covers the actual trace; the corpus must show zero unsound
  executions and zero wasted locks (over-approximation),
* **static facts** — slice ratios (gas-weighted, pre/post optimization),
  per-function key-pattern summaries, the cross-function conflict matrix,
  the shard-affinity classification, and the three-way cross-validation
  between the IR extractor, the AST symbolic executor, and the sliced
  f^rw.

Everything is seeded (`random.Random(f"{seed}:{function_id}")` per
function, :class:`~repro.sim.RandomStreams` for the store seeding), so
``results/analysis.json`` is byte-reproducible.
"""

from __future__ import annotations

import copy
import random
import statistics
from typing import Any, Callable, Dict, List, Optional

from ..analysis import (
    build_conflict_matrix,
    check_coverage,
    cross_validate,
    derive_rwset,
    static_gas,
    symbolic_analyze,
)
from ..apps import all_apps
from ..core.registry import FunctionRegistry
from ..errors import VMError
from ..sim import RandomStreams
from ..storage.kvstore import KVStore
from ..wasm import VM
from .report import load_results

__all__ = [
    "EXPECTED_ANALYZABLE",
    "EXPECTED_LOCK_SKIPPABLE",
    "analysis_gate_failures",
    "baseline_density",
    "conflict_density",
    "run_analysis_corpus",
]

#: The seed corpus analyzes all 27 functions; a drop means an analyzer
#: regression (the smoke gate's "analyzable -> fallback" check).
EXPECTED_ANALYZABLE = 27

#: Floor on statically lock-skippable functions (read-only with a fully
#: precise conflict predicate): the seed corpus proves 14, so dropping
#: below 8 means the key-constraint analysis lost real precision.
EXPECTED_LOCK_SKIPPABLE = 8


class _ReplayEnv:
    """Host env for replaying ``f``: reads hit the seeded store through a
    read-your-writes buffer, writes never touch the store."""

    def __init__(self, read: Callable[[str, str], Any]):
        self._read = read
        self._writes: Dict[tuple, Any] = {}

    def db_get(self, table: str, key: str) -> Any:
        if (table, key) in self._writes:
            return copy.deepcopy(self._writes[(table, key)])
        return self._read(table, key)

    def db_put(self, table: str, key: str, value: Any) -> None:
        self._writes[(table, key)] = copy.deepcopy(value)


def _store_reader(store: KVStore) -> Callable[[str, str], Any]:
    def read(table: str, key: str) -> Any:
        item = store.get_or_none(table, key)
        return None if item is None else item.copy_value()

    return read


def _round(x: float) -> float:
    return round(x, 4)


def _mean(xs: List[float]) -> float:
    return statistics.mean(xs) if xs else 0.0


def conflict_density(matrix: Dict[str, Any]) -> float:
    """Fraction of distinct function pairs the matrix cannot prove
    non-conflicting — the precision figure the gate tracks.  Self-pairs
    are excluded (a writer trivially conflicts with itself), so a sharper
    analysis strictly lowers the number."""
    names = matrix["names"]
    total = len(names) * (len(names) - 1) // 2
    if not total:
        return 0.0
    conflicting = sum(1 for a, b in matrix["conflicting_pairs"] if a != b)
    return _round(conflicting / total)


def run_analysis_corpus(inputs_per_function: int, seed: int) -> Dict[str, Any]:
    """Replay the whole corpus and return the ``results/analysis.json``
    payload (see the module docstring for what it contains)."""
    registry = FunctionRegistry()
    rows: List[Dict[str, Any]] = []
    matrix_summaries = []
    unsound_total = 0
    gas_regressions: List[str] = []
    rwset_mismatches: List[str] = []
    cross_val_failures: List[str] = []

    for app in all_apps():
        store = KVStore(app.name)
        app.seed(store, RandomStreams(7), app.context)
        reader = _store_reader(store)
        for fn in app.functions:
            record = registry.register(fn.spec)
            analyzed = record.analyzed
            row: Dict[str, Any] = {
                "app": app.name,
                "function": fn.function_id,
                "analyzable": analyzed.analyzable,
                "writes": analyzed.writes,
                "dependent_reads": analyzed.dependent_reads,
                "service_time_ms": fn.spec.service_time_ms,
            }
            if not analyzed.analyzable:
                row["error"] = analyzed.error
                rows.append(row)
                continue

            row["slice_ratio"] = _round(analyzed.slice_ratio)
            row["slice_ratio_optimized"] = _round(analyzed.slice_ratio_optimized)
            row["static_gas"] = {
                "f": static_gas(analyzed.f),
                "frw": static_gas(analyzed.frw_unoptimized),
                "frw_optimized": static_gas(analyzed.frw),
            }
            if analyzed.optimization is not None:
                row["optimization"] = analyzed.optimization.to_dict()
            if analyzed.summary is not None:
                matrix_summaries.append(analyzed.summary)
                row["summary"] = analyzed.summary.to_dict()
                row["single_shard_affine"] = analyzed.single_shard_affine

            validation = cross_validate(
                analyzed.f,
                analyzed.frw,
                symbolic_analyze(fn.spec.source),
            )
            row["cross_validation"] = validation.to_dict()
            if not validation.consistent:
                cross_val_failures.append(fn.function_id)

            # Replay: derive the rw-set with both slice bodies, then run
            # the full f under the sanitizer.
            rng = random.Random(f"{seed}:{fn.function_id}")
            gas_unopt: List[int] = []
            gas_opt: List[int] = []
            wasted: List[int] = []
            unsound_here = 0
            for _ in range(inputs_per_function):
                args = fn.arggen(app.context, rng)
                try:
                    rw_before, g_before = derive_rwset(
                        analyzed.frw_unoptimized, list(args), reader
                    )
                    rw_after, g_after = derive_rwset(analyzed.frw, list(args), reader)
                except VMError:
                    # f^rw failed where f completes: no rw-set to compare.
                    rwset_mismatches.append(fn.function_id)
                    continue
                gas_unopt.append(g_before)
                gas_opt.append(g_after)
                if rw_before != rw_after:
                    rwset_mismatches.append(fn.function_id)
                if g_after > g_before:
                    gas_regressions.append(fn.function_id)
                trace = VM(_ReplayEnv(reader)).execute(analyzed.f, list(args))
                report = check_coverage(fn.function_id, rw_after, trace)
                if not report.sound:
                    unsound_here += 1
                wasted.append(report.wasted_locks)

            mean_before = _mean(gas_unopt)
            mean_after = _mean(gas_opt)
            reduction = (
                100.0 * (mean_before - mean_after) / mean_before if mean_before else 0.0
            )
            row["replay"] = {
                "inputs": inputs_per_function,
                "frw_gas_mean": _round(mean_before),
                "frw_gas_mean_optimized": _round(mean_after),
                "gas_reduction_pct": _round(reduction),
                "unsound": unsound_here,
                "wasted_locks_mean": _round(_mean(wasted)),
            }
            unsound_total += unsound_here
            rows.append(row)

    rows.sort(key=lambda r: r["function"])
    reductions = [
        r["replay"]["gas_reduction_pct"] for r in rows if "replay" in r
    ]
    nonzero = [x for x in reductions if x > 0.0]
    matrix = build_conflict_matrix(
        sorted(matrix_summaries, key=lambda s: s.name)
    )
    kind_totals: Dict[str, int] = {}
    for r in rows:
        for kind, n in r.get("summary", {}).get("constraint_kinds", {}).items():
            kind_totals[kind] = kind_totals.get(kind, 0) + n
    matrix_dict = matrix.to_dict()
    aggregate = {
        "functions": len(rows),
        "analyzable": sum(1 for r in rows if r["analyzable"]),
        "single_shard_affine": sum(1 for r in rows if r.get("single_shard_affine")),
        "lock_skippable": sum(
            1 for r in rows if r.get("summary", {}).get("lock_skippable")
        ),
        "commutative_writes": sum(
            1 for r in rows if r.get("summary", {}).get("commutative_writes")
        ),
        "constraint_kinds": kind_totals,
        "conflict_density": conflict_density(matrix_dict),
        "static_key_functions": sorted(
            r["function"]
            for r in rows
            if r.get("summary", {}).get("static_key") is not None
        ),
        "gas_reduction_pct": {
            "median": _round(statistics.median(reductions)) if reductions else 0.0,
            "mean": _round(statistics.mean(reductions)) if reductions else 0.0,
            "median_nonzero": _round(statistics.median(nonzero)) if nonzero else 0.0,
            "functions_improved": len(nonzero),
        },
        "slice_ratio_median": _round(
            statistics.median(r["slice_ratio"] for r in rows if "slice_ratio" in r)
        ),
        "slice_ratio_optimized_median": _round(
            statistics.median(
                r["slice_ratio_optimized"] for r in rows if "slice_ratio_optimized" in r
            )
        ),
        "unsound_executions": unsound_total,
    }
    return {
        "seed": seed,
        "inputs_per_function": inputs_per_function,
        "functions": rows,
        "aggregate": aggregate,
        "conflict_matrix": matrix_dict,
        "checks": {
            "unsound_executions": unsound_total,
            "gas_regressions": sorted(set(gas_regressions)),
            "rwset_mismatches": sorted(set(rwset_mismatches)),
            "cross_validation_failures": sorted(set(cross_val_failures)),
        },
    }


def baseline_density() -> Optional[float]:
    """Conflict density of the checked-in ``results/analysis.json`` (the
    precision the gate defends), or None when no artifact exists yet."""
    matrix = (load_results("analysis") or {}).get("conflict_matrix")
    if not matrix or "names" not in matrix:
        return None
    return conflict_density(matrix)


def analysis_gate_failures(payload: Dict[str, Any]) -> List[str]:
    """The smoke gate: the reasons this corpus run must fail CI (empty
    list = healthy).  Checked facts: no function regressed from analyzable
    to fallback, optimized gas never exceeds unoptimized, optimized and
    unoptimized slices agree on every rw-set and never trap, zero unsound
    executions, zero wasted locks (the derived rw-set is exact), the three
    engines cross-validate, enough of the corpus stays
    lock-skippable, and the conflict matrix never gets *denser* than the
    checked-in artifact (precision is a ratchet, not a suggestion)."""
    problems: List[str] = []
    checks = payload["checks"]
    agg = payload["aggregate"]
    expected = EXPECTED_ANALYZABLE
    if agg["analyzable"] < expected:
        problems.append(
            f"analyzable regression: {agg['analyzable']}/{agg['functions']} "
            f"functions analyzable, expected at least {expected}"
        )
    skippable = agg.get("lock_skippable", 0)
    if skippable < EXPECTED_LOCK_SKIPPABLE:
        problems.append(
            f"lock-skippable regression: {skippable} function(s), expected "
            f"at least {EXPECTED_LOCK_SKIPPABLE}"
        )
    checked_in = baseline_density()
    density = agg.get("conflict_density")
    if checked_in is not None and density is not None and density > checked_in + 1e-9:
        problems.append(
            f"conflict matrix got denser: {density} vs checked-in "
            f"{checked_in} (analysis lost precision)"
        )
    if checks["gas_regressions"]:
        problems.append(f"optimized gas above unoptimized: {checks['gas_regressions']}")
    if checks["rwset_mismatches"]:
        problems.append(
            f"f^rw rw-sets disagree or trap: {checks['rwset_mismatches']}"
        )
    if checks["unsound_executions"]:
        problems.append(f"{checks['unsound_executions']} unsound execution(s)")
    wasteful = [
        r["function"] for r in payload["functions"]
        if r.get("replay", {}).get("wasted_locks_mean", 0) > 0
    ]
    if wasteful:
        problems.append(f"wasted locks (rw-set over-approximated): {wasteful}")
    if checks["cross_validation_failures"]:
        problems.append(
            f"cross-validation disagreement: {checks['cross_validation_failures']}"
        )
    return problems
