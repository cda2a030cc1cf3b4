"""Top-level static analyzer: from function source to a runnable f^rw.

This is the reproduction of the paper's Eunomia-based analyzer (§3.3, §4):
given a function's source it produces an :class:`AnalyzedFunction` bundling

* the compiled original ``f`` (wasm-lite),
* ``f^rw``, the backward slice of ``f`` (:mod:`repro.analysis.ir.slice`)
  that, executed on the same inputs against the near-user cache, returns
  the exact read/write set for that invocation — run through the IR
  optimizer (:mod:`repro.analysis.ir.optimizer`), whose rewrites are
  executed-gas non-increasing and rw-set preserving,
* the static facts Table 1 reports per function: does it write, is it
  analyzable, does it need the dependent-read optimization,
* the IR-level key-pattern summary feeding the shard-affinity fast path
  and the conflict matrix (:mod:`repro.analysis.ir.summary`).

``slice_ratio`` is measured on the compiled IR, not source lines: the
gas-weighted size of f^rw over the gas-weighted size of f (the pre- and
post-optimization ratios are both recorded; the f^rw latency model uses
runtime gas, so a smaller optimized body directly shrinks the speculation
phase).

Analysis failure (unsupported constructs, an access that depends on an
external service) is not fatal to the application: the runtime routes such
functions to the near-storage location on every invocation (§3.3, "Failure
case").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..errors import AnalysisError, CompileError, NonDeterminismError, VMError
from ..wasm import VM, WasmFunction, compile_source
from ..storage.fastcopy import fast_deepcopy
from .ir import (
    FunctionSummary,
    OptimizationReport,
    optimize,
    slice_frw,
    static_gas,
    summarize_function,
)
from .rwset import ReadWriteSet

__all__ = ["AnalyzedFunction", "analyze_source", "try_analyze", "derive_rwset", "CacheReader"]

#: Signature of the cache read hook handed to f^rw executions: returns the
#: cached value for (table, key) or None.
CacheReader = Callable[[str, str], Any]


@dataclass
class AnalyzedFunction:
    """Everything Radical knows about a registered function."""

    name: str
    f: WasmFunction
    frw: Optional[WasmFunction]
    writes: bool
    reads: bool
    dependent_reads: bool
    analyzable: bool
    slice_ratio: float
    error: Optional[str] = None
    #: The slice before the IR optimizer ran (``frw`` is the optimized
    #: body the runtime executes).
    frw_unoptimized: Optional[WasmFunction] = None
    #: Gas-weighted IR size ratio of the *optimized* f^rw over f;
    #: ``slice_ratio`` is the same ratio pre-optimization.
    slice_ratio_optimized: float = 1.0
    optimization: Optional[OptimizationReport] = None
    #: IR key-pattern summary of ``f`` (conflict matrix / shard affinity).
    summary: Optional[FunctionSummary] = None

    @property
    def single_shard_affine(self) -> bool:
        """Statically proven to touch one key per invocation (see
        :class:`~repro.analysis.ir.summary.FunctionSummary`)."""
        return self.summary is not None and self.summary.single_key


def analyze_source(source: str) -> AnalyzedFunction:
    """Analyze one function: compile, slice, optimize.  Raises
    :class:`AnalysisError` (or a compile error) if the function is outside
    the supported subset."""
    f = compile_source(source, kind="f")
    sliced = slice_frw(f)
    try:
        frw, report = optimize(sliced.frw)
    except AnalysisError as exc:
        raise AnalysisError(f"{f.name}: f^rw optimization failed: {exc}") from exc

    f_gas = max(1, static_gas(f))
    try:
        summary = summarize_function(f)
    except AnalysisError:
        summary = None

    return AnalyzedFunction(
        name=f.name,
        f=f,
        frw=frw,
        writes=sliced.writes,
        reads=sliced.reads,
        dependent_reads=sliced.dependent_reads,
        analyzable=True,
        slice_ratio=min(1.0, static_gas(sliced.frw) / f_gas),
        frw_unoptimized=sliced.frw,
        slice_ratio_optimized=min(1.0, static_gas(frw) / f_gas),
        optimization=report,
        summary=summary,
    )


def try_analyze(source: str) -> AnalyzedFunction:
    """Like :func:`analyze_source` but failure yields an unanalyzable
    function record instead of raising — only ``f`` is available, and the
    runtime will execute it near storage every time."""
    try:
        return analyze_source(source)
    except NonDeterminismError:
        raise  # the determinism contract is non-negotiable: reject upload
    except (AnalysisError, CompileError) as exc:
        f = compile_source(source, kind="f")
        return AnalyzedFunction(
            name=f.name,
            f=f,
            frw=None,
            writes=f.may_write(),
            reads=True,  # unknown; assume the worst
            dependent_reads=False,
            analyzable=False,
            slice_ratio=1.0,
            error=str(exc),
        )


class _FrwEnv:
    """Host environment for f^rw runs: reads hit the near-user cache,
    writes are recorded but never applied (§3.3)."""

    def __init__(self, cache_reader: CacheReader):
        self._read = cache_reader

    def db_get(self, table: str, key: str) -> Any:
        return self._read(table, key)

    def db_put(self, table: str, key: str, value: Any) -> None:  # pragma: no cover
        raise VMError("f^rw must not perform real writes")


def derive_rwset(
    frw: WasmFunction,
    args: List[Any],
    cache_reader: CacheReader,
    gas_limit: int = 2_000_000,
) -> tuple[ReadWriteSet, int]:
    """Execute f^rw on ``args`` and return (read/write set, gas used).

    Dependent reads execute against ``cache_reader``; if the cache lied,
    validation will catch it (§3.3: stale first reads guarantee the
    dependent keys also fail validation).

    ``args`` is deep-copied first: in the paper f^rw runs near the user and
    f near storage, so argument objects cross a serialization boundary and
    an f^rw-side mutation can never leak into f's execution.  Copying here
    models that boundary (and is what licenses the slicer to drop
    mutations of argument objects).
    """
    vm = VM(_FrwEnv(cache_reader), gas_limit=gas_limit)
    trace = vm.execute(frw, fast_deepcopy(args))
    rwset = ReadWriteSet.from_lists(trace.read_keys(), trace.write_keys())
    return rwset, trace.gas_used
