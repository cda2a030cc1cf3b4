"""IR-level analysis over compiled wasm-lite instruction streams.

The AST symbolic executor (:mod:`repro.analysis.symbolic`) reasons about
*source*; this package reasons about the artifact the VM actually executes
and meters with gas — mirroring the paper's analyzer, which operates on the
compiled WASM binary (§3.3, §4).  f^rw itself is derived here.

Layers, bottom up:

* :mod:`~repro.analysis.ir.cfg` — basic blocks, successor edges,
  dominators, post-dominators, and static gas weights over a :class:`~repro.wasm.ir.WasmFunction`.
* :mod:`~repro.analysis.ir.dataflow` — a generic worklist solver plus the
  instances the slice and the key summaries use (reaching definitions,
  liveness, integer intervals).
* :mod:`~repro.analysis.ir.slice` — f^rw as a backward slice of the
  compiled ``f``: seeded at every storage access, closed under data,
  alias and control dependence, emitted with ``RW_READ`` / ``RW_WRITE``
  (table and key only) in place of the accesses.  The slice *is* f^rw:
  nothing rewrites it afterwards.
* :mod:`~repro.analysis.ir.access` — storage access sites (``DB_GET`` /
  ``DB_PUT`` / ``RW_*``) with back-traced key operands, cross-validated
  against the AST symbolic report.
* :mod:`~repro.analysis.ir.summary` — per-function key-pattern summaries,
  the cross-function conflict matrix, the shard-affinity predictor, and
  the argument-sensitive conflict predicates (read-only / commutative
  classification, instantiable key constraints) behind the router's
  in-network conflict detection.
"""

from .cfg import CFG, BasicBlock, build_cfg, static_gas
from .dataflow import (
    DataflowAnalysis,
    IntervalAnalysis,
    Liveness,
    ReachingDefinitions,
    access_key_intervals,
    solve,
)
from .slice import FrwSlice, slice_frw
from .access import IRAccessSite, CrossValidation, SymValue, extract_access_sites, cross_validate
from .summary import (
    ConflictMatrix,
    ConflictPredicate,
    FunctionSummary,
    KeyConstraint,
    KeyFact,
    KeyPattern,
    RequestFacts,
    build_conflict_matrix,
    conflict_witness,
    summarize_function,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "ConflictMatrix",
    "ConflictPredicate",
    "CrossValidation",
    "DataflowAnalysis",
    "FrwSlice",
    "FunctionSummary",
    "IRAccessSite",
    "IntervalAnalysis",
    "KeyConstraint",
    "KeyFact",
    "KeyPattern",
    "Liveness",
    "ReachingDefinitions",
    "RequestFacts",
    "SymValue",
    "access_key_intervals",
    "build_cfg",
    "build_conflict_matrix",
    "conflict_witness",
    "cross_validate",
    "extract_access_sites",
    "slice_frw",
    "solve",
    "static_gas",
    "summarize_function",
]
