"""IR-level analysis over compiled wasm-lite instruction streams.

This package reasons about the artifact the VM actually executes and
meters with gas, as the paper's analyzer does with the compiled WASM
binary (§3.3, §4).  f^rw itself is derived here.

Layers, bottom up:

* :mod:`~repro.analysis.ir.cfg` — basic blocks, successor edges,
  dominators, post-dominators, loops and static gas weights.
* :mod:`~repro.analysis.ir.dataflow` — the generic worklist solver plus
  reaching definitions and liveness, which the slice uses.
* :mod:`~repro.analysis.ir.slice` — f^rw as a backward slice of the
  compiled ``f``: seeded at every storage access, closed under data,
  alias and control dependence, emitted with ``RW_READ`` / ``RW_WRITE``
  (table and key only) in place of the accesses.  The slice *is* f^rw:
  nothing rewrites it afterwards.
* :mod:`~repro.analysis.ir.access` — the one key-shape engine:
  :class:`KeyShapeAnalysis`, solved by :func:`solve`, gives every storage
  access site its table, key shape and key span.  The sites are
  cross-validated against the AST symbolic report.
* :mod:`~repro.analysis.ir.summary` — per-function key-pattern summaries,
  the cross-function conflict matrix, the shard-affinity predictor, and
  the argument-sensitive conflict predicates (read-only / commutative
  classification, instantiable key constraints) behind the router's
  in-network conflict detection.
"""

from .cfg import CFG, BasicBlock, build_cfg, static_gas
from .dataflow import DataflowAnalysis, Liveness, ReachingDefinitions, solve
from .slice import FrwSlice, slice_frw
from .access import (
    CrossValidation,
    IRAccessSite,
    KeyShapeAnalysis,
    SymValue,
    cross_validate,
    extract_access_sites,
)
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
    "KeyConstraint",
    "KeyFact",
    "KeyPattern",
    "KeyShapeAnalysis",
    "Liveness",
    "ReachingDefinitions",
    "RequestFacts",
    "SymValue",
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
