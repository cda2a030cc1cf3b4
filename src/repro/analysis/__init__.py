"""Static analysis: derive f^rw (read/write-set functions) from functions.

Reproduces the paper's Eunomia-based analyzer (§3.3): f^rw is a backward
slice of the compiled function (:mod:`repro.analysis.ir.slice`), executed
at invocation time against the near-user cache (the dependent-read
optimization).
"""

from .analyzer import (
    AnalyzedFunction,
    CacheReader,
    analyze_source,
    derive_rwset,
    try_analyze,
)
from .ir import (
    CFG,
    ConflictMatrix,
    ConflictPredicate,
    CrossValidation,
    FrwSlice,
    FunctionSummary,
    IRAccessSite,
    KeyConstraint,
    KeyFact,
    OptimizationReport,
    RequestFacts,
    build_cfg,
    build_conflict_matrix,
    conflict_witness,
    cross_validate,
    extract_access_sites,
    optimize,
    slice_frw,
    static_gas,
    summarize_function,
)
from .rwset import Key, ReadWriteSet, VersionedReadSet
from .sanitizer import SanitizerReport, access_checker, check_coverage, constraint_checker
from .symbolic import (
    AccessSite,
    PathReport,
    SymbolicReport,
    symbolic_analyze,
)

__all__ = [
    "AccessSite",
    "AnalyzedFunction",
    "CacheReader",
    "CFG",
    "ConflictMatrix",
    "ConflictPredicate",
    "CrossValidation",
    "FrwSlice",
    "FunctionSummary",
    "IRAccessSite",
    "Key",
    "KeyConstraint",
    "KeyFact",
    "OptimizationReport",
    "PathReport",
    "RequestFacts",
    "ReadWriteSet",
    "SanitizerReport",
    "SymbolicReport",
    "VersionedReadSet",
    "access_checker",
    "analyze_source",
    "build_cfg",
    "build_conflict_matrix",
    "check_coverage",
    "conflict_witness",
    "constraint_checker",
    "cross_validate",
    "derive_rwset",
    "extract_access_sites",
    "optimize",
    "slice_frw",
    "static_gas",
    "summarize_function",
    "symbolic_analyze",
    "try_analyze",
]
