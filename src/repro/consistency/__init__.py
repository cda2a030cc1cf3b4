"""History recording and consistency checking.

The paper proves Linearizability (§3.6); this package *checks* it: every
integration test records the versions each client operation observed and
verifies the resulting transaction history is strictly serializable.

Session-level guarantees (read-your-writes, monotonic reads) and mesh
causal-cut validity live here too.  :func:`verdicts` is the one suite
that judges a drained deployment against all of them (plus exactly-once,
pending intents, held locks, sanitizer soundness and dirty-set balance);
the chaos harness calls it on every case, over the history its
:class:`Recorder` kept.
"""

from .checker import (
    CutEvent,
    DependencyGraph,
    RegisterOp,
    build_dependency_graph,
    check_causal_cut,
    check_monotonic_reads,
    check_read_your_writes,
    check_register_linearizable,
    check_strict_serializability,
    find_causal_cut_violations,
    find_monotonic_read_violations,
    find_read_your_writes_violations,
)
from .history import HistoryRecorder, Key, TxnRecord
from .suite import Recorder, Request, verdicts

__all__ = [
    "CutEvent",
    "DependencyGraph",
    "HistoryRecorder",
    "Key",
    "Recorder",
    "RegisterOp",
    "Request",
    "TxnRecord",
    "build_dependency_graph",
    "check_causal_cut",
    "check_monotonic_reads",
    "check_read_your_writes",
    "check_register_linearizable",
    "check_strict_serializability",
    "find_causal_cut_violations",
    "find_monotonic_read_violations",
    "find_read_your_writes_violations",
    "verdicts",
]
