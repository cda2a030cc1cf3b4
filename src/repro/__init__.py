"""Reproduction of "Running Consistent Applications Closer to Users with
Radical for Lower Latency" (SOSP 2025).

The package is organised bottom-up:

* :mod:`repro.sim` — deterministic discrete-event kernel, network, RNG.
* :mod:`repro.storage` — linearizable primary store, near-user caches,
  lock manager, write intents, quorum-replicated baseline store.
* :mod:`repro.raft` — Raft consensus (the etcd stand-in for §5.6).
* :mod:`repro.wasm` — deterministic "wasm-lite" VM and compiler.
* :mod:`repro.analysis` — IR analyzer deriving f^rw as a backward slice.
* :mod:`repro.core` — Radical itself: runtime, LVI server, protocol.
* :mod:`repro.baselines` — primary-DC / geo-replicated / local-ideal.
* :mod:`repro.consistency` — history recording + linearizability checking.
* :mod:`repro.apps` — the paper's benchmark applications.
* :mod:`repro.workloads` — zipfian workload generators and clients.
* :mod:`repro.bench` — experiment harness reproducing every figure/table.

Quickstart::

    from repro.apps import social_media_app
    from repro.bench import drive_closed_loop
    from repro.topology import Deployment, TopologySpec

    app = social_media_app()
    dep = drive_closed_loop(Deployment.build(TopologySpec(), app=app), app, requests=2000)
    print(dep.metrics.summary("e2e"))
"""

__version__ = "1.0.0"

from .errors import (
    AnalysisError,
    AnalysisTimeout,
    CompileError,
    ConditionFailed,
    ConsistencyViolation,
    FaultConfigError,
    FunctionNotRegistered,
    GasExhausted,
    KeyMissing,
    LockError,
    NonDeterminismError,
    ProtocolError,
    ReproError,
    StorageError,
    UnavailableError,
    VMError,
    VMTrap,
)

__all__ = [
    "__version__",
    "AnalysisError",
    "AnalysisTimeout",
    "CompileError",
    "ConditionFailed",
    "ConsistencyViolation",
    "FaultConfigError",
    "FunctionNotRegistered",
    "GasExhausted",
    "KeyMissing",
    "LockError",
    "NonDeterminismError",
    "ProtocolError",
    "ReproError",
    "StorageError",
    "UnavailableError",
    "VMError",
    "VMTrap",
]
