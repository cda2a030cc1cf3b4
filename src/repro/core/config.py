"""Configuration for Radical deployments (timings from the paper's §5.2).

All times are milliseconds of virtual time.  The paper's measured
constants are module constants, not knobs — no experiment varies them:

* ``INVOKE_MS`` — invoking a Lambda in the same datacenter is ~12 ms;
* the latency table's intra-region RTT (7 ms) is Table 2's VA row: the
  round trip from a function to the storage service in the same region;
* ``REPLICATED_IDEM_MS`` — §5.6 measures 3 ms for the idempotency-key
  write; its 2.3 ms per serial lock through etcd is not a constant here but
  what a commit through the deployment's real ``RaftCluster`` costs.

Function *service times* (Table 1's execution-time column) live on each
:class:`~repro.core.registry.FunctionSpec`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "INVOKE_MS",
    "LIMITER_DECREASE_COOLDOWN_MS",
    "PREPARE_LOCK_TIMEOUT_MS",
    "REPLICATED_IDEM_MS",
    "RadicalConfig",
    "SERVER_STORAGE_RTT_MS",
    "WASM_LOAD_MS",
]

# Near-user invocation overheads (§5.5 components 1-2).
INVOKE_MS = 12.0             # Lambda instantiation
WASM_LOAD_MS = 1.0           # loading the WASM blob from disk

# Near-storage processing.
SERVER_STORAGE_RTT_MS = 2.0  # LVI server <-> DynamoDB round trip
REPLICATED_IDEM_MS = 3.0     # §5.6 idempotency-key write (replicated server)

# Cross-shard prepares cannot rely on a global lock order, so their lock
# waits are bounded; a timeout aborts the prepare and the runtime retries
# the invocation with backoff.
PREPARE_LOCK_TIMEOUT_MS = 250.0

# Spaces the AIMD limiter's multiplicative decreases so one burst of
# overload replies does not collapse the window to 1.
LIMITER_DECREASE_COOLDOWN_MS = 200.0


@dataclass
class RadicalConfig:
    """Timing and behaviour knobs shared by runtimes and servers."""

    # Near-user invocation overhead (§5.5 component 1).
    client_app_rtt_ms: float = 1.0     # client to its co-located deployment

    # Near-storage processing.
    followup_timeout_ms: float = 1500.0  # write-intent timer (§3.4)

    # Client-side robustness: retries, deadlines, circuit breaking.  The
    # defaults are deliberately generous — they bound the formerly
    # unbounded RPC hangs without perturbing any happy-path experiment
    # (WAN RTT + queueing under the offered-load sweep stays far below
    # 10 s of virtual time).  Chaos runs tighten them.
    rpc_timeout_ms: float = 10_000.0       # per-attempt RPC timeout
    retry_max_attempts: int = 3            # attempts per logical RPC
    retry_base_backoff_ms: float = 10.0    # first backoff
    retry_backoff_multiplier: float = 2.0  # exponential growth factor
    retry_max_backoff_ms: float = 1_000.0  # backoff cap
    retry_jitter_frac: float = 0.2         # +-20% deterministic jitter
    invocation_deadline_ms: float = 60_000.0  # end-to-end budget per invoke
    breaker_failure_threshold: int = 5     # consecutive failures to open
    breaker_cooldown_ms: float = 5_000.0   # open -> half-open probe delay

    # Service-time variability (the p99 whiskers in Figs 4-6).
    service_jitter_sigma: float = 0.08   # lognormal sigma on exec time

    # §5.6 replicated server costs (each lock is a real Raft commit).
    replicated: bool = False
    # §5.6's suggested future optimization: commit all of a request's lock
    # records in one consensus round instead of serially.
    replicated_batch_locks: bool = False

    # Sharded near-storage tier (repro.topology).  All default to the
    # seed's single-shard behaviour: no serial server cost, no request
    # coalescing.  ``server_proc_ms`` models the per-message CPU cost that
    # makes a single LVI server a throughput bottleneck (the scalability
    # benchmark's saturation knob); coalesced batch members after the
    # first cost ``server_batch_item_ms`` instead.
    server_proc_ms: float = 0.0
    server_batch_item_ms: float = 0.0
    # Runtime-side LVI batching: coalesce concurrent co-located requests
    # to the same shard into one physical message within this virtual-time
    # window (0 = off, so paper figures are unchanged).
    lvi_batch_window_ms: float = 0.0
    # An invocation whose cross-shard prepare was aborted
    # (``PREPARE_LOCK_TIMEOUT_MS``) restarts with backoff at most this
    # many times.
    cross_shard_max_restarts: int = 4

    # Overload robustness.  All default *off* so existing experiment
    # timelines are byte-identical.  ``admission_queue_depth`` bounds the
    # LVI server's admission queue: a request arriving with that many
    # already admitted (and the serial cost model on) is shed with a
    # retryable ``OverloadedError`` instead of queueing without limit.
    # ``admission_sojourn_ms`` adds a CoDel-flavoured deadline-aware drop:
    # shed when the *estimated* queue wait already exceeds the bound, even
    # if the depth cap has room.  ``limiter_max_inflight`` enables the
    # runtime's AIMD in-flight limiter (and is its window ceiling).
    admission_queue_depth: int = 0        # 0 = no admission control
    admission_sojourn_ms: float = 0.0     # 0 = no sojourn-based shedding
    limiter_max_inflight: int = 0         # 0 = no client-side limiter

    # Sandbox budget.
    gas_limit: int = 2_000_000

    # Speculation switches (ablations; the paper's system has both on).
    speculate: bool = True               # overlap f with the LVI request
    single_request: bool = True          # False = validate then commit (2 RTT)

    # In-network conflict detection (Harmonia-style, via the ShardRouter's
    # dirty set of in-flight write constraints).  Off by default so every
    # frozen experiment timeline is byte-identical.  With detection on,
    # read-only requests whose instantiated key constraints provably miss
    # every in-flight writer skip lock acquisition and may be served by
    # any read replica of their shard; ``read_replicas`` is the number of
    # LVI server instances per shard sharing that shard's store (1 = just
    # the primary; replicas only ever serve lock-skipped reads).
    conflict_detection: bool = False
    read_replicas: int = 1
