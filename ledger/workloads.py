"""Measuring one workload: timed repetitions, the checked pass, the traced
passes, and the numbers derived from them.

Two clocks (see README.md):

* virtual — deterministic per seed.  A run of ``--seed N`` drives
  ``SUBSEEDS`` deployments (seeds ``N*1000 + i``) and pools their samples, so
  a p99 rests on three times the requests of one deployment.
* host — ``time.process_time()`` over the timed region (clients spawned ->
  drained), the collector off, each repetition on a freshly built deployment
  of sub-seed 0, which must reproduce the first one exactly (asserted).  The
  region is timed in slices of virtual time and ``run_cpu_s`` is the sum over
  the slices of each slice's fastest repetition: this box alternates between
  a fast and a 40% slower phase every few seconds, so a whole repetition
  rarely escapes the slow phase but every slice does in some repetition.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import build
import isolated
import spec
from probes import Probes
from repro.consistency import (
    check_strict_serializability,
    find_causal_cut_violations,
    find_monotonic_read_violations,
    find_read_your_writes_violations,
)
from repro.errors import ConsistencyViolation
from repro.obs import all_breakdowns, critical_path, group_traces
from repro.sim import percentile

#: Deployments pooled into one run's virtual metrics.
SUBSEEDS = 3
#: The least number of timed repetitions (and the number without --seconds);
#: --smoke, which is there to exercise the code, makes do with two.
MIN_REPS = 4
SMOKE_REPS = 2
#: The shape behind each workload (layers-isolated drives the zero-RTT one).
SHAPE_OF = {name: name for name in spec.WORKLOADS}
SHAPE_OF["layers-isolated"] = "invoke-zero-rtt"
#: Extra makespan a rung may take over its arrival window before its
#: backlog counts as growing.
BACKLOG_SLACK_MS = 1_000.0


def subseed(seed: int, i: int) -> int:
    return seed * 1000 + i


# --------------------------------------------------------------------------
# One drive of one deployment.
# --------------------------------------------------------------------------


@dataclass
class Rep:
    """What one drive produced.  ``world`` is dropped unless asked for."""

    build_s: float
    cpu_s: float
    wall_s: float
    #: CPU seconds of each slice of virtual time (see ``build.drive``).
    slices: List[float]
    makespan_ms: float
    latencies: List[float]
    unavailable: int
    events: int
    messages: int
    counters: Dict[str, int]
    world: Optional[build.World] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.unavailable

    def digest(self) -> Tuple:
        """Everything virtual about the run that a host-only change, a
        probe, a recorder or the tracer must leave untouched."""
        return (
            self.events, self.messages, self.makespan_ms, self.unavailable,
            len(self.latencies), sum(self.latencies),
            tuple(sorted(self.counters.items())),
        )


def drive_once(
    shape: build.Shape, seed: int, *, baseline: bool = False,
    trace: bool = False, record: bool = False, keep_world: bool = False,
    probes: Optional[Probes] = None,
) -> Rep:
    """Build (untimed), then drive (timed).  With ``probes``, the wrappers
    go in before the build — handlers are wrapped as they are registered —
    and start counting at the timed region."""
    with probes if probes is not None else contextlib.nullcontext():
        t0 = time.process_time()
        if baseline:
            world = build.build_baseline(shape, seed)
        else:
            world = build.build_world(shape, seed, trace=trace, record=record)
        build_s = time.process_time() - t0
        if probes is not None:
            probes.reset()
        gc.collect()
        gc.disable()
        marks: List[float] = []
        try:
            c0, w0 = time.process_time(), time.perf_counter()
            makespan = build.drive(world, time.process_time, marks)
            cpu_s, wall_s = time.process_time() - c0, time.perf_counter() - w0
        finally:
            gc.enable()
    metrics = world.metrics
    net = getattr(world.dep, "net", None)
    return Rep(
        build_s=build_s, cpu_s=cpu_s, wall_s=wall_s, makespan_ms=makespan,
        slices=[b - a for a, b in zip([c0] + marks, marks)],
        latencies=metrics.samples("e2e"),
        unavailable=metrics.counter("requests.unavailable"),
        events=world.sim.events_dispatched,
        messages=net.messages_sent if net is not None else 0,
        counters=metrics.counters(),
        world=world if keep_world else None,
    )


def floor_cpu_s(reps: List[Rep]) -> float:
    """Each slice's fastest repetition, summed.  The repetitions ran the
    same seed, so slice i is the same work in every one of them."""
    if len({len(r.slices) for r in reps}) != 1:
        return min(r.cpu_s for r in reps)   # not the same run: flagged elsewhere
    return sum(min(column) for column in zip(*(r.slices for r in reps)))


# --------------------------------------------------------------------------
# Output checks (behind ``invariants_ok``); never inside a timed repetition.
# --------------------------------------------------------------------------


def run_checks(name: str, world: build.World) -> Tuple[Dict[str, str], float]:
    """Every output check of the workload -> {check: "" if it passed, else
    what went wrong}, plus the host ms the serializability check took."""
    dep, recorder = world.dep, world.recorder
    out: Dict[str, str] = {}
    records = recorder.history.records()

    t0 = time.process_time()
    out["strict_serializability"] = serializable_in_windows(records)
    check_ms = (time.process_time() - t0) * 1000.0

    pending = dep.pending_intents()
    out["no_pending_intents"] = "" if not pending else f"{len(pending)} intents still pending"
    held = [o for server in dep.servers for o in server.locks.held_owners()]
    out["no_held_locks"] = "" if not held else f"{len(held)} owners still hold locks"
    unsound = dep.metrics.counter("analysis.unsound")
    out["analysis_sound"] = "" if unsound == 0 else f"{unsound} unsound executions"

    if recorder.acked_bumps or recorder.maybe_bumps:
        out["exactly_once"] = _exactly_once(dep, recorder)
    if dep.router is not None and dep.router.detector is not None:
        dirty = dep.router.detector.dirty
        out["dirty_set_balanced"] = "" if dirty.balanced else f"unbalanced: {dirty.stats()}"
    if world.shape.sessions:
        sessions = [r for r in records if r.session]
        problems = find_read_your_writes_violations(sessions)
        problems += find_monotonic_read_violations(sessions)
        out["session_guarantees"] = "" if not problems else problems[0]
        cuts: List[str] = []
        for region in sorted(dep.mesh.pops):
            for label, log in dep.mesh.pop(region).application_logs():
                cuts.extend(find_causal_cut_violations(log, label=label))
        out["causal_cuts"] = "" if not cuts else cuts[0]
    return out, check_ms


#: The checker's real-time edges are quadratic in the history (15 s and 1 GB
#: at 4000 records), so the history is checked in overlapping windows of
#: consecutive responses.  Any subset of a serializable history is
#: serializable, so a window cannot raise a false alarm; a cycle is missed
#: only if it spans more than the overlap, which is several times the
#: largest number of requests ever in flight here.
CHECK_WINDOW = 1_000
CHECK_STRIDE = 750


def serializable_in_windows(records) -> str:
    ordered = sorted(records, key=lambda r: (r.responded_at, r.txn_id))
    start = 0
    while True:
        try:
            check_strict_serializability(ordered[start:start + CHECK_WINDOW])
        except ConsistencyViolation as exc:
            return f"records {start}..{start + CHECK_WINDOW}: {exc}"
        if start + CHECK_WINDOW >= len(ordered):
            return ""
        start += CHECK_STRIDE


def _exactly_once(dep, recorder: build.Recorder) -> str:
    """Per counter: acked <= value <= acked + maybe-applied, and the value
    moved in lock step with the version (no non-bump write landed)."""
    for key in sorted(set(recorder.acked_bumps) | set(recorder.maybe_bumps)):
        item = dep.get_or_none("counters", key)
        value = item.value if item is not None else 0
        version = item.version if item is not None else 0
        acked = recorder.acked_bumps.get(key, 0)
        maybe = recorder.maybe_bumps.get(key, 0)
        if not acked <= value <= acked + maybe:
            return f"{key}: value {value} outside [{acked}, {acked + maybe}]"
        if item is not None and version - 1 != value:
            return f"{key}: version {version} does not match value {value}"
    return ""


# --------------------------------------------------------------------------
# Virtual statistics over the pooled sub-seed runs.
# --------------------------------------------------------------------------


def pooled_stats(shape: build.Shape, reps: List[Rep], baseline: Rep) -> Dict[str, float]:
    lat = [x for r in reps for x in r.latencies]
    attempted = sum(r.attempted for r in reps)
    unavailable = sum(r.unavailable for r in reps)
    slow = sum(1 for x in lat if x > shape.slo_ms)
    makespan_s = sum(r.makespan_ms for r in reps) / 1000.0
    base = baseline.latencies
    p50 = percentile(lat, 50.0)
    return {
        "e2e_p50_ms": p50,
        "e2e_p99_ms": percentile(lat, 99.0),
        "p50_vs_primary_pct": 100.0 * p50 / percentile(base, 50.0),
        "goodput_rps": len(lat) / makespan_s,
        "in_slo_share": 1.0 - (unavailable + slow) / attempted,
        "events_per_req": sum(r.events for r in reps) / attempted,
        "samples": len(lat),
        "attempted": attempted,
        "unavailable": unavailable,
        "baseline_p50_ms": percentile(base, 50.0),
    }


def ladder(shape: build.Shape, seed: int, headline: Rep) -> Tuple[float, List[Dict[str, float]]]:
    """Latency at each fixed rate and the highest rate in its limit.  A rung
    passes when p99 <= the limit and the makespan stays within the arrival
    window plus slack; the answer is the highest rung with no failing rung
    below it.  ``headline`` is the already-measured headline-rate run."""
    rows: List[Dict[str, float]] = []
    best = 0.0
    still_passing = True
    for rate in build.READMIX_LADDER:
        if rate == shape.rate_rps:
            rep = headline
        else:
            rep = drive_once(dataclasses.replace(shape, rate_rps=rate), seed)
        p99 = percentile(rep.latencies, 99.0)
        ok = (
            rep.unavailable == 0
            and p99 <= shape.slo_ms
            and rep.makespan_ms <= shape.duration_ms + BACKLOG_SLACK_MS
        )
        offered = rate * len(shape.regions)
        rows.append({
            "offered_rps": offered, "p50_ms": percentile(rep.latencies, 50.0),
            "p99_ms": p99, "makespan_ms": rep.makespan_ms,
            "samples": len(rep.latencies), "in_slo": ok,
        })
        still_passing = still_passing and ok
        if still_passing:
            best = offered
    return best, rows


# --------------------------------------------------------------------------
# --trace 0: the end-to-end metrics.
# --------------------------------------------------------------------------


@dataclass
class Budget:
    """How long to keep repeating: ``seconds`` of wall time, but never
    fewer than ``min_reps``; without a budget, exactly ``min_reps``."""

    seconds: Optional[float]
    min_reps: int = MIN_REPS
    started: float = field(default_factory=time.perf_counter)

    def more(self, done: int) -> bool:
        if done < self.min_reps:
            return True
        return self.seconds is not None and time.perf_counter() - self.started < self.seconds


def run_end_to_end(name: str, seed: int, seconds: Optional[float], smoke: bool,
                   import_s: float) -> Dict[str, Any]:
    shape = build.shapes(smoke)[SHAPE_OF[name]]
    checks: Dict[str, str] = {}
    info: Dict[str, Any] = {}
    setup_extra_s = 0.0

    s0 = subseed(seed, 0)
    baseline = drive_once(shape, s0, baseline=True)

    if name == "layers-isolated":
        t0 = time.process_time()
        isolated.corpus()       # compile + analyse the 27 functions once
        setup_extra_s = time.process_time() - t0

    budget = Budget(seconds, SMOKE_REPS if smoke else MIN_REPS)
    reps: List[Rep] = []
    micro = Microbenches(smoke)
    while budget.more(len(reps)):
        rep = drive_once(shape, s0)
        if reps and rep.digest() != reps[0].digest():
            checks["deterministic_per_seed"] = f"repetition {len(reps)} differs from the first"
        reps.append(rep)
        if name == "layers-isolated":
            micro.round()
    checks.setdefault("deterministic_per_seed", "")
    # Read before the ladder and the checks: both may hold more memory than
    # the workload itself (the serializability graph is quadratic).
    rss_mb = peak_rss_mb()

    subseeds = 1 if smoke else SUBSEEDS     # --smoke exercises the code, not the tail
    pooled = [reps[0]] + [drive_once(shape, subseed(seed, i)) for i in range(1, subseeds)]

    # Checked pass: sub-seed 0 again with the recorder on, then every output
    # check.  The recorder must not move a single virtual quantity.
    checked = drive_once(shape, s0, record=True, keep_world=True)
    if checked.digest() != reps[0].digest():
        checks["deterministic_per_seed"] = "the recorded run differs from the bare one"
    outcome, info["consistency_check_ms"] = run_checks(name, checked.world)
    checks.update(outcome)
    wrong = checked.world.recorder.wrong_results
    checked.world = None

    stats = pooled_stats(shape, pooled, baseline)
    attempted = int(stats["attempted"])
    failed = int(stats["unavailable"]) + wrong
    run_cpu = floor_cpu_s(reps)
    if name == "layers-isolated":
        checks["microbench_digests"] = micro.changed
        run_cpu += sum(micro.best_s.values())
        info["microbench_cpu_s"] = dict(micro.best_s)

    if name == "readmix-sharded":
        max_rate, rows = ladder(shape, s0, reps[0])
        info["ladder"] = rows
        info["ladder_note"] = (
            f"limit: p99 <= {shape.slo_ms:g} ms and makespan <= arrivals + {BACKLOG_SLACK_MS:g} ms"
        )
    else:
        # One load level, no ladder: the rate is the one the level ran at.
        max_rate = stats["goodput_rps"]
        info["ladder_note"] = "single load level (no ladder): equals goodput_rps"

    values = {
        "e2e_p50_ms": stats["e2e_p50_ms"],
        "e2e_p99_ms": stats["e2e_p99_ms"],
        "p50_vs_primary_pct": stats["p50_vs_primary_pct"],
        "goodput_rps": stats["goodput_rps"],
        "max_rate_in_slo_rps": max_rate,
        "in_slo_share": stats["in_slo_share"],
        "ok_share": 1.0 - failed / attempted,
        "invariants_ok": 0 if any(checks.values()) else 1,
        "events_per_req": stats["events_per_req"],
        "run_cpu_s": run_cpu,
        "setup_s": import_s + setup_extra_s + statistics.median(r.build_s for r in reps),
        "peak_rss_mb": rss_mb,
    }
    info.update({
        "K": len(reps), "subseeds": subseeds, "samples": int(stats["samples"]),
        "beyond_p99": int(stats["samples"]) // 100,
        "baseline_p50_ms": stats["baseline_p50_ms"],
        "unavailable": int(stats["unavailable"]), "wrong_results": wrong,
        "slo_ms": shape.slo_ms,
        "run_cpu_s_all": [r.cpu_s for r in reps],
        "run_cpu_s_min": min(r.cpu_s for r in reps),
        "run_cpu_s_median": statistics.median(r.cpu_s for r in reps),
        "slices": len(reps[0].slices),
        "run_wall_s_min": min(r.wall_s for r in reps),
        "build_s_all": [r.build_s for r in reps],
        "import_s": import_s,
        "gen_lag_ms": 0.0,
        "gen_lag_note": "arrivals are virtual-time events: the generator is never late",
        "loop": shape.loop,
    })
    return {
        "metrics": {m: {"value": values[m], "unit": spec.END_TO_END[m].unit} for m in spec.END_TO_END},
        "derived": {
            "gain_vs_primary_pct": 100.0 - values["p50_vs_primary_pct"],
            "slo_miss_share": 1.0 - values["in_slo_share"],
            "failed_share": failed / attempted,
        },
        "checks": checks, "attempted": attempted, "failed": failed, "info": info,
    }


class Microbenches:
    """Rounds of the isolated benches: each bench's fastest round, its
    operation count, and whether its result digest ever changed."""

    def __init__(self, smoke: bool):
        self.scale = 0.1 if smoke else 1.0
        self.rounds = 0
        self.best_s: Dict[str, float] = {}
        self.ops: Dict[str, int] = {}
        self.changed = ""
        self._digests: Dict[str, Any] = {}

    def round(self) -> None:
        self.rounds += 1
        for bench, fn in isolated.BENCHES.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                self.ops[bench], digest = fn(self.scale)
                cpu = time.process_time() - t0
            finally:
                gc.enable()
            self.best_s[bench] = min(cpu, self.best_s.get(bench, cpu))
            if self._digests.setdefault(bench, digest) != digest:
                self.changed = f"{bench} changed between repetitions"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# --trace 1: the per-layer metrics.
# --------------------------------------------------------------------------


def run_per_layer(name: str, seed: int, seconds: Optional[float], smoke: bool) -> Dict[str, Any]:
    """Reference run (bare), pass A (the program's own obs spine on), pass B
    (probes + recorder on), all on sub-seed 0; the three must agree on
    every virtual quantity."""
    shape = build.shapes(smoke)[SHAPE_OF[name]]
    s0 = subseed(seed, 0)
    values: Dict[str, Optional[float]] = {m: 0.0 for m in spec.PER_LAYER}
    checks: Dict[str, str] = {}
    info: Dict[str, Any] = {}

    refs = [drive_once(shape, s0) for _ in range(2 if smoke else 3)]   # the first also warms up
    ref = refs[0]
    ref_cpu = floor_cpu_s(refs)
    n = ref.attempted

    # Pass A: spans from the program's own tracer -> virtual phase numbers.
    a = drive_once(shape, s0, trace=True, keep_world=True)
    spans = a.world.dep.trace.spans
    values.update(phase_metrics(spans))
    values["obs.spans_per_req"] = len(spans) / n
    values["obs.trace_overhead_ratio"] = a.cpu_s / ref_cpu
    a.world = None
    del spans

    # Pass B: the benchmark's probes, the recorder, then the output checks.
    probes = Probes()
    b = drive_once(shape, s0, record=True, keep_world=True, probes=probes)
    checks, check_ms = run_checks(name, b.world)
    values["consistency.check_ms"] = check_ms
    values["bench.probe_overhead_ratio"] = b.cpu_s / ref_cpu
    values.update(counter_metrics(b, shape))
    values.update(probe_metrics(probes, b))
    b.world = None

    same = all(r.digest() == ref.digest() for r in refs[1:] + [a, b])
    checks["passes_agree"] = "" if same else (
        "reference, traced and probed runs differ in a virtual quantity"
    )

    if name == "layers-isolated":
        isolated.corpus()
        budget = Budget(seconds, SMOKE_REPS if smoke else MIN_REPS)
        micro = Microbenches(smoke)
        while budget.more(micro.rounds):
            micro.round()
        for bench, best in micro.best_s.items():
            values[bench] = best * 1000.0 if bench.endswith("_ms") else micro.ops[bench] / best
        values["core.invoke_zero_rtt_per_s"] = n / ref_cpu
        checks["microbench_digests"] = micro.changed
        info["K_microbench"] = micro.rounds

    info.update({
        "attempted": n, "ref_cpu_s": ref_cpu, "pass_a_cpu_s": a.cpu_s, "pass_b_cpu_s": b.cpu_s,
        "probe_calls": dict(probes.calls), "probe_self_s": dict(probes.self_s),
        "probe_clock": "perf_counter",
    })
    return {
        "metrics": {
            m: {"value": values[m], "unit": spec.PER_LAYER[m][0]} for m in spec.PER_LAYER
        },
        "checks": checks, "attempted": n,
        "failed": b.unavailable, "info": info,
        "probes_missing": list(probes.missing),
    }


def phase_metrics(spans) -> Dict[str, float]:
    """The paper's max(exec, RTT) decomposition, speculative path only."""
    spec_path = [b for b in all_breakdowns(spans) if b.path == "speculative"]
    if not spec_path:
        return {}

    def pct(phase: str, p: float) -> float:
        return percentile([b.phases.get(phase, 0.0) for b in spec_path], p)

    ids = {b.trace_id for b in spec_path}
    rtt_bound = sum(
        1 for trace_id, trace in group_traces(spans).items()
        if trace_id in ids
        and any(label == "phase.spec_overlap/rpc" for label, _ in critical_path(trace))
    )
    return {
        "core.runtime.phase.overhead_p50_ms": pct("phase.overhead", 50.0),
        "core.runtime.phase.frw_p50_ms": pct("phase.frw", 50.0),
        "core.runtime.phase.spec_overlap_p50_ms": pct("phase.spec_overlap", 50.0),
        "core.runtime.phase.spec_overlap_p99_ms": pct("phase.spec_overlap", 99.0),
        "core.runtime.overlap_rtt_bound_share": rtt_bound / len(spec_path),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def counter_metrics(rep: Rep, shape: build.Shape) -> Dict[str, float]:
    """Per-layer numbers the program already counts (virtual, exact)."""
    world, c, n = rep.world, rep.counters, rep.attempted
    dep, metrics = world.dep, world.metrics
    get = lambda k: c.get(k, 0)  # noqa: E731
    paths = sum(get(f"path.{p}") for p in ("speculative", "backup", "miss", "direct"))
    lock_waits = metrics.samples_tagged("lock.wait")
    hits = sum(cache.hits for cache in dep.caches.values())
    lookups = hits + sum(cache.misses for cache in dep.caches.values())
    out = {
        "sim.core.events_per_req": rep.events / n,
        "sim.network.msgs_per_req": rep.messages / n,
        "storage.lock_acquires_per_req": sum(s.locks.acquisitions for s in dep.servers) / n,
        "storage.lock_wait_p99_ms": percentile(lock_waits, 99.0) if lock_waits else 0.0,
        "storage.cache_hit_ratio": _ratio(hits, lookups),
        "core.runtime.spec_success_ratio": _ratio(
            get("validation.success"), get("validation.success") + get("validation.failure")),
        "core.runtime.backup_share": _ratio(get("path.backup") + get("path.miss"), paths),
        "core.runtime.rpc_retries_per_req": get("rpc.retry") / n,
        "core.runtime.breaker_fast_fail_share": get("breaker.fast_fail") / n,
        "core.server.followups_per_req": (get("followup.applied") + get("followup.discarded")) / n,
        "topology.shardmap.lock_skip_ratio": get("router.lock_skipped") / n,
        "topology.shardmap.replica_bounce_ratio": _ratio(
            get("router.replica_bounce"), get("router.lock_skipped")),
        "topology.shardmap.dirty_leaked": get("router.dirty_leaked"),
        "mesh.gossip_msgs_per_req": get("mesh.gossip_sent") / n,
        "mesh.updates_applied_ratio": _ratio(get("mesh.updates_applied"), get("mesh.updates_shipped")),
    }
    depths = metrics.samples_tagged("router.dirty_depth")
    out["topology.shardmap.dirty_depth_max"] = max(depths) if depths else 0.0
    ages = metrics.samples_tagged("cache.hit_age_ms")
    if dep.mesh is not None and ages:
        out["mesh.hit_age_p50_ms"] = percentile(ages, 50.0)
    if dep.raft is not None:
        commits = max(node.commit_index for node in dep.raft.nodes.values())
        out["raft.commits_per_req"] = commits / n
        out["raft.msgs_per_commit"] = _ratio(dep.raft.net.messages_sent, commits)
        out["raft.elections"] = max(node.current_term for node in dep.raft.nodes.values())
        out["raft.failover_ms"] = failover_ms(world.recorder.arrivals, shape.regions)
    return out


def failover_ms(arrivals, regions) -> float:
    """Leader crash -> first success among the requests that *arrived*
    after it, in the worst region."""
    worst = 0.0
    for region in regions:
        done = [
            responded for arrived, responded, where, ok in arrivals
            if ok and where == region and arrived >= build.RAFT_CRASH_AT_MS
        ]
        if done:
            worst = max(worst, min(done) - build.RAFT_CRASH_AT_MS)
    return worst


KV_OPS = tuple(f"KVStore.{op}" for op in (
    "get", "get_or_none", "put", "conditional_put", "apply_writes", "batch_get", "batch_versions"))


def probe_metrics(probes: Probes, rep: Rep) -> Dict[str, Optional[float]]:
    """Shares of pass-B time by layer, and the counts only a probe sees."""
    n = rep.attempted
    dep = rep.world.dep

    def per_req(count: Optional[int]) -> Optional[float]:
        return None if count is None else count / n

    out: Dict[str, Optional[float]] = {
        f"{layer}.self_share": probes.share(layer) for layer in probes.self_s
    }
    out["wasm.vm.execs_per_req"] = per_req(probes.count("VM.execute"))
    out["wasm.vm.gas_per_req"] = (
        None if probes.count("VM.execute") is None else probes.sums["wasm.vm.gas"] / n
    )
    out["storage.kv_ops_per_req"] = per_req(probes.count(*KV_OPS))
    out["storage.copies_per_req"] = per_req(probes.count("fast_deepcopy"))
    out["core.server.lvi_reqs_per_req"] = probes.handled_per_type("LVIRequest") / n
    probed = probes.count("DirtySet.probe")
    out["topology.shardmap.conflict_hit_ratio"] = (
        None if probed is None else _ratio(rep.counters.get("router.conflict_hit", 0), probed)
    )
    proc_ms = dep.spec.config.server_proc_ms
    primaries = {s.name for s in dep.servers}
    handled = sum(k for (endpoint, _t), k in probes.handled.items() if endpoint in primaries)
    out["core.server.primary_util"] = _ratio(
        handled * proc_ms, len(primaries) * rep.makespan_ms)
    return out
