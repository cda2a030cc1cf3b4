#!/usr/bin/env python3
"""Where did the milliseconds go?  The tracing spine on one experiment.

Runs the social app under Radical with structured tracing enabled
(`repro.obs`), then walks the artifacts the spine produces:

1. the per-invocation latency breakdown — client-side phase spans sum to
   the recorded end-to-end latency within one virtual nanosecond;
2. critical-path signatures — for each request, whether the speculative
   execution or the LVI round trip bounded its latency (the paper's
   ``max(exec, RTT)`` argument, §3.2, measured per request);
3. a zoom into one invocation: every span in its trace, including the
   server-side stages that overlap the client's speculation phase;
4. the JSONL export, and a digest check that tracing never perturbs the
   simulation (same seed, tracing on or off, identical latencies).

Run:  python examples/trace_breakdown.py
"""

from repro.bench import (
    MAIN_APP_BUILDERS,
    PAPER_JITTER_SIGMA,
    drive_closed_loop,
    print_breakdown_report,
)
from repro.obs import (
    all_breakdowns,
    critical_path,
    critical_path_signatures,
    group_traces,
    orphan_spans,
    spans_to_jsonl,
    write_jsonl,
)
from repro.topology import Deployment, TopologySpec


def run(trace: bool) -> Deployment:
    """Build the paper topology and drive 300 social requests through it."""
    spec = TopologySpec(seed=7, network_jitter_sigma=PAPER_JITTER_SIGMA, trace=trace)
    app = MAIN_APP_BUILDERS["social"]()
    return drive_closed_loop(Deployment.build(spec, app=app), app, requests=300)


def main() -> None:
    print("Running the social app under Radical with tracing enabled ...")
    traced = run(trace=True)
    spans = traced.trace.spans
    print(f"  {len(spans)} spans recorded, {len(orphan_spans(spans))} orphans "
          f"(must be 0)")

    # -- 1. the breakdown table ------------------------------------------------
    breakdowns = all_breakdowns(spans)
    print_breakdown_report(breakdowns, title="Latency breakdown (social, Radical)")

    # -- 2. what bounded each request? ----------------------------------------
    print("Critical-path signatures (which span set each phase's length):")
    for sig, count in sorted(
        critical_path_signatures(spans).items(), key=lambda kv: -kv[1]
    ):
        print(f"  {count:4d}  {sig}")
    print("  -> '/spec.exec' = execution-bound, '/rpc' = RTT-bound (§3.2)")

    # -- 3. zoom into the slowest invocation ----------------------------------
    slowest = max(breakdowns, key=lambda b: b.e2e_ms)
    trace = group_traces(spans)[slowest.trace_id]
    print(f"\nSlowest invocation: trace {slowest.trace_id} "
          f"({slowest.function}, {slowest.region}, {slowest.path}, "
          f"{slowest.e2e_ms:.1f} ms)")
    for span in sorted(trace, key=lambda s: (s.start_ms, s.span_id)):
        dur = f"{span.duration_ms:8.2f} ms" if span.finished else "    open"
        print(f"  [{span.start_ms:9.2f}] {dur}  {span.kind:10s} {span.name}")
    print("Critical path:",
          " -> ".join(f"{name} ({dur:.1f})" for name, dur in critical_path(trace)))

    # -- 4. export + the determinism contract ---------------------------------
    path = write_jsonl("/tmp/social_trace.jsonl", spans)
    print(f"\nExported {len(spans)} spans to {path}")
    print("First record:", spans_to_jsonl(spans[:1]).strip()[:120], "...")

    untraced = run(trace=False)
    same = untraced.metrics.summary("e2e") == traced.metrics.summary("e2e")
    print(f"\nSame seed without tracing -> identical summaries: {same}")
    assert same, "tracing must never perturb the simulation"


if __name__ == "__main__":
    main()
