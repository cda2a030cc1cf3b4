#!/usr/bin/env python3
"""Profile the simulator hot path over the fig4 workload.

Prints the top-N functions by cumulative time (plus a tottime view) for
the exact closed-loop experiment the determinism oracle runs — the
ledger's ``social-closed`` workload.  This is the tool that
produced the findings behind the fast-kernel refactor (calendar queue,
slotted messages, fast deep copy, VM opcode translation); rerun it before
claiming any further kernel optimisation.

    python benchmarks/profile_kernel.py [--requests N] [--seed S] [--top N]

Note that cProfile's tracing inflates call-heavy code (it roughly tripled
the wall-clock of this workload when the refactor was measured), so treat
the output as a ranking, not as absolute cost — confirm wins with
``python3 ledger/run.py --workload social-closed``, which times untraced
runs.
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=2000,
                        help="fig4 workload size (default 2000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=20,
                        help="rows per ranking (default 20)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also dump raw stats for snakeviz/pstats")
    args = parser.parse_args()

    from repro.apps.social import social_media_app
    from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
    from repro.topology import Deployment, TopologySpec

    spec = TopologySpec(seed=args.seed, network_jitter_sigma=PAPER_JITTER_SIGMA)
    app = social_media_app()

    profiler = cProfile.Profile()
    profiler.enable()
    dep = drive_closed_loop(Deployment.build(spec, app=app), app, args.requests)
    profiler.disable()

    print(
        f"fig4 x{args.requests} seed={args.seed}: "
        f"e2e median {dep.metrics.summary('e2e').median:.3f} ms, "
        f"{dep.sim.events_dispatched} events, "
        f"virtual {dep.sim.now:.1f} ms\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"== top {args.top} by cumulative time ==")
    stats.print_stats(args.top)
    stats.sort_stats("tottime")
    print(f"== top {args.top} by own time ==")
    stats.print_stats(args.top)

    if args.out:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
